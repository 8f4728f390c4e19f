#include "cartridge/text/tokenizer.h"

#include "common/strings.h"

namespace exi::text {

void Tokenizer::AddStopWords(const std::vector<std::string>& words) {
  for (const std::string& w : words) stop_words_.insert(ToLower(w));
}

bool Tokenizer::IsStopWord(std::string_view token) const {
  return !stop_words_.empty() && stop_words_.find(token) != stop_words_.end();
}

// The characters a token is made of: ASCII letters and digits, what
// std::isalnum accepts in the "C" locale.
static bool IsWordChar(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
         (c >= 'A' && c <= 'Z');
}

void Tokenizer::ForEachToken(std::string_view document,
                             FunctionRef<void(std::string_view)> visit) const {
  std::string folded;
  const char* p = document.data();
  const char* const end = p + document.size();
  while (true) {
    while (p < end && !IsWordChar(*p)) ++p;
    if (p == end) return;
    const char* const start = p;
    bool capitals = false;
    for (; p < end && IsWordChar(*p); ++p) capitals |= *p <= 'Z' && *p >= 'A';
    std::string_view token(start, size_t(p - start));
    if (capitals) token = folded = ToLower(token);
    if (!IsStopWord(token)) visit(token);
  }
}

std::vector<std::string> Tokenizer::Tokenize(std::string_view document) const {
  std::vector<std::string> out;
  ForEachToken(document, [&out](std::string_view t) { out.emplace_back(t); });
  return out;
}

// ---- query parser ----

void QueryNode::CollectTerms(std::vector<std::string_view>* out) const {
  if (kind == Kind::kTerm) {
    out->push_back(term);
    return;
  }
  for (const auto& c : children) c->CollectTerms(out);
}

namespace {

// A `kind` node over `lhs` and, unless it is a NOT, `rhs`.
std::unique_ptr<QueryNode> MakeNode(QueryNode::Kind kind,
                                    std::unique_ptr<QueryNode> lhs,
                                    std::unique_ptr<QueryNode> rhs = nullptr) {
  auto node = std::make_unique<QueryNode>();
  node->kind = kind;
  node->children.push_back(std::move(lhs));
  if (rhs != nullptr) node->children.push_back(std::move(rhs));
  return node;
}

struct QueryParser {
  std::vector<std::string> tokens;
  size_t pos = 0;
  std::string error;

  const std::string* Peek() const {
    return pos < tokens.size() ? &tokens[pos] : nullptr;
  }
  bool Match(const char* kw) {
    if (pos < tokens.size() && EqualsIgnoreCase(tokens[pos], kw)) {
      ++pos;
      return true;
    }
    return false;
  }

  // or_expr := and_expr (OR and_expr)*
  std::unique_ptr<QueryNode> ParseOr() {
    auto lhs = ParseAnd();
    if (lhs == nullptr) return nullptr;
    while (Match("OR")) {
      auto rhs = ParseAnd();
      if (rhs == nullptr) return nullptr;
      lhs = MakeNode(QueryNode::Kind::kOr, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  // and_expr := unary ((AND)? unary)*   -- adjacency is implicit AND
  std::unique_ptr<QueryNode> ParseAnd() {
    auto lhs = ParseUnary();
    if (lhs == nullptr) return nullptr;
    while (true) {
      bool had_and = Match("AND");
      const std::string* next = Peek();
      if (next == nullptr || EqualsIgnoreCase(*next, "OR") ||
          *next == ")") {
        if (had_and) {
          error = "dangling AND";
          return nullptr;
        }
        break;
      }
      auto rhs = ParseUnary();
      if (rhs == nullptr) return nullptr;
      lhs = MakeNode(QueryNode::Kind::kAnd, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  // unary := NOT unary | ( or_expr ) | term
  std::unique_ptr<QueryNode> ParseUnary() {
    if (Match("NOT")) {
      auto operand = ParseUnary();
      if (operand == nullptr) return nullptr;
      return MakeNode(QueryNode::Kind::kNot, std::move(operand));
    }
    if (Match("(")) {
      auto inner = ParseOr();
      if (inner == nullptr) return nullptr;
      if (!Match(")")) {
        error = "missing ')'";
        return nullptr;
      }
      return inner;
    }
    const std::string* t = Peek();
    if (t == nullptr || *t == ")" || EqualsIgnoreCase(*t, "AND") ||
        EqualsIgnoreCase(*t, "OR")) {
      error = "expected a term";
      return nullptr;
    }
    auto node = std::make_unique<QueryNode>();
    node->kind = QueryNode::Kind::kTerm;
    node->term = ToLower(*t);
    ++pos;
    return node;
  }
};

}  // namespace

std::unique_ptr<QueryNode> ParseTextQuery(const std::string& query,
                                          std::string* error) {
  // Lex: words and parentheses.
  QueryParser parser;
  std::string current;
  auto flush = [&] {
    if (!current.empty()) {
      parser.tokens.push_back(current);
      current.clear();
    }
  };
  for (char c : query) {
    if (IsWordChar(c)) {
      current.push_back(c);
    } else if (c == '(' || c == ')') {
      flush();
      parser.tokens.push_back(std::string(1, c));
    } else {
      flush();
    }
  }
  flush();
  if (parser.tokens.empty()) {
    *error = "empty text query";
    return nullptr;
  }
  auto root = parser.ParseOr();
  if (root == nullptr) {
    *error = parser.error.empty() ? "malformed text query" : parser.error;
    return nullptr;
  }
  if (parser.pos != parser.tokens.size()) {
    *error = "trailing tokens in text query";
    return nullptr;
  }
  return root;
}

}  // namespace exi::text
