#include "cartridge/text/tokenizer.h"

#include <cctype>

#include "common/strings.h"

namespace exi::text {

void Tokenizer::AddStopWords(const std::vector<std::string>& words) {
  for (const std::string& w : words) stop_words_.insert(ToLower(w));
}

bool Tokenizer::IsStopWord(const std::string& token) const {
  return stop_words_.count(token) > 0;
}

std::vector<std::string> Tokenizer::Tokenize(
    const std::string& document) const {
  std::vector<std::string> out;
  std::string current;
  for (char c : document) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      if (!IsStopWord(current)) out.push_back(current);
      current.clear();
    }
  }
  if (!current.empty() && !IsStopWord(current)) out.push_back(current);
  return out;
}

// ---- query parser ----

std::string QueryNode::ToString() const {
  switch (kind) {
    case Kind::kTerm:
      return term;
    case Kind::kNot:
      return "NOT " + children[0]->ToString();
    case Kind::kAnd:
      return "(" + children[0]->ToString() + " AND " +
             children[1]->ToString() + ")";
    case Kind::kOr:
      return "(" + children[0]->ToString() + " OR " +
             children[1]->ToString() + ")";
  }
  return "?";
}

void QueryNode::CollectTerms(std::vector<std::string>* out) const {
  if (kind == Kind::kTerm) {
    out->push_back(term);
    return;
  }
  for (const auto& c : children) c->CollectTerms(out);
}

namespace {

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
      auto node = std::make_unique<QueryNode>();
      node->kind = QueryNode::Kind::kOr;
      node->children.push_back(std::move(lhs));
      node->children.push_back(std::move(rhs));
      lhs = std::move(node);
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
      auto node = std::make_unique<QueryNode>();
      node->kind = QueryNode::Kind::kAnd;
      node->children.push_back(std::move(lhs));
      node->children.push_back(std::move(rhs));
      lhs = std::move(node);
    }
    return lhs;
  }

  // unary := NOT unary | ( or_expr ) | term
  std::unique_ptr<QueryNode> ParseUnary() {
    if (Match("NOT")) {
      auto operand = ParseUnary();
      if (operand == nullptr) return nullptr;
      auto node = std::make_unique<QueryNode>();
      node->kind = QueryNode::Kind::kNot;
      node->children.push_back(std::move(operand));
      return node;
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
    if (std::isalnum(static_cast<unsigned char>(c))) {
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
