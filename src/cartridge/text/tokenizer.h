#ifndef EXTIDX_CARTRIDGE_TEXT_TOKENIZER_H_
#define EXTIDX_CARTRIDGE_TEXT_TOKENIZER_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

namespace exi::text {

// Lexical analyzer for the text cartridge.  Configured by the domain
// index's PARAMETERS string (§2.3): ':Language English' selects the
// analyzer (case folding rules) and ':Ignore the a an' the stop-word list,
// exactly the example the paper gives.
class Tokenizer {
 public:
  Tokenizer() = default;
  Tokenizer(std::string language, std::set<std::string> stop_words)
      : language_(std::move(language)), stop_words_(std::move(stop_words)) {}

  const std::string& language() const { return language_; }
  const std::set<std::string>& stop_words() const { return stop_words_; }

  void AddStopWords(const std::vector<std::string>& words);

  // Lower-cased alphanumeric tokens in document order, stop words removed.
  std::vector<std::string> Tokenize(const std::string& document) const;

  bool IsStopWord(const std::string& token) const;

 private:
  std::string language_ = "English";
  std::set<std::string> stop_words_;
};

// Boolean keyword query over the inverted index, e.g. 'Oracle AND UNIX',
// '(java OR python) AND NOT cobol'.  AND binds tighter than OR; NOT is a
// prefix operator; bare adjacency is implicit AND.
struct QueryNode {
  enum class Kind { kTerm, kAnd, kOr, kNot };
  Kind kind;
  std::string term;                          // kTerm
  std::vector<std::unique_ptr<QueryNode>> children;

  std::string ToString() const;

  // Collects the terms appearing anywhere in the query.
  void CollectTerms(std::vector<std::string>* out) const;
};

// Parses a keyword query; tokens are case-folded like document tokens.
// Returns an error status message via nullptr + `error` out-param style is
// avoided; a malformed query yields a null node and `*error` is set.
std::unique_ptr<QueryNode> ParseTextQuery(const std::string& query,
                                          std::string* error);

}  // namespace exi::text

#endif  // EXTIDX_CARTRIDGE_TEXT_TOKENIZER_H_
