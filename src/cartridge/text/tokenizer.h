#ifndef EXTIDX_CARTRIDGE_TEXT_TOKENIZER_H_
#define EXTIDX_CARTRIDGE_TEXT_TOKENIZER_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/function_ref.h"

namespace exi::text {

// Lexical analyzer for the text cartridge.  Configured by the domain
// index's PARAMETERS string (§2.3): ':Language English' selects the
// analyzer (case folding rules) and ':Ignore the a an' the stop-word list,
// exactly the example the paper gives.
class Tokenizer {
 public:
  Tokenizer() = default;
  Tokenizer(std::string language,
            std::set<std::string, std::less<>> stop_words)
      : language_(std::move(language)), stop_words_(std::move(stop_words)) {}

  void AddStopWords(const std::vector<std::string>& words);

  // Visits the lower-cased alphanumeric tokens of `document` in order,
  // stop words removed, each as a view valid only during its visit: into
  // `document`, or into a lower-cased copy of a token with capitals.
  void ForEachToken(std::string_view document,
                    FunctionRef<void(std::string_view)> visit) const;

  // ForEachToken's tokens, copied.
  std::vector<std::string> Tokenize(std::string_view document) const;

  bool IsStopWord(std::string_view token) const;

 private:
  std::string language_ = "English";
  std::set<std::string, std::less<>> stop_words_;
};

// Boolean keyword query over the inverted index, e.g. 'Oracle AND UNIX',
// '(java OR python) AND NOT cobol'.  AND binds tighter than OR; NOT is a
// prefix operator; bare adjacency is implicit AND.
struct QueryNode {
  enum class Kind { kTerm, kAnd, kOr, kNot };
  Kind kind;
  std::string term;                          // kTerm
  std::vector<std::unique_ptr<QueryNode>> children;

  // Collects the terms of the query's leaves, in depth-first order.
  void CollectTerms(std::vector<std::string_view>* out) const;
};

// Parses a keyword query; tokens are case-folded like document tokens.
// Returns an error status message via nullptr + `error` out-param style is
// avoided; a malformed query yields a null node and `*error` is set.
std::unique_ptr<QueryNode> ParseTextQuery(const std::string& query,
                                          std::string* error);

}  // namespace exi::text

#endif  // EXTIDX_CARTRIDGE_TEXT_TOKENIZER_H_
