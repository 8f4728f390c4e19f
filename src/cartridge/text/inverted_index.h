#ifndef EXTIDX_CARTRIDGE_TEXT_INVERTED_INDEX_H_
#define EXTIDX_CARTRIDGE_TEXT_INVERTED_INDEX_H_

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cartridge/text/tokenizer.h"
#include "common/function_ref.h"
#include "common/result.h"
#include "index/key.h"
#include "types/schema.h"
#include "types/value.h"

namespace exi::text {

// The inverted index is stored cooperatively in an index-organized table
// (§3.2.1: "The inverted index is stored in an index-organized table"),
// one row per term and block of kPostingBlockRids rowids:
//
//   <index_name>$ptab (token VARCHAR, block INTEGER, df INTEGER,
//                      postings BLOB)
//       PRIMARY KEY (token, block)
//
// `block` is rid / kPostingBlockRids, so a LOCAL rid's segment bits stay
// in it.  `df` is the number of the block's postings, and `postings`
// holds them as ascending (rid delta, freq) pairs of LEB128 varints, the
// first delta taken from the block's first rowid.  The encoding is
// canonical: equal postings give equal bytes, however they were written.
// A block with no postings has no row.
//
// Both the 8i-style cartridge (text_cartridge) and the pre-8i baseline
// (legacy_text) evaluate queries against this layout through a
// PostingSource abstraction, so comparisons measure execution strategy,
// not index content.

inline std::string PostingTableName(const std::string& index_name) {
  return index_name + "$ptab";
}

Schema PostingTableSchema();
inline constexpr size_t kPostingKeyColumns = 2;

// Rowids per posting block.  Larger blocks mean fewer rows but more
// bytes rewritten per maintained block: at 1,024, the 10k-document
// text_ingest corpus keeps about 48k blocks for 507k postings.
inline constexpr RowId kPostingBlockRids = 1024;

inline int64_t PostingBlock(RowId rid) {
  return int64_t(rid / kPostingBlockRids);
}

// One document's entry in a term's posting list.
struct Posting {
  RowId rid;
  int64_t freq;
};

// The block row holding `postings` of `token`: they are non-empty, their
// rids strictly ascend and all lie in `block`, and each freq is >= 1.
Row EncodePostingBlock(const Value& token, int64_t block,
                       std::span<const Posting> postings);

// The block row `token`'s postings in `block` are to have after
// `changes`, given the stored row `current` (nullptr if none): changes'
// rids strictly ascend and lie in the block.  An insert adds each change
// or replaces the freq of a stored rid; a delete removes each change's
// rid and returns NotFound for one the block does not hold.  Returns
// nullopt for a block left empty, and an error for a malformed `current`.
// Stored postings whose predecessor is unchanged keep their bytes, so
// rids appended past the last cost a copy of the block and their own
// bytes; the result is the bytes EncodePostingBlock gives.
Result<std::optional<Row>> MergePostingBlock(const Row* current,
                                             const Value& token,
                                             int64_t block,
                                             std::span<const Posting> changes,
                                             bool insert);

// Walks a block row's postings in rid order, checking each one: the one
// decoder, behind DecodePostingBlock, MergePostingBlock and the
// incremental scan, which resumes it across Fetch calls.  It reads `row`
// in place, so the row must outlive it.
class BlockCursor {
 public:
  explicit BlockCursor(const Row& row) : row_(row) {}

  // Checks the row's columns; Next may be called only after it succeeds.
  Status Open();

  const std::vector<uint8_t>& bytes() const { return *bytes_; }
  RowId base() const { return base_; }

  // Reads the next posting into rid(), freq() and its byte range
  // [begin(), end()).  False at the end of the bytes, or on a fault, which
  // sets `*status`.
  bool Next(Status* status);

  RowId rid() const { return base_ + offset_; }
  int64_t freq() const { return freq_; }
  size_t begin() const { return begin_; }
  size_t end() const { return end_; }

  // Once Next has returned false without a fault: checks that df is the
  // number of postings read.
  Status CheckDf() const;

 private:
  const Row& row_;
  const std::vector<uint8_t>* bytes_ = nullptr;
  RowId base_ = 0;
  uint64_t offset_ = 0;  // of the last rid read, within the block
  int64_t freq_ = 0;
  int64_t count_ = 0;
  size_t begin_ = 0;
  size_t end_ = 0;
};

// Visits the postings of one block row in rid order until `visit` returns
// false.  Every reader of the posting IOT decodes through BlockCursor.  A row
// that is not a well-formed block (wrong column types, a truncated or
// overlong varint, a rid outside the block or out of order, a freq below
// 1, or, once every posting is visited, a df other than their number)
// returns an error and visits nothing after the fault.
Status DecodePostingBlock(const Row& row,
                          FunctionRef<bool(RowId, int64_t)> visit);

// Visits (rid, freq) pairs of one term's posting list.
using PostingVisitor = std::function<bool(RowId, int64_t)>;
// Supplies the posting list of a term, in ascending rid order.
using PostingSource =
    std::function<Status(const std::string& term, const PostingVisitor&)>;
// Supplies all document rowids, ascending (needed only for NOT).
using UniverseSource = std::function<Status(std::vector<RowId>*)>;

// Visits the posting IOT's rows whose key starts with `prefix`, in key
// order, until the visitor returns false.
using PostingRowScan = std::function<Status(
    const CompositeKey& prefix, FunctionRef<bool(const Row&)> visit)>;

// The PostingSource that decodes the blocks `scan` visits for a term.
PostingSource BlockPostingSource(PostingRowScan scan);

// A document matching a text query, with an additive term-frequency score
// (surfaced as the scan's ancillary value, §2.4.2 ancillary operators).
struct TextMatch {
  RowId rid;
  int64_t score;
};

// Evaluates a boolean keyword query against posting lists.  Results are
// sorted by rid.  NOT consumes the universe exactly once per NOT node.
Result<std::vector<TextMatch>> EvaluateTextQuery(
    const QueryNode& root, const PostingSource& postings,
    const UniverseSource& universe);

// Evaluates the query against a single document (the functional
// implementation path of Contains, §2.2.1): one pass over its tokens marks
// the query terms it holds, then the query is evaluated over the marks.
bool MatchesDocument(const QueryNode& root, const Tokenizer& tokenizer,
                     std::string_view document);

}  // namespace exi::text

#endif  // EXTIDX_CARTRIDGE_TEXT_INVERTED_INDEX_H_
