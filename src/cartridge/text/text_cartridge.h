#ifndef EXTIDX_CARTRIDGE_TEXT_TEXT_CARTRIDGE_H_
#define EXTIDX_CARTRIDGE_TEXT_TEXT_CARTRIDGE_H_

#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "cartridge/index_methods.h"
#include "cartridge/params.h"
#include "cartridge/text/inverted_index.h"
#include "cartridge/text/tokenizer.h"
#include "engine/connection.h"

namespace exi::text {

// The sources a text query over index `info` reads, whichever way it runs
// (EvaluateTextQuery): postings come off the index's IOT, but a stop word
// of `tokenizer`, which the IOT does not hold, is read from the base table
// as TextContains reads it; NOT ranges over the rows whose indexed value
// is not NULL, as Contains over NULL is never TRUE.  So every plan gives
// the functional answer.
PostingSource MakePostingSource(const OdciIndexInfo& info,
                                const Tokenizer& tokenizer,
                                ServerContext& ctx);
UniverseSource MakeUniverseSource(const OdciIndexInfo& info,
                                  ServerContext& ctx);

// The interMedia-Text-style cartridge (§3.2.1): full-text indexing of
// VARCHAR columns with a user-defined Contains operator evaluated either
// functionally (per row) or through a domain-index scan over an inverted
// index held in an index-organized table.
//
// PARAMETERS understood (all optional):
//   :Language <name>         lexical analyzer tag (default English)
//   :Ignore <w1> <w2> ...    stop words (accumulates across ALTER INDEX)
//   :ContextMode handle|state   scan-context mechanism (§2.2.3; default
//                               handle).  `state` serializes the remaining
//                               result set through the context object on
//                               every Fetch — the Return State mechanism.
//   :Mode precompute|incremental  scan strategy (§2.2.3; default
//                               precompute).  `incremental` streams
//                               single-term queries directly off the IOT
//                               cursor, fetching candidates a batch at a
//                               time; multi-term queries fall back to
//                               precompute.
class TextIndexMethods : public IndexMethods {
 public:
  // Start/Fetch/Close touch no mutable cartridge state, so scans may run
  // in parallel (DESIGN.md §5).
  OdciCapabilities Capabilities() const override {
    return {.parallel_scan = true};
  }

  const char* TraceLabel() const override { return "text"; }

  // ---- definition ----
  Status Create(const OdciIndexInfo& info, ServerContext& ctx) override;
  Status Alter(const OdciIndexInfo& info, ServerContext& ctx) override;
  Status Truncate(const OdciIndexInfo& info, ServerContext& ctx) override;
  Status Drop(const OdciIndexInfo& info, ServerContext& ctx) override;

  // ---- maintenance ----
  // Array maintenance (§2.2.3 extension): one parameter parse + one
  // tokenizer for the statement's rows, then one sorted run of postings.
  Status BatchInsert(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& new_values, ServerContext& ctx) override;
  Status BatchDelete(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& old_values, ServerContext& ctx) override;

  // ---- scan ----
  Result<OdciScanContext> Start(const OdciIndexInfo& info,
                                const OdciPredInfo& pred,
                                ServerContext& ctx) override;
  // Serves the incremental cursor and the Return State context; a parked
  // result set goes to IndexMethods::Fetch.
  Status Fetch(const OdciIndexInfo& info, OdciScanContext& sctx,
               size_t max_rows, OdciFetchBatch* out,
               ServerContext& ctx) override;

  // Parses the cartridge parameter conventions (exposed for tests).
  static IndexParameters ParseParams(const std::string& text);
  static Tokenizer MakeTokenizer(const IndexParameters& params);

 private:
  // Gathers the postings of `values` (NULLs skipped) in the collector
  // Rebuild uses, and makes one IotMergeSorted run over its (token, block)
  // groups' keys: each block is read where the run's held path already is
  // and merged with the call's postings by MergePostingBlock (added, or
  // removed when `insert` is false), or deleted once empty.
  // Both array routines come here, so a one-row call writes the blocks of
  // that row alone.
  Status WritePostings(const OdciIndexInfo& info, std::span<const RowId> rids,
                       std::span<const Value> values, bool insert,
                       ServerContext& ctx);
  // Fills the empty posting table from the base table with one sorted
  // IotBulkLoad of block rows, encoded from the same collector's groups
  // (Create, and Alter after truncating).
  Status Rebuild(const OdciIndexInfo& info, ServerContext& ctx);
};

// Optimizer statistics for TextIndexType: term-document-frequency-based
// selectivity and posting-scan cost (ODCIStatsSelectivity /
// ODCIStatsIndexCost, §2.4.2).
class TextStats : public OdciStats {
 public:
  Result<double> Selectivity(const OdciIndexInfo& info,
                             const OdciPredInfo& pred, uint64_t table_rows,
                             ServerContext& ctx) override;
  Result<double> IndexCost(const OdciIndexInfo& info,
                           const OdciPredInfo& pred, double selectivity,
                           uint64_t table_rows, ServerContext& ctx) override;

 private:
  // The term dfs the last Selectivity read, keyed by slice and query: the
  // engine asks IndexCost for the same next, which takes them.
  std::mutex memo_mu_;
  std::string memo_key_;
  std::vector<uint64_t> memo_dfs_;
};

// Registers the C++ hooks (TextContains function, TextIndexMethods
// implementation type) and executes the cartridge DDL:
//   CREATE OPERATOR Contains BINDING (VARCHAR, VARCHAR) RETURN BOOLEAN
//     USING TextContains;
//   CREATE INDEXTYPE TextIndexType FOR Contains(VARCHAR, VARCHAR)
//     USING TextIndexMethods;
Status InstallTextCartridge(Connection* conn);

}  // namespace exi::text

#endif  // EXTIDX_CARTRIDGE_TEXT_TEXT_CARTRIDGE_H_
