#ifndef EXTIDX_CARTRIDGE_TEXT_LEGACY_TEXT_H_
#define EXTIDX_CARTRIDGE_TEXT_LEGACY_TEXT_H_

#include <functional>
#include <string>

#include "common/result.h"
#include "engine/database.h"

namespace exi::text {

// Pre-Oracle8i two-step text query evaluation (§3.2.1) — the baseline the
// extensible-indexing integration is measured against in experiment E1:
//
//   1. Evaluate the text predicate against the inverted index, writing
//      every matching rowid into a temporary result table.
//   2. Rewrite the query as a join of the base table with the temporary
//      table ("SELECT d.* FROM docs d, results r WHERE d.rowid = r.rid")
//      and only then return rows.
//
// Step 1 reads the same posting and universe sources as the 8i-style
// domain-index scan (MakePostingSource / MakeUniverseSource), so the two
// strategies give the same answers and differ only in execution shape:
// materialization + join versus pipelined fetches.  Temporary-table
// traffic is metered in StorageMetrics (temp_rows_written /
// temp_rows_read).
//
// `on_row` is invoked for each result row as soon as the strategy can
// produce it — for this legacy path, only after step 1 fully completes,
// which is what experiment E2 (time to first row) measures.
Status LegacyTextQuery(
    Database* db, const std::string& index_name, const std::string& query,
    const std::function<void(RowId, const Row&)>& on_row);

}  // namespace exi::text

#endif  // EXTIDX_CARTRIDGE_TEXT_LEGACY_TEXT_H_
