// Partitioned tables with LOCAL domain indexes (DESIGN.md §7):
//  (a) static partition pruning — a partition-key predicate cuts the rows a
//      scan fetches near-linearly with the surviving-partition fraction
//      (1 of 4 partitions surviving fetches ~4x fewer rows);
//  (b) pruning composes with LOCAL domain-index scans — only surviving
//      slices are opened;
//  (c) partition-level maintenance is O(1) — DROP PARTITION detaches one
//      index slice per local index (one ODCIIndexDrop, zero per-row
//      index maintenance) where the equivalent DELETE pays per-row
//      maintenance across the whole partition.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cartridge/text/text_cartridge.h"
#include "engine/connection.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

constexpr int kPartitions = 4;

// docs(id, body) split into kPartitions equal ranges of `rows` ids, with a
// LOCAL text index; every body carries the term 'common'.
void BuildPartitionedDocs(Connection* conn, uint64_t rows) {
  uint64_t per_part = rows / kPartitions;
  std::string ddl = "CREATE TABLE docs (id INTEGER, body VARCHAR(64)) "
                    "PARTITION BY RANGE (id) (";
  for (int p = 0; p < kPartitions; ++p) {
    if (p > 0) ddl += ", ";
    ddl += "PARTITION p" + std::to_string(p) + " VALUES LESS THAN (";
    ddl += p + 1 == kPartitions ? "MAXVALUE"
                                : std::to_string(per_part * (p + 1));
    ddl += ")";
  }
  ddl += ")";
  conn->MustExecute(ddl);
  const uint64_t kChunk = 512;
  for (uint64_t base = 0; base < rows; base += kChunk) {
    std::string sql = "INSERT INTO docs VALUES ";
    uint64_t end = base + kChunk < rows ? base + kChunk : rows;
    for (uint64_t i = base; i < end; ++i) {
      if (i > base) sql += ", ";
      sql += "(" + std::to_string(i) + ", 'common t" +
             std::to_string(i % 97) + "')";
    }
    conn->MustExecute(sql);
  }
  conn->MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
  conn->MustExecute("ANALYZE docs");
}

// Index rows maintained one by one or in batches in `m`: the rows every
// maintenance call covered.
uint64_t RowMaintenance(const StorageMetrics& m) {
  return m.odci_maintenance_calls - m.odci_batch_maintenance_calls +
         m.odci_batch_maintenance_rows;
}

}  // namespace

int main() {
  const uint64_t kRows = Scaled(8000, 64);
  const uint64_t kPerPart = kRows / kPartitions;
  JsonReport report("partition",
                    "partition pruning and O(1) partition maintenance");
  report.Add("rows", kRows);
  report.Add("partitions", kPartitions);

  // ---- (a) seq-scan sweep over 1..4 surviving partitions, and (b) a
  // LOCAL domain-index scan under the 1-partition key predicate ----
  {
    Database db;
    Connection conn(&db);
    if (!text::InstallTextCartridge(&conn).ok()) return 1;
    BuildPartitionedDocs(&conn, kRows);
    std::vector<std::string> queries;
    for (int k = 1; k <= kPartitions; ++k) {
      // id < k * kPerPart keeps the first k partitions.
      queries.push_back("SELECT COUNT(*) FROM docs WHERE id < " +
                        std::to_string(kPerPart * k) + " AND id >= 0");
    }
    queries.push_back(
        "SELECT COUNT(*) FROM docs WHERE Contains(body, 'common') AND id < " +
        std::to_string(kPerPart));
    std::vector<std::function<void()>> runs;
    for (const std::string& q : queries) {
      runs.push_back([&conn, q] { conn.MustExecute(q); });
    }
    std::vector<Series> times = TimeAlternating(runs);
    Table& table = report.AddTimedTable(
        "scans", {"scan", "surviving", "partitions_scanned",
                  "partitions_pruned"});
    for (int k = 0; k <= kPartitions; ++k) {
      const StorageMetrics& work = times[k].work();
      table.Add({k < kPartitions ? "seq_scan" : "local_text_index",
                 k < kPartitions ? k + 1 : 1, work.partitions_scanned,
                 work.partitions_pruned},
                times[k]);
    }
    report.Add("pruned_fetch_reduction_x",
               double(LogicalReads(times[kPartitions - 1].work())) /
                   double(std::max<uint64_t>(
                       1, LogicalReads(times[0].work()))));
  }

  // ---- (c) DROP PARTITION vs row-wise DELETE of the same rows ----
  const std::string removals[] = {
      "DELETE FROM docs WHERE id >= " + std::to_string(kPerPart) +
          " AND id < " + std::to_string(2 * kPerPart),
      "ALTER TABLE docs DROP PARTITION p1"};
  Series series[2];
  uint64_t odci_drops[2] = {0, 0};
  for (size_t rep = 0; rep < Repetitions(); ++rep) {
    for (int m = 0; m < 2; ++m) {
      Database db;
      Connection conn(&db);
      if (!text::InstallTextCartridge(&conn).ok()) return 1;
      BuildPartitionedDocs(&conn, kRows);
      TracerSnapshot before = Tracer::Global().Snapshot();
      series[m].Start();
      conn.MustExecute(removals[m]);
      series[m].Stop();
      odci_drops[m] = 0;
      for (const auto& [key, stats] :
           TracerDelta(Tracer::Global().Snapshot(), before)) {
        if (key.second == "ODCIIndexDrop") odci_drops[m] += stats.calls;
      }
    }
  }
  Table& table = report.AddTimedTable(
      "remove_partition_rows",
      {"method", "rows", "row_maintenance", "odci_drops"});
  const char* methods[] = {"delete", "drop_partition"};
  for (int m = 0; m < 2; ++m) {
    table.Add({methods[m], kPerPart, RowMaintenance(series[m].work()),
               odci_drops[m]},
              series[m]);
  }
  return report.Write() ? 0 : 1;
}
