// Cooperative-storage fast paths:
//  (a) chunk-level copy-on-write LOB snapshots — a small write to a large
//      LOB inside a transaction copies only the touched chunks for undo,
//      where a whole-LOB snapshot would copy every byte;
//  (b) array ODCI maintenance — a multi-row INSERT is one ODCIIndexInsert
//      call per index, where the same rows as single-row INSERTs make one
//      each, and writes its postings as one sorted run (each key past the
//      held leaf re-descends from the lowest held B+-tree node covering
//      it); B+-tree nodes read are recorded for the per-row and the
//      batched INSERT and for ROLLBACK of the batch.  The same rows go
//      into a table whose only index is a built-in B-tree, which a
//      statement also writes as one sorted run, and its B+-tree nodes read
//      are recorded per-row and batched;
//  (c) planner ODCIStats memoization — a repeated identical query plans
//      with zero ODCIStatsSelectivity/IndexCost calls (V$ODCI_CALLS flat).

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cartridge/text/text_cartridge.h"
#include "core/callback_guard.h"
#include "engine/connection.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

// Sum of traced ODCIStats* calls across all indextypes.
uint64_t StatsCalls(const TracerSnapshot& window) {
  uint64_t calls = 0;
  for (const auto& [key, stats] : window) {
    if (key.second.rfind("ODCIStats", 0) == 0) calls += stats.calls;
  }
  return calls;
}

std::string DocBody(uint64_t i) {
  static const char* kWords[] = {"alpha", "beta",  "gamma", "delta",
                                 "omega", "sigma", "kappa", "theta"};
  return std::string("alpha ") + kWords[i % 8] + " " + kWords[(i / 8) % 8];
}

// One repetition of (a): a 100-byte append and overwrite to a fresh LOB
// of `lob_bytes` inside a transaction, rolled back.
bool CowWrite(uint64_t lob_bytes, Series* series) {
  Database db;
  GuardedServerContext ctx(&db.catalog(), nullptr, CallbackMode::kDefinition);
  Result<LobId> lob = ctx.CreateLob();
  if (!lob.ok() ||
      !ctx.AppendLob(*lob, std::vector<uint8_t>(lob_bytes, 0xAB)).ok() ||
      !db.txns().Begin().ok()) {
    return false;
  }
  ctx.set_transaction(db.txns().current());
  ctx.set_mode(CallbackMode::kMaintenance);
  series->Start();
  if (!ctx.AppendLob(*lob, std::vector<uint8_t>(100, 0xCD)).ok() ||
      !ctx.WriteLob(*lob, 0, std::vector<uint8_t>(100, 0xEF)).ok()) {
    return false;
  }
  series->Stop();
  if (!db.txns().Rollback().ok()) return false;
  ctx.set_transaction(nullptr);
  ctx.set_mode(CallbackMode::kDefinition);
  Result<uint64_t> size = ctx.LobSize(*lob);
  return size.ok() && *size == lob_bytes;
}

// The index of a (b) table: the CREATE INDEX tail, and a predicate that
// every inserted row meets and that the index answers.
struct Indexed {
  const char* create;
  const char* probe;
};
const Indexed kTextIndex{"(body) INDEXTYPE IS TextIndexType",
                         "Contains(body, 'alpha')"};
const Indexed kBtreeIndex{"(id)", "id >= 0"};

// One repetition of (b) on a fresh table with `index`: `rows` single-row
// INSERTs into series[0]; one `rows`-row INSERT into series[1] and its
// ROLLBACK into series[2].
bool InsertRows(const Indexed& index, uint64_t rows, bool batched,
                Series* series) {
  Database db;
  Connection conn(&db);
  if (!text::InstallTextCartridge(&conn).ok()) return false;
  conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR)");
  conn.MustExecute(std::string("CREATE INDEX docs_idx ON docs") +
                   index.create);
  if (!batched) {
    series[0].Start();
    for (uint64_t i = 0; i < rows; ++i) {
      conn.MustExecute("INSERT INTO docs VALUES (" + std::to_string(i) +
                       ", '" + DocBody(i) + "')");
    }
    series[0].Stop();
    return true;
  }
  std::string sql = "INSERT INTO docs VALUES ";
  for (uint64_t i = 0; i < rows; ++i) {
    sql += (i > 0 ? ", (" : "(") + std::to_string(i) + ", '" + DocBody(i) +
           "')";
  }
  conn.MustExecute("BEGIN");
  series[1].Start();
  conn.MustExecute(sql);
  series[1].Stop();
  series[2].Start();
  conn.MustExecute("ROLLBACK");
  series[2].Stop();
  return conn.MustExecute(std::string("SELECT COUNT(*) FROM docs WHERE ") +
                          index.probe)
             .rows[0][0]
             .AsInteger() == 0;
}

}  // namespace

int main() {
  JsonReport report("storage_fastpath",
                    "storage fast paths: COW LOBs, batched DML, stats cache");

  // Deliberately not chunk-aligned so the append lands in a shared
  // partial chunk (the worst case for COW).
  const uint64_t kLobBytes = Scaled((10u << 20) + 1000, (64u << 10) + 100);
  Series cow;
  for (size_t rep = 0; rep < Repetitions(); ++rep) {
    if (!CowWrite(kLobBytes, &cow)) {
      std::fprintf(stderr, "LOB write or rollback failed\n");
      return 1;
    }
  }
  report.AddTimedTable("lob_cow_write",
                       {"lob_bytes", "write_bytes", "snapshot_bytes",
                        "chunks_copied"})
      .Add({kLobBytes, 200, cow.work().lob_snapshot_bytes,
            cow.work().lob_cow_chunks_copied},
           cow);

  const uint64_t kRows = Scaled(1000, 32);
  Series dml[3];
  Series btree[3];
  for (size_t rep = 0; rep < Repetitions(); ++rep) {
    for (auto [index, series] : {std::pair{&kTextIndex, dml},
                                 std::pair{&kBtreeIndex, btree}}) {
      if (!InsertRows(*index, kRows, false, series) ||
          !InsertRows(*index, kRows, true, series)) {
        std::fprintf(stderr, "rollback left index entries behind\n");
        return 1;
      }
    }
  }
  Table& table = report.AddTimedTable(
      "dml", {"statement", "rows", "index_entries_written"});
  const char* statements[] = {"insert_per_row", "insert_batched",
                              "rollback_batch"};
  for (int s = 0; s < 3; ++s) {
    table.Add({statements[s], kRows, dml[s].work().index_entries_written},
              dml[s]);
  }
  report.Add("index_nodes_read_per_row", dml[0].work().index_nodes_read);
  report.Add("index_nodes_read_batched", dml[1].work().index_nodes_read);
  report.Add("index_nodes_read_batch_rollback",
             dml[2].work().index_nodes_read);
  report.Add("btree_nodes_read_per_row", btree[0].work().index_nodes_read);
  report.Add("btree_nodes_read_batched", btree[1].work().index_nodes_read);

  // ---- (c) planner stats memoization on a repeated identical query ----
  Database db;
  Connection conn(&db);
  if (!text::InstallTextCartridge(&conn).ok()) return 1;
  conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR)");
  for (uint64_t i = 0; i < Scaled(500, 32); ++i) {
    conn.MustExecute("INSERT INTO docs VALUES (" + std::to_string(i) + ", '" +
                     DocBody(i) + "')");
  }
  conn.MustExecute(
      "CREATE INDEX docs_idx ON docs(body) INDEXTYPE IS TextIndexType");
  conn.MustExecute("ANALYZE docs");
  Table& planning = report.AddTable("planning", {"run", "stats_calls"});
  for (const char* run : {"first", "repeat"}) {
    TracerSnapshot before = Tracer::Global().Snapshot();
    conn.MustExecute(
        "SELECT COUNT(*) FROM docs WHERE Contains(body, 'alpha')");
    planning.Add(
        {run, StatsCalls(TracerDelta(Tracer::Global().Snapshot(), before))});
  }
  report.Add("stats_cache_hits", db.planner_stats().hits());
  report.Add("stats_cache_entries", db.planner_stats().size());
  return report.Write() ? 0 : 1;
}
