// Cooperative-storage fast paths (PR 3):
//  (a) chunk-level copy-on-write LOB snapshots — a small write to a large
//      LOB inside a transaction copies only the touched chunks for undo,
//      where the old implementation deep-copied the whole LOB;
//  (b) array ODCI maintenance — a multi-row INSERT is one ODCIIndexInsert
//      call per index, where the same rows as single-row INSERTs make one
//      each, and writes its postings as one sorted run (each key past the
//      held leaf re-descends from the lowest held B+-tree node covering
//      it); B+-tree nodes read are recorded for the per-row
//      and the batched INSERT and for ROLLBACK of the batch, times over
//      repeats;
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
  std::string body = "alpha";
  body += " ";
  body += kWords[i % 8];
  body += " ";
  body += kWords[(i / 8) % 8];
  return body;
}

}  // namespace

int main() {
  JsonReport report("storage_fastpath");
  Header("storage fast path: COW snapshots, batched maintenance, stats cache");

  // ---- (a) COW LOB snapshots under rollback ----
  {
    Database db;
    GuardedServerContext ctx(&db.catalog(), nullptr,
                             CallbackMode::kDefinition);
    Result<LobId> lob = ctx.CreateLob();
    if (!lob.ok()) return 1;
    // Deliberately not chunk-aligned so the append lands in a shared
    // partial chunk (the worst case for COW).
    const uint64_t kLobBytes = Scaled((10u << 20) + 1000, (64u << 10) + 100);
    if (!ctx.AppendLob(*lob, std::vector<uint8_t>(kLobBytes, 0xAB)).ok()) {
      return 1;
    }

    if (!db.txns().Begin().ok()) return 1;
    ctx.set_transaction(db.txns().current());
    ctx.set_mode(CallbackMode::kMaintenance);
    MetricsWindow window;
    Timer timer;
    const uint64_t kAppendBytes = 100;
    if (!ctx.AppendLob(*lob, std::vector<uint8_t>(kAppendBytes, 0xCD)).ok() ||
        !ctx.WriteLob(*lob, 0, std::vector<uint8_t>(kAppendBytes, 0xEF))
             .ok()) {
      return 1;
    }
    StorageMetrics delta = window.Delta();
    int64_t write_us = timer.ElapsedUs();
    if (!db.txns().Rollback().ok()) return 1;
    ctx.set_transaction(nullptr);
    ctx.set_mode(CallbackMode::kDefinition);

    Result<uint64_t> size = ctx.LobSize(*lob);
    if (!size.ok() || *size != kLobBytes) {
      std::fprintf(stderr, "rollback did not restore LOB size\n");
      return 1;
    }
    // The old Snapshot/Restore deep-copied the full contents on first
    // touch; under COW only the physically-cloned chunk bytes count.
    uint64_t cow_bytes = delta.lob_snapshot_bytes;
    double reduction =
        double(kLobBytes) / double(cow_bytes == 0 ? 1 : cow_bytes);
    std::printf(
        "(a) LOB %llu bytes, %llu-byte append + overwrite in txn:\n"
        "    undo copy bytes: full=%llu cow=%llu (%.0fx less), "
        "chunks copied=%llu, write_us=%lld\n",
        (unsigned long long)kLobBytes, (unsigned long long)kAppendBytes,
        (unsigned long long)kLobBytes, (unsigned long long)cow_bytes,
        reduction, (unsigned long long)delta.lob_cow_chunks_copied,
        (long long)write_us);
    report.Add("lob_size_bytes", kLobBytes);
    report.Add("small_write_bytes", kAppendBytes * 2);
    report.Add("rollback_copy_bytes_full_snapshot", kLobBytes);
    report.Add("rollback_copy_bytes_cow", cow_bytes);
    report.Add("rollback_copy_reduction_x", reduction);
    report.Add("cow_chunks_copied", delta.lob_cow_chunks_copied);
  }

  // ---- (b) batched maintenance: 1000 x INSERT vs 1 x 1000-row INSERT,
  //      then ROLLBACK of the batch ----
  {
    const uint64_t kRows = Scaled(1000, 32);
    const size_t kRepeats = Scaled(7, 1);
    // Work counts are the same in every repeat; times are kept per repeat.
    StorageMetrics serial;
    StorageMetrics batch;
    StorageMetrics rollback;
    std::vector<int64_t> serial_us;
    std::vector<int64_t> batch_us;
    std::vector<int64_t> rollback_us;
    for (size_t rep = 0; rep < kRepeats; ++rep) {
      for (bool batched : {false, true}) {
        Database db;
        Connection conn(&db);
        if (!text::InstallTextCartridge(&conn).ok()) return 1;
        conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR)");
        conn.MustExecute(
            "CREATE INDEX docs_idx ON docs(body) "
            "INDEXTYPE IS TextIndexType");
        if (!batched) {
          MetricsWindow window;
          Timer timer;
          for (uint64_t i = 0; i < kRows; ++i) {
            conn.MustExecute("INSERT INTO docs VALUES (" +
                             std::to_string(i) + ", '" + DocBody(i) + "')");
          }
          serial_us.push_back(timer.ElapsedUs());
          serial = window.Delta();
          continue;
        }
        std::string sql = "INSERT INTO docs VALUES ";
        for (uint64_t i = 0; i < kRows; ++i) {
          if (i > 0) sql += ", ";
          sql += "(" + std::to_string(i) + ", '" + DocBody(i) + "')";
        }
        conn.MustExecute("BEGIN");
        MetricsWindow window;
        Timer timer;
        conn.MustExecute(sql);
        batch_us.push_back(timer.ElapsedUs());
        batch = window.Delta();
        MetricsWindow undo_window;
        timer.Reset();
        conn.MustExecute("ROLLBACK");
        rollback_us.push_back(timer.ElapsedUs());
        rollback = undo_window.Delta();
        if (conn.MustExecute("SELECT COUNT(*) FROM docs WHERE "
                             "Contains(body, 'alpha')")
                .rows[0][0]
                .AsInteger() != 0) {
          std::fprintf(stderr, "rollback left postings behind\n");
          return 1;
        }
      }
    }
    const uint64_t serial_calls = serial.odci_maintenance_calls;
    const uint64_t batch_calls = batch.odci_maintenance_calls;
    double call_reduction =
        double(serial_calls) / double(batch_calls == 0 ? 1 : batch_calls);
    Spread<int64_t> serial_t = SpreadOf(serial_us);
    Spread<int64_t> batch_t = SpreadOf(batch_us);
    Spread<int64_t> rollback_t = SpreadOf(rollback_us);
    std::printf(
        "(b) %llu rows, %zu repeats, median [min-max] us:\n"
        "    per-row: %llu maintenance calls, %llu index nodes read, "
        "%lld [%lld-%lld]\n"
        "    batched: %llu calls, %llu index nodes read, %lld [%lld-%lld]\n"
        "    rollback of the batch: %llu index nodes read, %lld [%lld-%lld]\n",
        (unsigned long long)kRows, kRepeats, (unsigned long long)serial_calls,
        (unsigned long long)serial.index_nodes_read,
        (long long)serial_t.median, (long long)serial_t.min,
        (long long)serial_t.max, (unsigned long long)batch_calls,
        (unsigned long long)batch.index_nodes_read,
        (long long)batch_t.median, (long long)batch_t.min,
        (long long)batch_t.max,
        (unsigned long long)rollback.index_nodes_read,
        (long long)rollback_t.median, (long long)rollback_t.min,
        (long long)rollback_t.max);
    report.Add("dml_rows", kRows);
    report.Add("repeats", uint64_t(kRepeats));
    report.Add("maintenance_calls_per_row", serial_calls);
    report.Add("maintenance_calls_batched", batch_calls);
    report.Add("maintenance_call_reduction_x", call_reduction);
    report.Add("rows_per_maintenance_call",
               double(kRows) / double(batch_calls == 0 ? 1 : batch_calls));
    report.Add("index_entries_written_per_row", serial.index_entries_written);
    report.Add("index_entries_written_batched", batch.index_entries_written);
    report.Add("index_nodes_read_per_row", serial.index_nodes_read);
    report.Add("index_nodes_read_batched", batch.index_nodes_read);
    report.Add("index_nodes_read_batch_rollback", rollback.index_nodes_read);
    report.Add("serial_dml_us", serial_t.median);
    report.Add("serial_dml_us_min", serial_t.min);
    report.Add("serial_dml_us_max", serial_t.max);
    report.Add("batched_dml_us", batch_t.median);
    report.Add("batched_dml_us_min", batch_t.min);
    report.Add("batched_dml_us_max", batch_t.max);
    report.Add("batch_rollback_us", rollback_t.median);
    report.Add("batch_rollback_us_min", rollback_t.min);
    report.Add("batch_rollback_us_max", rollback_t.max);
  }

  // ---- (c) planner stats memoization on a repeated identical query ----
  {
    Database db;
    Connection conn(&db);
    if (!text::InstallTextCartridge(&conn).ok()) return 1;
    conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR)");
    const uint64_t kDocs = Scaled(500, 32);
    for (uint64_t i = 0; i < kDocs; ++i) {
      conn.MustExecute("INSERT INTO docs VALUES (" + std::to_string(i) +
                       ", '" + DocBody(i) + "')");
    }
    conn.MustExecute(
        "CREATE INDEX docs_idx ON docs(body) INDEXTYPE IS TextIndexType");
    conn.MustExecute("ANALYZE docs");
    const std::string query =
        "SELECT COUNT(*) FROM docs WHERE Contains(body, 'alpha')";

    TracerSnapshot before = Tracer::Global().Snapshot();
    conn.MustExecute(query);
    TracerSnapshot mid = Tracer::Global().Snapshot();
    conn.MustExecute(query);
    TracerSnapshot after = Tracer::Global().Snapshot();

    uint64_t first_run = StatsCalls(TracerDelta(mid, before));
    uint64_t second_run = StatsCalls(TracerDelta(after, mid));
    std::printf(
        "(c) repeated identical query: ODCIStats calls first=%llu "
        "second=%llu (cache hits=%llu)\n",
        (unsigned long long)first_run, (unsigned long long)second_run,
        (unsigned long long)db.planner_stats().hits());
    report.Add("planning_stats_calls_first_run", first_run);
    report.Add("planning_stats_calls_repeat_run", second_run);
    report.Add("stats_cache_hits", db.planner_stats().hits());
    report.Add("stats_cache_entries", uint64_t(db.planner_stats().size()));
  }

  return report.Write() ? 0 : 1;
}
