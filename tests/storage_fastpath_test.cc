// Cooperative-storage fast-path tests (PR 3):
//  * chunk-level COW LOB snapshots must keep Restore semantics byte-exact
//    under rollback while copying only the touched chunks;
//  * ODCI maintenance must route each DML statement through one
//    ODCIIndexInsert / Delete / Update call per index, for cartridges with
//    array routines and for those with per-row routines only, and produce
//    index contents identical to per-row maintenance for both the text and
//    chem cartridges (text writes each statement as one sorted posting
//    run, and ROLLBACK restores it exactly);
//  * the planner stats cache must eliminate planning-time ODCIStats calls
//    for repeated identical queries and invalidate on DML and rollback.
//
// The Tracer and GlobalMetrics are process-wide; tests that assert exact
// counts reset the tracer first and run serially within this binary.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cartridge/chem/chem_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "common/metrics.h"
#include "common/tracer.h"
#include "core/callback_guard.h"
#include "engine/connection.h"
#include "posting_rows.h"
#include "storage/lob_store.h"
#include "test_cartridges.h"

namespace exi {
namespace {

// V$ODCI_CALLS row for `routine`: {calls, errors}, zeros if absent.
std::pair<int64_t, int64_t> ViewCallsErrors(Connection* conn,
                                            const std::string& routine) {
  QueryResult r = conn->MustExecute(
      "SELECT calls, errors FROM v$odci_calls WHERE routine = '" + routine +
      "'");
  int64_t calls = 0;
  int64_t errors = 0;
  for (const Row& row : r.rows) {
    calls += row[0].AsInteger();
    errors += row[1].AsInteger();
  }
  return {calls, errors};
}

int64_t ViewCalls(Connection* conn, const std::string& routine) {
  return ViewCallsErrors(conn, routine).first;
}

// Sorted first-column integers of a SELECT — for comparing index-backed
// result sets across databases.
std::vector<int64_t> SortedIds(Connection* conn, const std::string& sql) {
  QueryResult r = conn->MustExecute(sql);
  std::vector<int64_t> ids;
  for (const Row& row : r.rows) ids.push_back(row[0].AsInteger());
  std::sort(ids.begin(), ids.end());
  return ids;
}

uint64_t PlanningStatsCalls() {
  uint64_t calls = 0;
  for (const auto& [key, stats] : Tracer::Global().Snapshot()) {
    if (key.second.rfind("ODCIStats", 0) == 0) calls += stats.calls;
  }
  return calls;
}

// ---- COW LOB snapshots ----

TEST(CowLobSnapshotTest, RollbackRestoresExactContentsAfterPartialWrites) {
  Database db;
  GuardedServerContext ctx(&db.catalog(), nullptr, CallbackMode::kDefinition);
  ASSERT_TRUE(db.txns().Begin().ok());
  ctx.set_transaction(db.txns().current());

  // 3.5 chunks of patterned data.
  const size_t kSize = LobStore::kChunkSize * 3 + LobStore::kChunkSize / 2;
  std::vector<uint8_t> original(kSize);
  for (size_t i = 0; i < kSize; ++i) original[i] = uint8_t(i % 251);
  Result<LobId> lob = ctx.CreateLob();
  ASSERT_TRUE(lob.ok());
  ASSERT_TRUE(ctx.AppendLob(*lob, original).ok());
  ASSERT_TRUE(db.txns().Commit().ok());

  // Partial append + mid-LOB overwrite + extension write past the end,
  // all inside one transaction that rolls back.
  ASSERT_TRUE(db.txns().Begin().ok());
  ctx.set_transaction(db.txns().current());
  ctx.set_mode(CallbackMode::kMaintenance);
  StorageMetrics before = GlobalMetrics().Snapshot();
  ASSERT_TRUE(ctx.AppendLob(*lob, std::vector<uint8_t>(100, 0xCD)).ok());
  ASSERT_TRUE(
      ctx.WriteLob(*lob, LobStore::kChunkSize + 7,
                   std::vector<uint8_t>(50, 0xEE))
          .ok());
  ASSERT_TRUE(
      ctx.WriteLob(*lob, kSize + LobStore::kChunkSize * 2,
                   std::vector<uint8_t>(10, 0xAA))
          .ok());
  StorageMetrics delta = GlobalMetrics().Snapshot().Delta(before);
  // Only the chunks the writes touched were cloned — far fewer bytes than
  // the whole LOB.
  EXPECT_GT(delta.lob_cow_chunks_copied, 0u);
  EXPECT_LT(delta.lob_snapshot_bytes, uint64_t(kSize));
  ASSERT_TRUE(db.txns().Rollback().ok());
  ctx.set_transaction(nullptr);
  ctx.set_mode(CallbackMode::kDefinition);

  Result<std::vector<uint8_t>> restored = ctx.ReadLobAll(*lob);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(*restored, original);
}

TEST(CowLobSnapshotTest, CommitKeepsWritesAndSharedChunksStayIntact) {
  Database db;
  GuardedServerContext ctx(&db.catalog(), nullptr, CallbackMode::kDefinition);
  Result<LobId> lob = ctx.CreateLob();
  ASSERT_TRUE(lob.ok());
  const size_t kSize = LobStore::kChunkSize * 2;
  ASSERT_TRUE(ctx.AppendLob(*lob, std::vector<uint8_t>(kSize, 0x11)).ok());

  ASSERT_TRUE(db.txns().Begin().ok());
  ctx.set_transaction(db.txns().current());
  ctx.set_mode(CallbackMode::kMaintenance);
  ASSERT_TRUE(ctx.WriteLob(*lob, 10, std::vector<uint8_t>(5, 0x22)).ok());
  ASSERT_TRUE(db.txns().Commit().ok());
  ctx.set_transaction(nullptr);
  ctx.set_mode(CallbackMode::kDefinition);

  Result<std::vector<uint8_t>> all = ctx.ReadLobAll(*lob);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ((*all)[9], 0x11);
  EXPECT_EQ((*all)[10], 0x22);
  EXPECT_EQ((*all)[14], 0x22);
  EXPECT_EQ((*all)[15], 0x11);
  EXPECT_EQ(all->size(), kSize);
}

// ---- array maintenance: routing and exact V$ODCI_CALLS counts ----

class BatchMaintenanceTest : public ::testing::Test {
 protected:
  BatchMaintenanceTest() : conn_(&db_) {
    EXPECT_TRUE(text::InstallTextCartridge(&conn_).ok());
    conn_.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR)");
    conn_.MustExecute(
        "CREATE INDEX docs_idx ON docs(body) INDEXTYPE IS TextIndexType");
    Tracer::Global().Reset();
  }

  Database db_;
  Connection conn_;
};

TEST_F(BatchMaintenanceTest, MultiRowInsertDispatchesOneBatchCall) {
  StorageMetrics before = GlobalMetrics().Snapshot();
  conn_.MustExecute(
      "INSERT INTO docs VALUES (1, 'alpha beta'), (2, 'beta gamma'), "
      "(3, 'gamma alpha')");
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexInsert"), 1);
  StorageMetrics delta = GlobalMetrics().Snapshot().Delta(before);
  EXPECT_EQ(delta.odci_batch_maintenance_calls, 1u);
  EXPECT_EQ(delta.odci_batch_maintenance_rows, 3u);
  // One dispatch, full index: every row is searchable.
  EXPECT_EQ(SortedIds(&conn_, "SELECT id FROM docs WHERE "
                              "Contains(body, 'gamma')"),
            (std::vector<int64_t>{2, 3}));
}

TEST_F(BatchMaintenanceTest, SingleRowDmlKeepsPerRowDispatch) {
  // One-row calls are not metered as multi-row dispatches.
  StorageMetrics before = GlobalMetrics().Snapshot();
  conn_.MustExecute("INSERT INTO docs VALUES (1, 'alpha')");
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexInsert"), 1);
  conn_.MustExecute("UPDATE docs SET body = 'beta' WHERE id = 1");
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexUpdate"), 1);
  conn_.MustExecute("DELETE FROM docs WHERE id = 1");
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexDelete"), 1);
  StorageMetrics delta = GlobalMetrics().Snapshot().Delta(before);
  EXPECT_EQ(delta.odci_maintenance_calls, 3u);
  EXPECT_EQ(delta.odci_batch_maintenance_calls, 0u);
}

TEST_F(BatchMaintenanceTest, MultiRowUpdateAndDeleteBatch) {
  conn_.MustExecute(
      "INSERT INTO docs VALUES (1, 'alpha'), (2, 'alpha'), (3, 'beta')");
  Tracer::Global().Reset();
  conn_.MustExecute("UPDATE docs SET body = 'delta' WHERE id <= 2");
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexUpdate"), 1);
  EXPECT_EQ(SortedIds(&conn_, "SELECT id FROM docs WHERE "
                              "Contains(body, 'delta')"),
            (std::vector<int64_t>{1, 2}));
  conn_.MustExecute("DELETE FROM docs WHERE id <= 2");
  EXPECT_EQ(ViewCalls(&conn_, "ODCIIndexDelete"), 1);
  EXPECT_TRUE(
      SortedIds(&conn_, "SELECT id FROM docs WHERE Contains(body, 'delta')")
          .empty());
}

TEST_F(BatchMaintenanceTest, MultiRowInsertRollsBackAtomically) {
  conn_.MustExecute("BEGIN");
  conn_.MustExecute(
      "INSERT INTO docs VALUES (1, 'alpha'), (2, 'alpha beta')");
  EXPECT_EQ(SortedIds(&conn_, "SELECT id FROM docs WHERE "
                              "Contains(body, 'alpha')"),
            (std::vector<int64_t>{1, 2}));
  conn_.MustExecute("ROLLBACK");
  EXPECT_TRUE(
      SortedIds(&conn_, "SELECT id FROM docs WHERE Contains(body, 'alpha')")
          .empty());
  EXPECT_TRUE(SortedIds(&conn_, "SELECT id FROM docs").empty());
}

TEST(BatchFallbackTest, NonBatchCartridgeStaysPerRow) {
  // FlakyIndexMethods implements only the per-row routines; the OdciIndex
  // array defaults loop them.  Each 3-row statement is still one traced
  // call, and the index answers like functional evaluation over an
  // unindexed copy of the table.
  FailPointRegistry::Global().ClearAll();
  Database db;
  Connection conn(&db);
  testcart::RegisterFlakyCartridge(db.catalog());
  for (const char* sql : testcart::kFlakySetupSql) conn.MustExecute(sql);
  for (const char* table : {"t", "f"}) {
    conn.MustExecute(std::string("CREATE TABLE ") + table +
                     " (id INTEGER, v INTEGER)");
    conn.MustExecute(std::string("INSERT INTO ") + table +
                     " VALUES (7, 70), (8, 80), (9, 90)");
  }
  conn.MustExecute("CREATE INDEX t_idx ON t(v) INDEXTYPE IS FlakyType");
  const struct {
    const char* dml;  // over table %
    const char* routine;
  } steps[] = {
      {"INSERT INTO % VALUES (1, 10), (2, 20), (3, 30)", "ODCIIndexInsert"},
      {"UPDATE % SET v = v + 5 WHERE id <= 3", "ODCIIndexUpdate"},
      {"DELETE FROM % WHERE id <= 3", "ODCIIndexDelete"},
  };
  auto on = [](std::string sql, const char* table) {
    sql.replace(sql.find('%'), 1, table);
    return sql;
  };
  for (const auto& step : steps) {
    SCOPED_TRACE(step.dml);
    Tracer::Global().Reset();
    conn.MustExecute(on(step.dml, "t"));
    EXPECT_EQ(ViewCalls(&conn, step.routine), 1);
    conn.MustExecute(on(step.dml, "f"));
    for (const char* pred : {"FEq(v, 15)", "FEq(v, 20)", "FEq(v, 90)",
                             "FEq(v, 35)"}) {
      const std::string q = std::string("SELECT id FROM % WHERE ") + pred;
      EXPECT_NE(conn.MustExecute("EXPLAIN " + on(q, "t"))
                    .message.find("DomainIndexScan(t_idx"),
                std::string::npos);
      EXPECT_EQ(SortedIds(&conn, on(q, "t")), SortedIds(&conn, on(q, "f")))
          << pred;
    }
  }
}

// Text methods whose array routines make one one-row call per row, as the
// per-row routines do: the per-row reference for text's sorted runs.
class PerRowTextMethods : public text::TextIndexMethods {
 public:
  Status BatchInsert(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& values, ServerContext& ctx) override {
    for (size_t i = 0; i < rids.size(); ++i) {
      EXI_RETURN_IF_ERROR(
          TextIndexMethods::BatchInsert(info, {rids[i]}, {values[i]}, ctx));
    }
    return Status::OK();
  }
  Status BatchDelete(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& values, ServerContext& ctx) override {
    for (size_t i = 0; i < rids.size(); ++i) {
      EXI_RETURN_IF_ERROR(
          TextIndexMethods::BatchDelete(info, {rids[i]}, {values[i]}, ctx));
    }
    return Status::OK();
  }
};

// Installs the text cartridge and creates docs(id, body) with text index
// docs_idx, of PerRowTextType when `per_row`.
void CreateTextDocs(Database& db, Connection& conn, bool per_row) {
  ASSERT_TRUE(text::InstallTextCartridge(&conn).ok());
  std::string indextype = "TextIndexType";
  if (per_row) {
    ASSERT_TRUE(db.catalog()
                    .implementations()
                    .Register(
                        "PerRowTextMethods",
                        [] { return std::make_shared<PerRowTextMethods>(); },
                        [] { return std::make_shared<text::TextStats>(); })
                    .ok());
    conn.MustExecute(
        "CREATE INDEXTYPE PerRowTextType FOR Contains(VARCHAR, VARCHAR) "
        "USING PerRowTextMethods");
    indextype = "PerRowTextType";
  }
  conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR)");
  conn.MustExecute("CREATE INDEX docs_idx ON docs(body) INDEXTYPE IS " +
                   indextype);
}

// ---- sorted runs vs per-row: identical index contents ----

// Runs the same DML script against the text indextype and its per-row
// reference, comparing index-backed results.
TEST(BatchEquivalenceTest, TextBatchMatchesSerialFallback) {
  std::vector<std::string> script = {
      "INSERT INTO docs VALUES (1, 'alpha beta gamma'), (2, 'beta beta'), "
      "(3, 'gamma delta'), (4, 'alpha'), (5, 'delta beta alpha')",
      "UPDATE docs SET body = 'omega alpha' WHERE id >= 4",
      "DELETE FROM docs WHERE id = 2",
  };
  std::vector<std::vector<int64_t>> results[2];
  for (int variant = 0; variant < 2; ++variant) {
    Database db;
    Connection conn(&db);
    CreateTextDocs(db, conn, /*per_row=*/variant == 1);
    for (const std::string& sql : script) conn.MustExecute(sql);
    for (const char* term : {"alpha", "beta", "gamma", "delta", "omega"}) {
      results[variant].push_back(
          SortedIds(&conn, std::string("SELECT id FROM docs WHERE "
                                       "Contains(body, '") +
                               term + "')"));
    }
  }
  EXPECT_EQ(results[0], results[1]);
}

// "(id, 'body'), ..." for ids [first, first + n): bodies repeat words, so
// postings of one statement share terms and leaves.
std::string DocValues(int first, int n) {
  static const char* kWords[] = {"alpha", "beta",  "gamma", "delta", "omega",
                                 "sigma", "kappa", "theta", "iota",  "rho"};
  std::string sql;
  for (int id = first; id < first + n; ++id) {
    if (id > first) sql += ", ";
    std::string body;
    for (int w = 0; w < 3 + id % 6; ++w) {
      body += std::string(kWords[(id * 7 + w * w) % 10]) + " ";
    }
    sql += "(" + std::to_string(id) + ", '" + body + "w" +
           std::to_string(id) + "')";
  }
  return sql;
}

// Text maintenance through sorted runs (a 64-row INSERT, a multi-row
// DELETE and a multi-row UPDATE) leaves exactly the postings of the
// per-row reference, and ROLLBACK of each statement restores the posting
// IOT row for row.
TEST(BatchEquivalenceTest, TextRunsMatchPerRowAndRollBackExactly) {
  const std::vector<std::string> script = {
      "INSERT INTO docs VALUES " + DocValues(0, 64),
      "DELETE FROM docs WHERE id >= 10 AND id < 30",
      "UPDATE docs SET body = 'omega rho fresh words' WHERE id >= 40",
      "INSERT INTO docs VALUES " + DocValues(100, 64),
  };
  std::vector<Row> postings[2];
  for (int variant = 0; variant < 2; ++variant) {
    SCOPED_TRACE(variant == 0 ? "runs" : "per-row reference");
    Database db;
    Connection conn(&db);
    CreateTextDocs(db, conn, /*per_row=*/variant == 1);
    for (const std::string& sql : script) {
      SCOPED_TRACE(sql.substr(0, 40));
      const std::vector<Row> before = PostingRows(db, "docs_idx");
      conn.MustExecute("BEGIN");
      Tracer::Global().Reset();
      conn.MustExecute(sql);
      // Both variants take one call per statement.
      auto [calls, errors] = ViewCallsErrors(
          &conn, sql[0] == 'I'   ? "ODCIIndexInsert"
                 : sql[0] == 'D' ? "ODCIIndexDelete"
                                 : "ODCIIndexUpdate");
      EXPECT_EQ(calls, 1);
      EXPECT_EQ(errors, 0);
      EXPECT_NE(PostingRows(db, "docs_idx").size(), before.size());
      conn.MustExecute("ROLLBACK");
      ExpectSameRows(PostingRows(db, "docs_idx"), before);
      conn.MustExecute(sql);
    }
    postings[variant] = PostingRows(db, "docs_idx");
  }
  EXPECT_FALSE(postings[0].empty());
  ExpectSameRows(postings[0], postings[1]);
}

TEST(BatchEquivalenceTest, ChemBatchMatchesPerRowContents) {
  // The chem cartridge's batched path (one concatenated append, one
  // store pass for deletes) must index exactly what per-row statements do.
  std::vector<std::vector<int64_t>> results[2];
  for (int variant = 0; variant < 2; ++variant) {
    Database db;
    Connection conn(&db);
    ASSERT_TRUE(chem::InstallChemCartridge(&conn).ok());
    conn.MustExecute("CREATE TABLE mols (id INTEGER, smiles VARCHAR)");
    conn.MustExecute(
        "CREATE INDEX mols_idx ON mols(smiles) INDEXTYPE IS ChemIndexType");
    std::vector<std::pair<int, std::string>> rows = {
        {1, "CCO"}, {2, "CCCC"}, {3, "C1CCCCC1"}, {4, "CCN"}, {5, "CC(=O)O"}};
    if (variant == 0) {
      std::string sql = "INSERT INTO mols VALUES ";
      for (size_t i = 0; i < rows.size(); ++i) {
        if (i > 0) sql += ", ";
        sql += "(" + std::to_string(rows[i].first) + ", '" + rows[i].second +
               "')";
      }
      conn.MustExecute(sql);
      conn.MustExecute("DELETE FROM mols WHERE id <= 2");
    } else {
      for (const auto& [id, smiles] : rows) {
        conn.MustExecute("INSERT INTO mols VALUES (" + std::to_string(id) +
                         ", '" + smiles + "')");
      }
      conn.MustExecute("DELETE FROM mols WHERE id = 1");
      conn.MustExecute("DELETE FROM mols WHERE id = 2");
    }
    for (const char* sub : {"C", "CC", "O", "N"}) {
      results[variant].push_back(
          SortedIds(&conn, std::string("SELECT id FROM mols WHERE "
                                       "MolContains(smiles, '") +
                               sub + "')"));
    }
  }
  EXPECT_EQ(results[0], results[1]);
}

// ---- planner stats cache ----

class StatsCacheTest : public ::testing::Test {
 protected:
  StatsCacheTest() : conn_(&db_) {
    EXPECT_TRUE(text::InstallTextCartridge(&conn_).ok());
    conn_.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR)");
    conn_.MustExecute(
        "INSERT INTO docs VALUES (1, 'alpha beta'), (2, 'beta gamma'), "
        "(3, 'alpha gamma'), (4, 'delta')");
    conn_.MustExecute(
        "CREATE INDEX docs_idx ON docs(body) INDEXTYPE IS TextIndexType");
    conn_.MustExecute("ANALYZE docs");
    Tracer::Global().Reset();
  }

  // ODCIStats calls consumed by planning one execution of `sql`.
  uint64_t StatsCallsFor(const std::string& sql) {
    uint64_t before = PlanningStatsCalls();
    conn_.MustExecute(sql);
    return PlanningStatsCalls() - before;
  }

  // pdocs(id, body) RANGE-partitioned on id into p0 [..100), p1
  // [100..200) and p2 [200..), one 'alpha' row in each, with a LOCAL text
  // index: three slices.
  void CreatePartitionedDocs() {
    conn_.MustExecute(
        "CREATE TABLE pdocs (id INTEGER, body VARCHAR) "
        "PARTITION BY RANGE (id) (PARTITION p0 VALUES LESS THAN (100), "
        "PARTITION p1 VALUES LESS THAN (200), "
        "PARTITION p2 VALUES LESS THAN (MAXVALUE))");
    conn_.MustExecute(
        "INSERT INTO pdocs VALUES (1, 'alpha beta'), (150, 'alpha gamma'), "
        "(250, 'alpha delta')");
    conn_.MustExecute(
        "CREATE INDEX pdocs_idx ON pdocs(body) INDEXTYPE IS TextIndexType");
  }

  Database db_;
  Connection conn_;
  const std::string query_ =
      "SELECT COUNT(*) FROM docs WHERE Contains(body, 'alpha')";
  const std::string pquery_ =
      "SELECT COUNT(*) FROM pdocs WHERE Contains(body, 'alpha')";
};

TEST_F(StatsCacheTest, RepeatedIdenticalQueryPlansWithZeroStatsCalls) {
  EXPECT_EQ(StatsCallsFor(query_), 2u);  // Selectivity + IndexCost
  EXPECT_EQ(StatsCallsFor(query_), 0u);
  EXPECT_EQ(StatsCallsFor(query_), 0u);
  EXPECT_GE(db_.planner_stats().hits(), 2u);
  // A different predicate misses the cache.
  EXPECT_EQ(StatsCallsFor(
                "SELECT COUNT(*) FROM docs WHERE Contains(body, 'beta')"),
            2u);
}

TEST_F(StatsCacheTest, DmlToIndexedTableInvalidates) {
  EXPECT_EQ(StatsCallsFor(query_), 2u);
  EXPECT_EQ(StatsCallsFor(query_), 0u);
  conn_.MustExecute("INSERT INTO docs VALUES (5, 'alpha omega')");
  // Index contents changed: the cartridge must be re-consulted.
  EXPECT_EQ(StatsCallsFor(query_), 2u);
  EXPECT_EQ(StatsCallsFor(query_), 0u);
}

TEST_F(StatsCacheTest, DmlToOtherTableDoesNotInvalidate) {
  conn_.MustExecute("CREATE TABLE other (x INTEGER)");
  EXPECT_EQ(StatsCallsFor(query_), 2u);
  conn_.MustExecute("INSERT INTO other VALUES (1)");
  EXPECT_EQ(StatsCallsFor(query_), 0u);
}

TEST_F(StatsCacheTest, RollbackClearsCache) {
  EXPECT_EQ(StatsCallsFor(query_), 2u);
  conn_.MustExecute("BEGIN");
  conn_.MustExecute("INSERT INTO docs VALUES (6, 'alpha')");
  conn_.MustExecute("ROLLBACK");
  EXPECT_EQ(StatsCallsFor(query_), 2u);
}

TEST_F(StatsCacheTest, IndexDdlClearsCache) {
  EXPECT_EQ(StatsCallsFor(query_), 2u);
  conn_.MustExecute("ALTER INDEX docs_idx PARAMETERS (':Ignore omega')");
  EXPECT_EQ(StatsCallsFor(query_), 2u);
}

// Per-slice memo: planning asks only the slices that survive pruning, and
// a change to one slice re-asks only that slice.
TEST_F(StatsCacheTest, PrunedQueryAsksOnlySurvivingSlice) {
  CreatePartitionedDocs();
  EXPECT_EQ(StatsCallsFor(pquery_ + " AND id < 100"), 2u);
  EXPECT_EQ(StatsCallsFor(pquery_ + " AND id < 100"), 0u);
}

TEST_F(StatsCacheTest, InsertIntoOnePartitionReasksOnlyThatSlice) {
  CreatePartitionedDocs();
  EXPECT_EQ(StatsCallsFor(pquery_), 6u);
  EXPECT_EQ(StatsCallsFor(pquery_), 0u);
  conn_.MustExecute("INSERT INTO pdocs VALUES (160, 'alpha omega')");
  EXPECT_EQ(StatsCallsFor(pquery_), 2u);
  EXPECT_EQ(StatsCallsFor(pquery_), 0u);
}

TEST_F(StatsCacheTest, RecreatedIndexPaysFullStatsCost) {
  CreatePartitionedDocs();
  EXPECT_EQ(StatsCallsFor(pquery_), 6u);
  conn_.MustExecute("DROP INDEX pdocs_idx");
  conn_.MustExecute(
      "CREATE INDEX pdocs_idx ON pdocs(body) INDEXTYPE IS TextIndexType");
  EXPECT_EQ(StatsCallsFor(pquery_), 6u);
}

TEST_F(StatsCacheTest, DropPartitionTakesItsSliceEntries) {
  CreatePartitionedDocs();
  EXPECT_EQ(StatsCallsFor(pquery_), 6u);
  EXPECT_EQ(db_.planner_stats().size(), 3u);
  conn_.MustExecute("ALTER TABLE pdocs DROP PARTITION p1");
  EXPECT_EQ(db_.planner_stats().size(), 2u);
  EXPECT_EQ(StatsCallsFor(pquery_), 0u);
}

// ---- parallelism 4: batched DML alongside the worker pool ----

TEST(BatchParallelismTest, BatchedDmlCorrectAtParallelism4) {
  Database db;
  db.set_parallelism(4);
  Connection conn(&db);
  ASSERT_TRUE(text::InstallTextCartridge(&conn).ok());
  conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR)");
  std::string sql = "INSERT INTO docs VALUES ";
  for (int i = 1; i <= 64; ++i) {
    if (i > 1) sql += ", ";
    sql += "(" + std::to_string(i) + ", '" +
           (i % 2 == 0 ? "alpha even" : "beta odd") + "')";
  }
  conn.MustExecute(sql);
  // Parallel build over the batched-in rows.
  conn.MustExecute(
      "CREATE INDEX docs_idx ON docs(body) INDEXTYPE IS TextIndexType");
  EXPECT_EQ(SortedIds(&conn, "SELECT COUNT(*) FROM docs WHERE "
                             "Contains(body, 'alpha')"),
            (std::vector<int64_t>{32}));
  conn.MustExecute("UPDATE docs SET body = 'gamma' WHERE id <= 10");
  conn.MustExecute("DELETE FROM docs WHERE id > 60");
  EXPECT_EQ(SortedIds(&conn, "SELECT COUNT(*) FROM docs WHERE "
                             "Contains(body, 'gamma')"),
            (std::vector<int64_t>{10}));
  EXPECT_EQ(SortedIds(&conn, "SELECT COUNT(*) FROM docs"),
            (std::vector<int64_t>{60}));
}

// ---- OdciFetchBatch ancillary contract enforcement ----

// Fetch that returns more ancillary values than rowids — the dispatch
// layer must reject the batch with a clear contract-violation error.
class MismatchedFetchTextMethods : public text::TextIndexMethods {
 public:
  Status Fetch(const OdciIndexInfo& info, OdciScanContext& sctx,
               size_t max_rows, OdciFetchBatch* out,
               ServerContext& ctx) override {
    EXI_RETURN_IF_ERROR(
        text::TextIndexMethods::Fetch(info, sctx, max_rows, out, ctx));
    out->ancillary.push_back(Value::Integer(999));
    return Status::OK();
  }
};

TEST(FetchContractTest, AncillaryCountMismatchRejected) {
  Database db;
  Connection conn(&db);
  ASSERT_TRUE(text::InstallTextCartridge(&conn).ok());
  ASSERT_TRUE(
      db.catalog()
          .implementations()
          .Register(
              "MismatchedFetchTextMethods",
              [] { return std::make_shared<MismatchedFetchTextMethods>(); },
              [] { return std::make_shared<text::TextStats>(); })
          .ok());
  conn.MustExecute(
      "CREATE INDEXTYPE MismatchedTextType FOR Contains(VARCHAR, VARCHAR) "
      "USING MismatchedFetchTextMethods");
  conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR)");
  // Enough rows with a selective term that the optimizer picks the domain
  // index over a sequential scan — the buggy Fetch must actually run.
  for (int i = 1; i <= 40; ++i) {
    conn.MustExecute("INSERT INTO docs VALUES (" + std::to_string(i) +
                     ", '" + (i == 7 ? "alpha" : "beta filler text") + "')");
  }
  conn.MustExecute(
      "CREATE INDEX docs_idx ON docs(body) INDEXTYPE IS MismatchedTextType");
  conn.MustExecute("ANALYZE docs");
  Result<QueryResult> r =
      conn.Execute("SELECT id FROM docs WHERE Contains(body, 'alpha')");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("cartridge contract violation"),
            std::string::npos);
}

}  // namespace
}  // namespace exi
