// Concurrency tests for the worker-pool execution paths (DESIGN.md §5):
// simultaneous domain-index scans from pool threads must match a serial
// scan exactly, an index built at parallelism 4 must equal one built at
// parallelism 1, parallel domain-index joins must emit the same rows in
// the same order as the serial plan, a plain index scan does the same
// ODCI work at every parallelism, and Values shared across threads keep an
// exact payload reference count.
//
// Build with -DEXTIDX_SANITIZE=thread to run these under TSan.

#include <gtest/gtest.h>

#include <future>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "cartridge/spatial/geometry.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "cartridge/vir/signature.h"
#include "cartridge/vir/vir_cartridge.h"
#include "common/thread_pool.h"
#include "common/tracer.h"
#include "core/domain_index.h"
#include "engine/connection.h"
#include "engine/workloads.h"

namespace exi {
namespace {

constexpr size_t kThreads = 8;

// Drains a domain-index scan into a rid vector.
Result<std::vector<RowId>> DrainScan(DomainIndexManager* domains,
                                     const std::string& index_name,
                                     const OdciPredInfo& pred) {
  EXI_ASSIGN_OR_RETURN(std::unique_ptr<DomainIndexManager::Scan> scan,
                       domains->StartScan(index_name, pred));
  std::vector<RowId> rids;
  OdciFetchBatch batch;
  while (true) {
    EXI_RETURN_IF_ERROR(scan->NextBatch(16, &batch));
    if (batch.end_of_scan()) break;
    rids.insert(rids.end(), batch.rids.begin(), batch.rids.end());
  }
  EXI_RETURN_IF_ERROR(scan->Close());
  return rids;
}

// Runs kThreads copies of the same scan concurrently on the pool and
// asserts every one returns exactly the serial result.
void ExpectConcurrentScansMatchSerial(DomainIndexManager* domains,
                                      const std::string& index_name,
                                      const OdciPredInfo& pred) {
  Result<std::vector<RowId>> serial = DrainScan(domains, index_name, pred);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  ThreadPool& pool = ThreadPool::Global();
  pool.EnsureWorkerCount(kThreads);
  std::vector<std::future<Result<std::vector<RowId>>>> futures;
  for (size_t i = 0; i < kThreads; ++i) {
    futures.push_back(pool.Submit([domains, index_name, pred]() {
      return DrainScan(domains, index_name, pred);
    }));
  }
  for (auto& f : futures) {
    Result<std::vector<RowId>> got = f.get();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *serial);
  }
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest() : conn_(&db_) {
    EXPECT_TRUE(text::InstallTextCartridge(&conn_).ok());
    EXPECT_TRUE(spatial::InstallSpatialCartridge(&conn_).ok());
    EXPECT_TRUE(vir::InstallVirCartridge(&conn_).ok());
  }

  Database db_;
  Connection conn_;
};

TEST_F(ConcurrencyTest, ConcurrentTextScansMatchSerial) {
  ASSERT_TRUE(
      workload::BuildTextTable(&conn_, "docs", 300, 20, 500, 0.8, 7).ok());
  conn_.MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
  OdciPredInfo pred = OdciPredInfo::BooleanTrue(
      "Contains", {Value::Varchar("w0")});
  ExpectConcurrentScansMatchSerial(&db_.domains(), "docs_text", pred);
}

TEST_F(ConcurrencyTest, ConcurrentSpatialScansMatchSerial) {
  ASSERT_TRUE(
      workload::BuildSpatialTable(&conn_, "parks", 300, 80.0, 11).ok());
  conn_.MustExecute(
      "CREATE INDEX parks_tile ON parks(geometry) "
      "INDEXTYPE IS SpatialIndexType");
  spatial::Geometry query{100.0, 100.0, 600.0, 600.0};
  OdciPredInfo pred = OdciPredInfo::BooleanTrue(
      "Sdo_Relate",
      {spatial::ToValue(query), Value::Varchar("mask=ANYINTERACT")});
  ExpectConcurrentScansMatchSerial(&db_.domains(), "parks_tile", pred);
}

TEST_F(ConcurrencyTest, ConcurrentVirScansMatchSerial) {
  ASSERT_TRUE(workload::BuildImageTable(&conn_, "imgs", 300, 4, 0.1, 3).ok());
  conn_.MustExecute(
      "CREATE INDEX imgs_vir ON imgs(img) INDEXTYPE IS VirIndexType");
  workload::SignatureSource source(4, 0.1, 3);
  OdciPredInfo pred = OdciPredInfo::BooleanTrue(
      "VIRSimilar",
      {vir::ToValue(source.Next()), Value::Varchar(""), Value::Double(0.8)});
  ExpectConcurrentScansMatchSerial(&db_.domains(), "imgs_vir", pred);
}

// ---- build equivalence across parallelism ----

// Every IOT of `db` with its rows in key order.
std::map<std::string, std::vector<Row>> AllIotRows(Database& db) {
  std::map<std::string, std::vector<Row>> out;
  for (const std::string& name : db.catalog().IotNames()) {
    std::vector<Row>& rows = out[name];
    (*db.catalog().GetIot(name))
        ->ScanRange(nullptr, true, nullptr, true, [&rows](const Row& row) {
          rows.push_back(row);
          return true;
        });
  }
  return out;
}

// Builds the same seeded workload in two databases — one at parallelism 1,
// one at parallelism 4 — and asserts both leave identical IOT rows and the
// given query returns identical rows from both: the session parallelism
// must not change what CREATE INDEX builds.
void ExpectBuildEquivalence(
    const std::function<Status(Connection*)>& build_table,
    const std::string& create_index, const std::string& query) {
  QueryResult serial, parallel;
  std::map<std::string, std::vector<Row>> serial_iots, parallel_iots;
  {
    Database db;
    Connection conn(&db);
    ASSERT_TRUE(text::InstallTextCartridge(&conn).ok());
    ASSERT_TRUE(spatial::InstallSpatialCartridge(&conn).ok());
    ASSERT_TRUE(vir::InstallVirCartridge(&conn).ok());
    ASSERT_TRUE(build_table(&conn).ok());
    conn.MustExecute(create_index);
    serial = conn.MustExecute(query);
    serial_iots = AllIotRows(db);
  }
  {
    Database db;
    Connection conn(&db);
    ASSERT_TRUE(text::InstallTextCartridge(&conn).ok());
    ASSERT_TRUE(spatial::InstallSpatialCartridge(&conn).ok());
    ASSERT_TRUE(vir::InstallVirCartridge(&conn).ok());
    db.set_parallelism(4);
    ASSERT_TRUE(build_table(&conn).ok());
    conn.MustExecute(create_index);
    parallel = conn.MustExecute(query);
    parallel_iots = AllIotRows(db);
  }
  ASSERT_FALSE(serial_iots.empty());
  ASSERT_EQ(serial_iots.size(), parallel_iots.size());
  for (const auto& [name, rows] : serial_iots) {
    const std::vector<Row>& other = parallel_iots[name];
    ASSERT_EQ(rows.size(), other.size()) << name;
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(CompareKeys(rows[i], other[i]), 0) << name << " row " << i;
    }
  }
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(CompareKeys(serial.rows[i], parallel.rows[i]), 0)
        << "row " << i << " differs";
  }
}

TEST(ParallelBuildTest, TextIndexMatchesSerialBuild) {
  ExpectBuildEquivalence(
      [](Connection* conn) {
        return workload::BuildTextTable(conn, "docs", 400, 15, 300, 0.8, 21);
      },
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType",
      "SELECT id FROM docs WHERE Contains(body, 'w1') ORDER BY id");
}

TEST(ParallelBuildTest, SpatialIndexMatchesSerialBuild) {
  ExpectBuildEquivalence(
      [](Connection* conn) {
        return workload::BuildSpatialTable(conn, "parks", 400, 60.0, 5);
      },
      "CREATE INDEX parks_tile ON parks(geometry) "
      "INDEXTYPE IS SpatialIndexType",
      "SELECT gid FROM parks WHERE Sdo_Relate(geometry, "
      "SDO_GEOMETRY(200,200,700,700), 'mask=ANYINTERACT') ORDER BY gid");
}

TEST(ParallelBuildTest, VirIndexMatchesSerialBuild) {
  ExpectBuildEquivalence(
      [](Connection* conn) {
        return workload::BuildImageTable(conn, "imgs", 400, 4, 0.1, 9);
      },
      "CREATE INDEX imgs_vir ON imgs(img) INDEXTYPE IS VirIndexType",
      "SELECT id FROM imgs WHERE VIRSimilar(img, "
      "IMAGE_T(0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,"
      "0.5,0.5), 'globalcolor=1', 0.9) ORDER BY id");
}

// Calls of `routine` in a tracer window (all indextypes).
uint64_t CallsIn(const TracerSnapshot& window, const std::string& routine) {
  uint64_t calls = 0;
  for (const auto& [key, stats] : window) {
    if (key.second == routine) calls += stats.calls;
  }
  return calls;
}

// At parallelism 4, CREATE INDEX and REBUILD build every slice, global or
// LOCAL, with one ODCIIndexCreate: no ODCIIndexCreateStorage and no
// per-row ODCIIndexInsert.
TEST(ParallelBuildTest, EverySliceBuildsWithOneCreateAtParallelism4) {
  struct Case {
    const char* indextype;
    const char* columns;  // column list of the tables built by `build`
    const char* key;      // first column, the HASH partitioning key
    const char* indexed;
    std::function<Status(Connection*, const std::string&)> build;
  };
  const Case cases[] = {
      {"TextIndexType", "(id INTEGER, body VARCHAR(4000))", "id", "body",
       [](Connection* conn, const std::string& table) {
         return workload::BuildTextTable(conn, table, 120, 10, 200, 0.8, 3);
       }},
      {"SpatialIndexType", "(gid INTEGER, geometry OBJECT SDO_GEOMETRY)",
       "gid", "geometry",
       [](Connection* conn, const std::string& table) {
         return workload::BuildSpatialTable(conn, table, 120, 60.0, 3);
       }},
      {"VirIndexType", "(id INTEGER, img OBJECT IMAGE_T)", "id", "img",
       [](Connection* conn, const std::string& table) {
         return workload::BuildImageTable(conn, table, 120, 4, 0.1, 3);
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.indextype);
    Database db;
    Connection conn(&db);
    ASSERT_TRUE(text::InstallTextCartridge(&conn).ok());
    ASSERT_TRUE(spatial::InstallSpatialCartridge(&conn).ok());
    ASSERT_TRUE(vir::InstallVirCartridge(&conn).ok());
    db.set_parallelism(4);
    ASSERT_TRUE(c.build(&conn, "flat").ok());
    conn.MustExecute(std::string("CREATE TABLE part ") + c.columns +
                     " PARTITION BY HASH (" + c.key + ") PARTITIONS 4");
    for (auto it = (*db.catalog().GetTable("flat"))->Scan(); it.Valid();
         it.Next()) {
      ASSERT_TRUE(db.InsertRow("part", it.row(), nullptr).ok());
    }
    for (const auto& [table, slices] :
         {std::pair<std::string, uint64_t>{"flat", 1}, {"part", 4}}) {
      // CREATE INDEX, then REBUILD, which runs the same slice build.
      for (const std::string& ddl :
           {"CREATE INDEX " + table + "_ix ON " + table + "(" + c.indexed +
                ") INDEXTYPE IS " + c.indextype,
            "ALTER INDEX " + table + "_ix REBUILD"}) {
        TracerSnapshot before = Tracer::Global().Snapshot();
        conn.MustExecute(ddl);
        TracerSnapshot window =
            TracerDelta(Tracer::Global().Snapshot(), before);
        EXPECT_EQ(CallsIn(window, "ODCIIndexCreate"), slices) << ddl;
        EXPECT_EQ(CallsIn(window, "ODCIIndexCreateStorage"), 0u) << ddl;
        EXPECT_EQ(CallsIn(window, "ODCIIndexInsert"), 0u) << ddl;
      }
    }
  }
}

// ---- parallel query equivalence (serial scans + windowed join probes) ----

class ParallelQueryTest : public ::testing::Test {
 protected:
  ParallelQueryTest() : conn_(&db_) {
    EXPECT_TRUE(text::InstallTextCartridge(&conn_).ok());
    EXPECT_TRUE(spatial::InstallSpatialCartridge(&conn_).ok());
  }

  Database db_;
  Connection conn_;
};

TEST_F(ParallelQueryTest, ScanMatchesSerialAtParallelism4) {
  ASSERT_TRUE(
      workload::BuildTextTable(&conn_, "docs", 500, 20, 400, 0.8, 13).ok());
  conn_.MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
  conn_.MustExecute("ANALYZE docs");
  const std::string q =
      "SELECT id FROM docs WHERE Contains(body, 'w2') ORDER BY id";
  QueryResult serial = conn_.MustExecute(q);
  db_.set_parallelism(4);
  QueryResult parallel = conn_.MustExecute(q);
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(CompareKeys(serial.rows[i], parallel.rows[i]), 0);
  }
}

TEST_F(ParallelQueryTest, ParallelJoinMatchesSerialRowForRow) {
  ASSERT_TRUE(
      workload::BuildSpatialTable(&conn_, "roads", 60, 500.0, 17).ok());
  ASSERT_TRUE(
      workload::BuildSpatialTable(&conn_, "parks", 200, 300.0, 19).ok());
  conn_.MustExecute(
      "CREATE INDEX p_tile ON parks(geometry) INDEXTYPE IS SpatialIndexType");
  conn_.MustExecute("ANALYZE roads");
  conn_.MustExecute("ANALYZE parks");
  const std::string q =
      "SELECT r.gid, p.gid FROM roads r, parks p "
      "WHERE Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT')";
  QueryResult serial = conn_.MustExecute(q);
  ASSERT_GT(serial.rows.size(), 0u);
  db_.set_parallelism(4);
  QueryResult parallel = conn_.MustExecute(q);
  // Row-for-row identical: the parallel join merges probes in outer order.
  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (size_t i = 0; i < serial.rows.size(); ++i) {
    EXPECT_EQ(CompareKeys(serial.rows[i], parallel.rows[i]), 0)
        << "row " << i << " differs";
  }
}

// A plain index scan is one serial slice loop at every parallelism, so
// its EXPLAIN carries no parallel marker; the tile join's probe window
// does, and only above parallelism 1.
TEST_F(ParallelQueryTest, ScanExplainIsTheSameAtEveryParallelism) {
  ASSERT_TRUE(
      workload::BuildTextTable(&conn_, "docs", 100, 15, 200, 0.8, 23).ok());
  ASSERT_TRUE(
      workload::BuildSpatialTable(&conn_, "roads", 30, 500.0, 17).ok());
  ASSERT_TRUE(
      workload::BuildSpatialTable(&conn_, "parks", 60, 300.0, 19).ok());
  conn_.MustExecute(
      "CREATE INDEX docs_text ON docs(body) INDEXTYPE IS TextIndexType");
  conn_.MustExecute(
      "CREATE INDEX p_tile ON parks(geometry) INDEXTYPE IS SpatialIndexType");
  for (const char* table : {"docs", "roads", "parks"}) {
    conn_.MustExecute(std::string("ANALYZE ") + table);
  }
  const std::string scan =
      "EXPLAIN SELECT id FROM docs WHERE Contains(body, 'w0')";
  const std::string join =
      "EXPLAIN SELECT r.gid, p.gid FROM roads r, parks p "
      "WHERE Sdo_Relate(p.geometry, r.geometry, 'mask=ANYINTERACT')";
  QueryResult scan1 = conn_.MustExecute(scan);
  QueryResult join1 = conn_.MustExecute(join);
  db_.set_parallelism(4);
  QueryResult scan4 = conn_.MustExecute(scan);
  QueryResult join4 = conn_.MustExecute(join);

  EXPECT_NE(scan1.message.find("DomainIndexScan(docs_text"),
            std::string::npos)
      << scan1.message;
  EXPECT_EQ(scan1.message, scan4.message);
  EXPECT_EQ(scan4.message.find("parallel"), std::string::npos);

  EXPECT_NE(join1.message.find("DomainIndexJoin("), std::string::npos)
      << join1.message;
  EXPECT_EQ(join1.message.find("parallel"), std::string::npos);
  EXPECT_NE(join4.message.find("parallel=4"), std::string::npos)
      << join4.message;
}

// A LIMIT scan starts, fetches and closes only what its first rows need,
// whatever the parallelism: a LOCAL index opens one slice, not all four,
// and a global index fetches no batch ahead of the consumer.
TEST_F(ParallelQueryTest, LimitScanDoesTheSameOdciWorkAtEveryParallelism) {
  ASSERT_TRUE(
      workload::BuildTextTable(&conn_, "flat", 2000, 20, 400, 0.8, 29).ok());
  conn_.MustExecute(
      "CREATE TABLE part (id INTEGER, body VARCHAR(4000)) "
      "PARTITION BY HASH (id) PARTITIONS 4");
  for (auto it = (*db_.catalog().GetTable("flat"))->Scan(); it.Valid();
       it.Next()) {
    ASSERT_TRUE(db_.InsertRow("part", it.row(), nullptr).ok());
  }
  for (const char* table : {"flat", "part"}) {
    SCOPED_TRACE(table);
    conn_.MustExecute(std::string("CREATE INDEX ") + table +
                      "_text ON " + table +
                      "(body) INDEXTYPE IS TextIndexType");
    conn_.MustExecute(std::string("ANALYZE ") + table);
    const std::string q = std::string("SELECT id FROM ") + table +
                          " WHERE Contains(body, 'w1') LIMIT 5";
    // Start/Fetch/Close counts from the tracer, the ledger V$ODCI_CALLS
    // reads.
    std::map<size_t, std::vector<uint64_t>> calls;
    for (size_t dop : {1, 4}) {
      db_.set_parallelism(dop);
      EXPECT_NE(conn_.MustExecute("EXPLAIN " + q).message.find("DomainIndex"),
                std::string::npos);
      TracerSnapshot before = Tracer::Global().Snapshot();
      EXPECT_EQ(conn_.MustExecute(q).rows.size(), 5u);
      TracerSnapshot window = TracerDelta(Tracer::Global().Snapshot(), before);
      for (const char* routine :
           {"ODCIIndexStart", "ODCIIndexFetch", "ODCIIndexClose"}) {
        calls[dop].push_back(CallsIn(window, routine));
      }
    }
    db_.set_parallelism(1);
    EXPECT_EQ(calls[1], calls[4]);
    EXPECT_EQ(calls[1][0], 1u) << "one slice started";
    EXPECT_EQ(calls[1][2], 1u) << "one slice closed";
  }
}

// Rows cross threads by copy (join probes hand them to pool threads), so
// four threads copying, comparing, moving and dropping copies of the same
// VARCHAR and OBJECT Values must leave each payload alive, unchanged and
// shared until the last owner drops it.  TSan checks the count for races;
// the ASan stage checks that each payload is freed once and not leaked.
TEST(ValueRefcountTest, FourThreadsCopyAndDropSharedPayloads) {
  Value text = Value::Varchar(std::string(64, 'v'));
  Value object = Value::Object(
      "Shape", {Value::Varchar("square"), Value::Varray({text, text})});
  const std::string* text_payload = &text.AsVarchar();
  const ObjectValue* object_payload = &object.AsObject();

  std::vector<std::thread> threads;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        ValueList row{text, object};
        Value kept = row[0];
        Value taken = std::move(row[1]);
        bool same = &kept.AsVarchar() == text_payload &&
                    &taken.AsObject() == object_payload &&
                    row[1].is_null() && *Value::Compare(kept, text) == 0 &&
                    taken.Equals(object);
        if (!same) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches, std::vector<int>(4, 0));
  EXPECT_EQ(&text.AsVarchar(), text_payload);
  EXPECT_EQ(text.AsVarchar(), std::string(64, 'v'));
  EXPECT_EQ(&object.AsObject(), object_payload);
  EXPECT_EQ(object.AsObject().attributes[1].AsVarray()[0].AsVarchar(),
            std::string(64, 'v'));
  Value last = object;
  object = Value::Null();
  EXPECT_EQ(&last.AsObject(), object_payload);
}

}  // namespace
}  // namespace exi
