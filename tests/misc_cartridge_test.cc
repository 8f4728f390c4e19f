// Tests for the domain B-tree (E10 ablation cartridge), the VARRAY
// collection indextype (§3.1), and the workload generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "cartridge/chem/molecule.h"
#include "cartridge/domain_btree/domain_btree.h"
#include "cartridge/varray/varray_cartridge.h"
#include "common/metrics.h"
#include "engine/connection.h"
#include "engine/workloads.h"

namespace exi {
namespace {

class DomainBtreeTest : public ::testing::Test {
 protected:
  DomainBtreeTest() : conn_(&db_) {
    EXPECT_TRUE(dbt::InstallDomainBtreeCartridge(&conn_).ok());
    conn_.MustExecute("CREATE TABLE t (id INTEGER, v INTEGER)");
    for (int i = 0; i < 500; ++i) {
      conn_.MustExecute("INSERT INTO t VALUES (" + std::to_string(i) +
                        ", " + std::to_string(i % 100) + ")");
    }
    conn_.MustExecute(
        "CREATE INDEX t_dbt ON t(v) INDEXTYPE IS DomainBtreeType");
    conn_.MustExecute("ANALYZE t");
  }

  Database db_;
  Connection conn_;
};

TEST_F(DomainBtreeTest, EqualityThroughDomainIndex) {
  QueryResult ex =
      conn_.MustExecute("EXPLAIN SELECT id FROM t WHERE DEq(v, 7)");
  EXPECT_NE(ex.message.find("DomainIndex(t_dbt)"), std::string::npos)
      << ex.message;
  QueryResult r =
      conn_.MustExecute("SELECT COUNT(*) FROM t WHERE DEq(v, 7)");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 5);
}

TEST_F(DomainBtreeTest, RangeThroughDomainIndex) {
  QueryResult r =
      conn_.MustExecute("SELECT COUNT(*) FROM t WHERE DBetween(v, 10, 19)");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 50);
  // Equivalent native predicate for cross-checking.
  QueryResult native = conn_.MustExecute(
      "SELECT COUNT(*) FROM t WHERE v >= 10 AND v <= 19");
  EXPECT_EQ(native.rows[0][0].AsInteger(), 50);
}

TEST_F(DomainBtreeTest, MaintainedUnderDml) {
  conn_.MustExecute("UPDATE t SET v = 1000 WHERE id = 3");
  QueryResult r =
      conn_.MustExecute("SELECT COUNT(*) FROM t WHERE DEq(v, 1000)");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 1);
  r = conn_.MustExecute("SELECT COUNT(*) FROM t WHERE DEq(v, 3)");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 4);
  conn_.MustExecute("DELETE FROM t WHERE DEq(v, 1000)");
  r = conn_.MustExecute("SELECT COUNT(*) FROM t WHERE DEq(v, 1000)");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 0);
}

// The range scan reads one key past a full batch, so the batch holding the
// last key is marked `last` and a scan of R rows takes max(1, ceil(R/B))
// Fetch calls at any batch size B, also when B divides R.
TEST_F(DomainBtreeTest, RangeScanMarksItsLastBatch) {
  for (size_t batch : {size_t(1), size_t(7), size_t(10), size_t(50),
                       size_t(256)}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    db_.set_fetch_batch_size(batch);
    for (auto [where, rows] : {std::pair{"DBetween(v, 10, 19)", size_t(50)},
                               std::pair{"DEq(v, 1000)", size_t(0)}}) {
      StorageMetrics before = GlobalMetrics().Snapshot();
      EXPECT_EQ(conn_.MustExecute(std::string("SELECT id FROM t WHERE ") +
                                  where)
                    .rows.size(),
                rows);
      StorageMetrics delta = GlobalMetrics().Snapshot().Delta(before);
      EXPECT_EQ(delta.odci_start_calls, 1u) << where;
      EXPECT_EQ(delta.odci_fetch_calls,
                std::max<size_t>(1, (rows + batch - 1) / batch))
          << where;
      EXPECT_EQ(delta.odci_close_calls, 1u) << where;
    }
  }
}

class VarrayCartridgeTest : public ::testing::Test {
 protected:
  VarrayCartridgeTest() : conn_(&db_) {
    EXPECT_TRUE(varr::InstallVarrayCartridge(&conn_).ok());
    conn_.MustExecute(
        "CREATE TABLE employees (name VARCHAR(40), hobbies VARRAY OF "
        "VARCHAR)");
    conn_.MustExecute(
        "INSERT INTO employees VALUES ('alice', VARRAY_OF('Skiing', "
        "'Chess')), ('bob', VARRAY_OF('Chess')), ('carol', "
        "VARRAY_OF('Skiing', 'Running'))");
  }

  std::set<std::string> QueryNames(const std::string& where) {
    QueryResult r =
        conn_.MustExecute("SELECT name FROM employees WHERE " + where);
    std::set<std::string> names;
    for (const Row& row : r.rows) names.insert(row[0].AsVarchar());
    return names;
  }

  Database db_;
  Connection conn_;
};

TEST_F(VarrayCartridgeTest, FunctionalCollectionContains) {
  // The paper's §3.1 example: Contains(Hobbies, 'Skiing').
  EXPECT_EQ(QueryNames("VContains(hobbies, 'Skiing')"),
            (std::set<std::string>{"alice", "carol"}));
  EXPECT_EQ(QueryNames("VContains(hobbies, 'Chess')"),
            (std::set<std::string>{"alice", "bob"}));
  EXPECT_TRUE(QueryNames("VContains(hobbies, 'Golf')").empty());
}

TEST_F(VarrayCartridgeTest, IndexedCollectionContains) {
  conn_.MustExecute(
      "CREATE INDEX hob_idx ON employees(hobbies) "
      "INDEXTYPE IS VarrayIndexType");
  conn_.MustExecute("ANALYZE employees");
  EXPECT_EQ(QueryNames("VContains(hobbies, 'Skiing')"),
            (std::set<std::string>{"alice", "carol"}));
  conn_.MustExecute(
      "UPDATE employees SET hobbies = VARRAY_OF('Golf') WHERE name = "
      "'alice'");
  EXPECT_EQ(QueryNames("VContains(hobbies, 'Skiing')"),
            std::set<std::string>{"carol"});
  EXPECT_EQ(QueryNames("VContains(hobbies, 'Golf')"),
            std::set<std::string>{"alice"});
}

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() : conn_(&db_) {}
  Database db_;
  Connection conn_;
};

TEST_F(WorkloadTest, TextCorpusIsZipfian) {
  workload::TextCorpus corpus(1000, 0.9, 7);
  uint64_t w0 = 0;
  uint64_t w500 = 0;
  for (int i = 0; i < 500; ++i) {
    std::string doc = corpus.NextDocument(50);
    if (doc.find("w0 ") != std::string::npos ||
        doc.rfind(" w0") == doc.size() - 3) {
      ++w0;
    }
    if (doc.find("w500 ") != std::string::npos) ++w500;
  }
  EXPECT_GT(w0, w500 * 2);  // rank 0 vastly more frequent
}

TEST_F(WorkloadTest, GeneratedSmilesAlwaysParse) {
  Rng rng(99);
  for (int i = 0; i < 500; ++i) {
    std::string smiles = workload::RandomSmiles(&rng, 12);
    Result<chem::Molecule> mol = chem::Molecule::ParseSmiles(smiles);
    EXPECT_TRUE(mol.ok()) << smiles << " -> " << mol.status().ToString();
  }
}

TEST_F(WorkloadTest, BuildTextTable) {
  ASSERT_TRUE(workload::BuildTextTable(&conn_, "docs", 100, 20, 500, 0.9, 1)
                  .ok());
  QueryResult r = conn_.MustExecute("SELECT COUNT(*) FROM docs");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 100);
}

}  // namespace
}  // namespace exi
