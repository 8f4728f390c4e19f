// Tests for the interMedia-Text-style cartridge (§3.2.1): domain index
// creation, implicit maintenance, Contains evaluation via index scan and
// via the functional fallback, parameters, scan-context modes, and the
// pre-8i legacy baseline.

#include <gtest/gtest.h>

#include <optional>

#include "cartridge/text/legacy_text.h"
#include "cartridge/text/text_cartridge.h"
#include "cartridge/text/tokenizer.h"
#include "common/metrics.h"
#include "core/scan_context.h"
#include "engine/connection.h"
#include "posting_rows.h"

namespace exi {
namespace {

using text::InstallTextCartridge;

class TextCartridgeTest : public ::testing::Test {
 protected:
  TextCartridgeTest() : conn_(&db_) {
    EXPECT_TRUE(InstallTextCartridge(&conn_).ok());
    conn_.MustExecute(
        "CREATE TABLE employees (name VARCHAR(50), id INTEGER, "
        "resume VARCHAR(2000))");
  }

  void InsertResume(const std::string& name, int id,
                    const std::string& resume) {
    conn_.MustExecute("INSERT INTO employees VALUES ('" + name + "', " +
                      std::to_string(id) + ", '" + resume + "')");
  }

  std::vector<std::string> QueryNames(const std::string& where) {
    QueryResult r = conn_.MustExecute(
        "SELECT name FROM employees WHERE " + where + " ORDER BY id");
    std::vector<std::string> names;
    for (const Row& row : r.rows) names.push_back(row[0].AsVarchar());
    return names;
  }

  Database db_;
  Connection conn_;
};

TEST_F(TextCartridgeTest, TokenizerBasics) {
  text::Tokenizer tok;
  auto tokens = tok.Tokenize("Hello, World! hello?");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "hello");
  EXPECT_EQ(tokens[2], "hello");
  auto freqs = tok.TokenFrequencies("a b a b a");
  EXPECT_EQ(freqs["a"], 3);
  EXPECT_EQ(freqs["b"], 2);
}

TEST_F(TextCartridgeTest, QueryParser) {
  std::string error;
  auto q = text::ParseTextQuery("Oracle AND UNIX", &error);
  ASSERT_NE(q, nullptr) << error;
  EXPECT_EQ(q->kind, text::QueryNode::Kind::kAnd);
  q = text::ParseTextQuery("(java OR python) AND NOT cobol", &error);
  ASSERT_NE(q, nullptr) << error;
  q = text::ParseTextQuery("", &error);
  EXPECT_EQ(q, nullptr);
  q = text::ParseTextQuery("a AND", &error);
  EXPECT_EQ(q, nullptr);
}

TEST_F(TextCartridgeTest, FunctionalEvaluationWithoutIndex) {
  InsertResume("alice", 1, "Ten years of Oracle and UNIX experience");
  InsertResume("bob", 2, "Java and Python developer");
  EXPECT_EQ(QueryNames("Contains(resume, 'Oracle AND UNIX')"),
            std::vector<std::string>{"alice"});
  EXPECT_EQ(QueryNames("Contains(resume, 'java OR unix')"),
            (std::vector<std::string>{"alice", "bob"}));
}

TEST_F(TextCartridgeTest, DomainIndexScanReturnsSameResults) {
  InsertResume("alice", 1, "Oracle and UNIX guru");
  InsertResume("bob", 2, "UNIX sysadmin");
  InsertResume("carol", 3, "Oracle DBA");
  conn_.MustExecute(
      "CREATE INDEX ResumeTextIndex ON employees(resume) "
      "INDEXTYPE IS TextIndexType");
  conn_.MustExecute("ANALYZE employees");

  QueryResult ex = conn_.MustExecute(
      "EXPLAIN SELECT * FROM employees WHERE Contains(resume, 'oracle')");
  EXPECT_NE(ex.message.find("DomainIndex(ResumeTextIndex)"),
            std::string::npos)
      << ex.message;

  EXPECT_EQ(QueryNames("Contains(resume, 'oracle')"),
            (std::vector<std::string>{"alice", "carol"}));
  EXPECT_EQ(QueryNames("Contains(resume, 'oracle AND unix')"),
            std::vector<std::string>{"alice"});
  EXPECT_EQ(QueryNames("Contains(resume, 'oracle OR unix')"),
            (std::vector<std::string>{"alice", "bob", "carol"}));
  EXPECT_EQ(QueryNames("Contains(resume, 'NOT oracle')"),
            std::vector<std::string>{"bob"});
}

TEST_F(TextCartridgeTest, IndexIsMaintainedOnDml) {
  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType");
  InsertResume("alice", 1, "knows Oracle");
  EXPECT_EQ(QueryNames("Contains(resume, 'oracle')"),
            std::vector<std::string>{"alice"});
  conn_.MustExecute(
      "UPDATE employees SET resume = 'knows Sybase' WHERE id = 1");
  EXPECT_TRUE(QueryNames("Contains(resume, 'oracle')").empty());
  EXPECT_EQ(QueryNames("Contains(resume, 'sybase')"),
            std::vector<std::string>{"alice"});
  conn_.MustExecute("DELETE FROM employees WHERE id = 1");
  EXPECT_TRUE(QueryNames("Contains(resume, 'sybase')").empty());
}

TEST_F(TextCartridgeTest, DomainIndexRollsBackWithTransaction) {
  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType");
  InsertResume("alice", 1, "knows Oracle");
  conn_.MustExecute("BEGIN");
  InsertResume("bob", 2, "Oracle wizard");
  conn_.MustExecute("DELETE FROM employees WHERE id = 1");
  EXPECT_EQ(QueryNames("Contains(resume, 'oracle')"),
            std::vector<std::string>{"bob"});
  conn_.MustExecute("ROLLBACK");
  // Base table AND the cartridge's posting IOT both roll back (§2.5).
  EXPECT_EQ(QueryNames("Contains(resume, 'oracle')"),
            std::vector<std::string>{"alice"});
}

TEST_F(TextCartridgeTest, ParametersStopWordsAndAlter) {
  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType "
      "PARAMETERS (':Language English :Ignore the a an')");
  InsertResume("alice", 1, "the COBOL expert");
  // Stop words are not indexed.
  EXPECT_TRUE(QueryNames("Contains(resume, 'the')").empty());
  EXPECT_EQ(QueryNames("Contains(resume, 'cobol')"),
            std::vector<std::string>{"alice"});
  // ALTER INDEX adds a stop word (the paper's example) and rebuilds.
  conn_.MustExecute("ALTER INDEX rti PARAMETERS (':Ignore COBOL')");
  EXPECT_TRUE(QueryNames("Contains(resume, 'cobol')").empty());
  EXPECT_EQ(QueryNames("Contains(resume, 'expert')"),
            std::vector<std::string>{"alice"});
}

TEST_F(TextCartridgeTest, TruncateTablePropagatesToDomainIndex) {
  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType");
  InsertResume("alice", 1, "Oracle");
  conn_.MustExecute("TRUNCATE TABLE employees");
  EXPECT_TRUE(QueryNames("Contains(resume, 'oracle')").empty());
  // Index still works after truncate.
  InsertResume("dave", 4, "Oracle again");
  EXPECT_EQ(QueryNames("Contains(resume, 'oracle')"),
            std::vector<std::string>{"dave"});
}

TEST_F(TextCartridgeTest, ReturnStateContextMode) {
  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType "
      "PARAMETERS (':ContextMode state')");
  for (int i = 0; i < 200; ++i) {
    InsertResume("p" + std::to_string(i), i,
                 i % 3 == 0 ? "oracle row" : "other row");
  }
  QueryResult r = conn_.MustExecute(
      "SELECT COUNT(*) FROM employees WHERE Contains(resume, 'oracle')");
  EXPECT_EQ(r.rows[0][0].AsInteger(), 67);
  // No leaked workspaces: Return State never allocates one.
  EXPECT_EQ(ScanWorkspaceRegistry::Global().active_count(), 0u);
}

TEST_F(TextCartridgeTest, IncrementalModeStreamsSingleTermQueries) {
  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType "
      "PARAMETERS (':Mode incremental')");
  for (int i = 0; i < 100; ++i) {
    InsertResume("p" + std::to_string(i), i,
                 i % 2 == 0 ? "oracle expert" : "java expert");
  }
  EXPECT_EQ(QueryNames("Contains(resume, 'oracle')").size(), 50u);
  // Multi-term queries fall back to precompute and still work.
  EXPECT_EQ(QueryNames("Contains(resume, 'oracle AND expert')").size(), 50u);
  EXPECT_EQ(ScanWorkspaceRegistry::Global().active_count(), 0u);
}

TEST_F(TextCartridgeTest, ScanWorkspacesAreReleased) {
  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType");
  InsertResume("alice", 1, "Oracle");
  size_t before = ScanWorkspaceRegistry::Global().active_count();
  conn_.MustExecute(
      "SELECT * FROM employees WHERE Contains(resume, 'oracle')");
  EXPECT_EQ(ScanWorkspaceRegistry::Global().active_count(), before);
}

TEST_F(TextCartridgeTest, LegacyTwoStepMatchesDomainIndexResults) {
  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType");
  for (int i = 0; i < 50; ++i) {
    InsertResume("p" + std::to_string(i), i,
                 i % 5 == 0 ? "oracle and unix" : "neither");
  }
  StorageMetrics before = GlobalMetrics().Snapshot();
  std::vector<RowId> legacy_rids;
  ASSERT_TRUE(text::LegacyTextQuery(&db_, "rti", "oracle AND unix",
                                    [&](RowId rid, const Row&) {
                                      legacy_rids.push_back(rid);
                                    })
                  .ok());
  StorageMetrics delta = GlobalMetrics().Snapshot().Delta(before);
  EXPECT_EQ(legacy_rids.size(), 10u);
  // The legacy path pays temp-table traffic the pipelined path avoids.
  EXPECT_EQ(delta.temp_rows_written, 10u);
  EXPECT_EQ(delta.temp_rows_read, 10u);

  before = GlobalMetrics().Snapshot();
  QueryResult r = conn_.MustExecute(
      "SELECT name FROM employees WHERE Contains(resume, 'oracle AND "
      "unix')");
  delta = GlobalMetrics().Snapshot().Delta(before);
  EXPECT_EQ(r.rows.size(), 10u);
  EXPECT_EQ(delta.temp_rows_written, 0u);
  EXPECT_EQ(delta.temp_rows_read, 0u);
}

TEST_F(TextCartridgeTest, OptimizerPrefersBtreeForSelectiveIdPredicate) {
  // The paper's §2.4.2 example: Contains(resume,...) AND id = 100 — with a
  // very selective B-tree predicate the optimizer should use the B-tree
  // index and evaluate Contains functionally.
  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType");
  conn_.MustExecute("CREATE INDEX emp_id ON employees(id)");
  for (int i = 0; i < 300; ++i) {
    InsertResume("p" + std::to_string(i), i, "oracle everywhere");
  }
  conn_.MustExecute("ANALYZE employees");
  QueryResult ex = conn_.MustExecute(
      "EXPLAIN SELECT * FROM employees WHERE "
      "Contains(resume, 'oracle') AND id = 100");
  // Contains matches everything (sel=1.0), id=100 matches one row: the
  // B-tree path must win.
  EXPECT_NE(ex.message.find("* BTREE(emp_id)"), std::string::npos)
      << ex.message;
  QueryResult r = conn_.MustExecute(
      "SELECT name FROM employees WHERE Contains(resume, 'oracle') AND id "
      "= 100");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "p100");
}

TEST_F(TextCartridgeTest, OptimizerPrefersDomainIndexForSelectiveText) {
  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType");
  for (int i = 0; i < 300; ++i) {
    InsertResume("p" + std::to_string(i), i,
                 i == 42 ? "needle document" : "hay stack");
  }
  conn_.MustExecute("ANALYZE employees");
  QueryResult ex = conn_.MustExecute(
      "EXPLAIN SELECT * FROM employees WHERE "
      "Contains(resume, 'needle') AND id >= 0");
  EXPECT_NE(ex.message.find("* DomainIndex(rti)"), std::string::npos)
      << ex.message;
}

TEST_F(TextCartridgeTest, AncillaryScoreIsSurfaced) {
  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType");
  InsertResume("alice", 1, "oracle oracle oracle");
  InsertResume("bob", 2, "oracle once");
  QueryResult r = conn_.MustExecute(
      "SELECT name FROM employees WHERE Contains(resume, 'oracle')");
  ASSERT_EQ(r.rows.size(), 2u);
  ASSERT_EQ(r.ancillary.size(), 2u);
  // Term-frequency scores: alice=3, bob=1 (rid order).
  EXPECT_EQ(r.ancillary[0].AsInteger(), 3);
  EXPECT_EQ(r.ancillary[1].AsInteger(), 1);
}

TEST_F(TextCartridgeTest, FootnoteOneSyntaxWithoutIndex) {
  // Regression: the functional path must treat `Contains(...) = 1`
  // identically to the indexed path (boolean/numeric coercion).
  InsertResume("alice", 1, "Oracle and UNIX guru");
  InsertResume("bob", 2, "Java developer");
  EXPECT_EQ(QueryNames("Contains(resume, 'oracle') = 1"),
            std::vector<std::string>{"alice"});
  EXPECT_EQ(QueryNames("Contains(resume, 'oracle') <> 1"),
            std::vector<std::string>{"bob"});
  EXPECT_EQ(QueryNames("Contains(resume, 'oracle') = 0"),
            std::vector<std::string>{"bob"});
}

TEST_F(TextCartridgeTest, PaperFootnoteOneSyntax) {
  // Oracle8i actually required `Contains(...) = 1` (paper footnote 1);
  // both spellings must plan onto the domain index and agree.
  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType");
  InsertResume("alice", 1, "Oracle and UNIX guru");
  InsertResume("bob", 2, "Java developer");
  conn_.MustExecute("ANALYZE employees");
  QueryResult ex = conn_.MustExecute(
      "EXPLAIN SELECT name FROM employees WHERE "
      "Contains(resume, 'oracle') = 1");
  EXPECT_NE(ex.message.find("* DomainIndex(rti)"), std::string::npos)
      << ex.message;
  EXPECT_EQ(QueryNames("Contains(resume, 'oracle') = 1"),
            std::vector<std::string>{"alice"});
  EXPECT_EQ(QueryNames("Contains(resume, 'oracle') = TRUE"),
            std::vector<std::string>{"alice"});
  EXPECT_EQ(QueryNames("1 = Contains(resume, 'oracle')"),
            std::vector<std::string>{"alice"});
}

TEST_F(TextCartridgeTest, ScoreFunctionInSelectAndOrderBy) {
  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType");
  InsertResume("alice", 1, "oracle");
  InsertResume("bob", 2, "oracle oracle oracle oracle");
  InsertResume("carol", 3, "oracle oracle");
  // Score() reads the scan's ancillary value (§2.4.2 ancillary operators).
  QueryResult r = conn_.MustExecute(
      "SELECT name, Score() FROM employees WHERE "
      "Contains(resume, 'oracle') ORDER BY Score() DESC");
  ASSERT_EQ(r.rows.size(), 3u);
  EXPECT_EQ(r.rows[0][0].AsVarchar(), "bob");
  EXPECT_EQ(r.rows[0][1].AsInteger(), 4);
  EXPECT_EQ(r.rows[1][0].AsVarchar(), "carol");
  EXPECT_EQ(r.rows[2][0].AsVarchar(), "alice");
  // Score() outside a query context is a clean error, not garbage.
  EXPECT_FALSE(conn_.Execute("DELETE FROM employees WHERE Score() > 1")
                   .ok());
}

// ---- build equivalence: bulk build at parallelism 1 and 4, per-row
//      maintenance ----

// Document bodies with repeated words, stop words and NULLs (nullopt).
std::vector<std::optional<std::string>> Bodies(size_t n) {
  const char* words[] = {"the", "oracle", "a", "index", "cartridge",
                         "text", "an", "wizard", "query", "table"};
  std::vector<std::optional<std::string>> bodies;
  for (size_t i = 0; i < n; ++i) {
    if (i % 7 == 3) {
      bodies.push_back(std::nullopt);
      continue;
    }
    std::string body;
    for (size_t w = 0; w < 4 + i % 5; ++w) {
      body += std::string(words[(i * 3 + w * w) % 10]) + " ";
    }
    bodies.push_back(body);
  }
  return bodies;
}

enum class Build { kBulk, kBulkAtParallelism4, kPerRow };

// docs(id, body) filled with `bodies` and text index `dtext` with
// `params`: created over the filled table (the bulk build) at parallelism
// 1 or 4, or created over the empty table and maintained row by row.  Rows
// get the same rowids every way.
class BuiltDocs {
 public:
  BuiltDocs(Build how, const std::vector<std::optional<std::string>>& bodies,
            const std::string& params)
      : conn_(&db_) {
    EXPECT_TRUE(InstallTextCartridge(&conn_).ok());
    conn_.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(200))");
    const std::string create =
        "CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType" +
        (params.empty() ? "" : " PARAMETERS ('" + params + "')");
    if (how == Build::kPerRow) conn_.MustExecute(create);
    for (size_t i = 0; i < bodies.size(); ++i) {
      conn_.MustExecute("INSERT INTO docs VALUES (" + std::to_string(i) +
                        ", " +
                        (bodies[i] ? "'" + *bodies[i] + "'" : "NULL") + ")");
    }
    if (how != Build::kPerRow) {
      db_.set_parallelism(how == Build::kBulkAtParallelism4 ? 4 : 1);
      conn_.MustExecute(create);
    }
  }

  std::vector<Row> postings() { return PostingRows(db_, "dtext"); }
  Connection& conn() { return conn_; }
  Database& db() { return db_; }

 private:
  Database db_;
  Connection conn_;
};

TEST(TextBuildEquivalenceTest, BulkSplitAndPerRowBuildsAgree) {
  for (size_t n : {size_t(0), size_t(1), size_t(60)}) {
    for (const char* params : {"", ":Ignore the a an"}) {
      SCOPED_TRACE(std::to_string(n) + " docs, params '" + params + "'");
      std::vector<Row> want = BuiltDocs(Build::kPerRow, Bodies(n), params)
                                  .postings();
      if (n == 60) {
        ASSERT_FALSE(want.empty());
      }
      ExpectSameRows(BuiltDocs(Build::kBulk, Bodies(n), params).postings(),
                     want);
      ExpectSameRows(
          BuiltDocs(Build::kBulkAtParallelism4, Bodies(n), params).postings(),
          want);
    }
  }
}

// ALTER INDEX ... PARAMETERS and REBUILD reload a bulk-built index (at
// parallelism 1 or 4); each then equals the per-row index with the
// combined parameters.
TEST(TextBuildEquivalenceTest, AlterAndRebuildAgreeWithPerRow) {
  std::vector<Row> want =
      BuiltDocs(Build::kPerRow, Bodies(60), ":Ignore the a wizard")
          .postings();
  for (Build how : {Build::kBulk, Build::kBulkAtParallelism4}) {
    BuiltDocs docs(how, Bodies(60), ":Ignore the a");
    docs.conn().MustExecute("ALTER INDEX dtext PARAMETERS (':Ignore wizard')");
    ExpectSameRows(docs.postings(), want);
    docs.conn().MustExecute("ALTER INDEX dtext REBUILD");
    ExpectSameRows(docs.postings(), want);
  }
}

// DML on a bulk-built index rolls back to exactly the loaded rows.
TEST(TextBuildEquivalenceTest, RollbackRestoresBulkBuiltRows) {
  BuiltDocs docs(Build::kBulk, Bodies(60), "");
  const std::vector<Row> loaded = docs.postings();
  docs.conn().MustExecute("BEGIN");
  docs.conn().MustExecute("INSERT INTO docs VALUES (100, 'oracle zebra')");
  docs.conn().MustExecute(
      "UPDATE docs SET body = 'query wizard' WHERE id < 10");
  docs.conn().MustExecute("DELETE FROM docs WHERE id > 50");
  ASSERT_NE(docs.postings().size(), loaded.size());
  docs.conn().MustExecute("ROLLBACK");
  ExpectSameRows(docs.postings(), loaded);
}

TEST_F(TextCartridgeTest, DropIndexRemovesPostingTable) {
  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType");
  EXPECT_TRUE(db_.catalog().IotExists("rti$ptab"));
  conn_.MustExecute("DROP INDEX rti");
  EXPECT_FALSE(db_.catalog().IotExists("rti$ptab"));
}

}  // namespace
}  // namespace exi
