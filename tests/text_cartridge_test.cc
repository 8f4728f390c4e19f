// Tests for the interMedia-Text-style cartridge (§3.2.1): domain index
// creation, implicit maintenance, Contains evaluation via index scan and
// via the functional fallback, parameters, scan-context modes, and the
// pre-8i legacy baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>

#include "cartridge/text/legacy_text.h"
#include "cartridge/text/text_cartridge.h"
#include "cartridge/text/tokenizer.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/callback_guard.h"
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
  auto indexed = [&](const std::string& token) {
    for (const Row& row : PostingRows(db_, "rti")) {
      if (row[0].AsVarchar() == token) return true;
    }
    return false;
  };
  // Stop words are not indexed, yet a query for one still gets the
  // functional answer: the scan reads it from the base table.
  EXPECT_FALSE(indexed("the"));
  EXPECT_EQ(QueryNames("Contains(resume, 'the')"),
            std::vector<std::string>{"alice"});
  EXPECT_TRUE(indexed("cobol"));
  EXPECT_EQ(QueryNames("Contains(resume, 'cobol')"),
            std::vector<std::string>{"alice"});
  // ALTER INDEX adds a stop word (the paper's example) and rebuilds.
  conn_.MustExecute("ALTER INDEX rti PARAMETERS (':Ignore COBOL')");
  EXPECT_FALSE(indexed("cobol"));
  EXPECT_EQ(QueryNames("Contains(resume, 'cobol')"),
            std::vector<std::string>{"alice"});
  EXPECT_EQ(QueryNames("Contains(resume, 'expert AND NOT cobol')"),
            std::vector<std::string>{});
  EXPECT_EQ(QueryNames("Contains(resume, 'expert')"),
            std::vector<std::string>{"alice"});
}

// Queries naming a stop word of the index's :Ignore list: every plan, with
// or without the index and in either scan mode, returns the functional
// answer.
TEST(TextStopWordTest, IndexAnswersStopWordsLikeTheFunction) {
  Database db;
  Connection conn(&db);
  ASSERT_TRUE(InstallTextCartridge(&conn).ok());
  conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(200))");
  conn.MustExecute(
      "INSERT INTO docs VALUES (1, 'the cat'), (2, 'a dog'), (3, 'The end')");
  const std::vector<std::pair<std::string, std::vector<int64_t>>> cases = {
      {"the", {1, 3}},
      {"the OR dog", {1, 2, 3}},
      {"cat AND NOT the", {}},
      {"NOT the", {2}},
      {"the AND end", {3}}};
  auto ids = [&](const std::string& where) {
    std::vector<int64_t> out;
    for (const Row& row :
         conn.MustExecute("SELECT id FROM docs WHERE " + where + " ORDER BY id")
             .rows) {
      out.push_back(row[0].AsInteger());
    }
    return out;
  };
  conn.MustExecute(
      "CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType "
      "PARAMETERS (':Ignore the')");
  for (const char* mode : {"precompute", "incremental"}) {
    conn.MustExecute(std::string("ALTER INDEX dtext PARAMETERS (':Mode ") +
                     mode + "')");
    for (const auto& [query, want] : cases) {
      SCOPED_TRACE(std::string(mode) + ": " + query);
      const std::string contains = "Contains(body, '" + query + "')";
      EXPECT_NE(conn.MustExecute("EXPLAIN SELECT id FROM docs WHERE " +
                                 contains)
                    .message.find("DomainIndex(dtext)"),
                std::string::npos);
      EXPECT_EQ(ids(contains), want);
      EXPECT_EQ(ids("TextContains(body, '" + query + "')"), want);
    }
  }
  // The statistics price a stop word as held by every row, since a scan
  // reads every row for it, and an indexed term by its postings.
  OdciIndexInfo info;
  info.index_name = "dtext";
  info.parameters = ":Ignore the";
  text::TextStats stats;
  GuardedServerContext ctx(&db.catalog(), nullptr, CallbackMode::kScan);
  for (const auto& [query, want] :
       std::vector<std::pair<std::string, double>>{
           {"the", 1.0}, {"cat", 1.0 / 3}, {"the AND dog", 1.0 / 3}}) {
    Result<double> sel = stats.Selectivity(
        info, OdciPredInfo::BooleanTrue("Contains", {Value::Varchar(query)}),
        3, ctx);
    ASSERT_TRUE(sel.ok()) << sel.status().ToString();
    EXPECT_DOUBLE_EQ(*sel, want) << query;
  }
}

TEST_F(TextCartridgeTest, MalformedScanParametersAreRejected) {
  for (const char* params : {":Mode incremantal :ContextMode stat",
                             ":Mode whatever", ":ContextMode stat"}) {
    Result<QueryResult> r = conn_.Execute(
        std::string("CREATE INDEX rti ON employees(resume) INDEXTYPE IS "
                    "TextIndexType PARAMETERS ('") +
        params + "')");
    ASSERT_FALSE(r.ok()) << params;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  Result<QueryResult> r = conn_.Execute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType "
      "PARAMETERS (':Mode incremantal')");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("Mode incremantal"), std::string::npos)
      << r.status().ToString();

  conn_.MustExecute(
      "CREATE INDEX rti ON employees(resume) INDEXTYPE IS TextIndexType "
      "PARAMETERS (':Mode incremental :ContextMode state')");
  InsertResume("alice", 1, "Oracle expert");
  for (const char* params : {":Mode whatever", ":ContextMode stat"}) {
    Result<QueryResult> alter = conn_.Execute(
        std::string("ALTER INDEX rti PARAMETERS ('") + params + "')");
    ASSERT_FALSE(alter.ok()) << params;
    EXPECT_EQ(alter.status().code(), StatusCode::kInvalidArgument);
  }
  QueryResult stored = conn_.MustExecute(
      "SELECT parameters FROM user_indexes WHERE index_name = 'rti'");
  ASSERT_EQ(stored.rows.size(), 1u);
  EXPECT_EQ(stored.rows[0][0].AsVarchar(),
            ":Mode incremental :ContextMode state");
  EXPECT_EQ(QueryNames("Contains(resume, 'oracle')"),
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

// The legacy two-step path reads the sources a domain-index scan reads, so
// a stop word is answered from the base table and NOT ranges over non-NULL
// documents only: each query returns what Contains returns.
TEST(TextStopWordTest, LegacyTwoStepAnswersLikeContains) {
  Database db;
  Connection conn(&db);
  ASSERT_TRUE(InstallTextCartridge(&conn).ok());
  conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(200))");
  conn.MustExecute(
      "INSERT INTO docs VALUES (1, 'the cat'), (2, 'a dog'), (3, NULL)");
  conn.MustExecute(
      "CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType "
      "PARAMETERS (':Ignore the')");
  for (const auto& [query, want] :
       std::vector<std::pair<std::string, std::vector<int64_t>>>{
           {"the", {1}}, {"NOT cat", {2}}}) {
    SCOPED_TRACE(query);
    std::vector<int64_t> contains;
    for (const Row& row : conn.MustExecute("SELECT id FROM docs WHERE "
                                           "Contains(body, '" +
                                           query + "') ORDER BY id")
                              .rows) {
      contains.push_back(row[0].AsInteger());
    }
    std::vector<int64_t> legacy;
    ASSERT_TRUE(text::LegacyTextQuery(&db, "dtext", query,
                                      [&](RowId, const Row& row) {
                                        legacy.push_back(row[0].AsInteger());
                                      })
                    .ok());
    std::sort(legacy.begin(), legacy.end());
    EXPECT_EQ(contains, want);
    EXPECT_EQ(legacy, contains);
  }
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
  std::vector<Row> blocks() { return PostingBlockRows(db_, "dtext"); }
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
      BuiltDocs per_row(Build::kPerRow, Bodies(n), params);
      std::vector<Row> want = per_row.postings();
      if (n == 60) {
        ASSERT_FALSE(want.empty());
      }
      for (Build how : {Build::kBulk, Build::kBulkAtParallelism4}) {
        BuiltDocs bulk(how, Bodies(n), params);
        ExpectSameRows(bulk.postings(), want);
        // The blocks themselves are byte-identical: the encoding is
        // canonical.
        ExpectSameRows(bulk.blocks(), per_row.blocks());
      }
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

// ---- block-compressed postings ----

using text::DecodePostingBlock;
using text::EncodePostingBlock;
using text::kPostingBlockRids;
using text::Posting;
using text::PostingBlock;

// The postings of a block row, decoded; the decode must succeed.
std::vector<std::pair<RowId, int64_t>> Decoded(const Row& row) {
  std::vector<std::pair<RowId, int64_t>> out;
  Status s = DecodePostingBlock(row, [&](RowId rid, int64_t freq) {
    out.emplace_back(rid, freq);
    return true;
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

// Rids at a block's first and last slot land in that block and round-trip
// with freqs of one and several varint bytes, also under a LOCAL
// segment's high bits; df is the posting count; equal postings encode to
// equal bytes.
TEST(PostingBlockCodecTest, RoundTripsBlockEdgesLocalRidsAndLongFreqs) {
  for (RowId segment : {RowId(0), RowId(5)}) {
    const RowId k = 7;
    const RowId base = (segment << 44) + k * kPostingBlockRids;
    EXPECT_EQ(PostingBlock(base - 1), PostingBlock(base) - 1);
    EXPECT_EQ(PostingBlock(base + kPostingBlockRids - 1), PostingBlock(base));
    EXPECT_EQ(RowId(PostingBlock(base)) * kPostingBlockRids >> 44, segment);
    const std::vector<Posting> postings = {{base, 1},
                                           {base + 1, 127},
                                           {base + 200, 128},
                                           {base + 1023, 300000}};
    const Value token = Value::Varchar("w");
    const Row row = EncodePostingBlock(token, PostingBlock(base), postings);
    ASSERT_EQ(row.size(), 4u);
    EXPECT_EQ(row[2].AsInteger(), 4);  // df
    std::vector<std::pair<RowId, int64_t>> want;
    for (const Posting& p : postings) want.emplace_back(p.rid, p.freq);
    EXPECT_EQ(Decoded(row), want);
    EXPECT_TRUE(row[3].Equals(
        EncodePostingBlock(token, PostingBlock(base), postings)[3]));
    // 1-byte delta and freq, then 1 + 1, 2 + 2, and 2 + 3 bytes.
    EXPECT_EQ(row[3].AsBlob().size(), 2u + 2u + 4u + 5u);
  }
}

// Random inserts (new rids and new freqs for stored ones) and deletes
// merged into random blocks, LOCAL ones included, give exactly the bytes
// EncodePostingBlock gives for the model's postings, or no row once the
// block is empty; deleting an absent rid is NotFound.
TEST(PostingBlockCodecTest, MergeMatchesEncodingTheModel) {
  using text::MergePostingBlock;
  Rng rng(11);
  const Value token = Value::Varchar("w");
  for (int step = 0; step < 2000; ++step) {
    SCOPED_TRACE(step);
    const int64_t block =
        3 + (step % 2 == 0 ? 0 : PostingBlock(RowId(2) << 44));
    const RowId base = RowId(block) * kPostingBlockRids;
    std::map<RowId, int64_t> model;
    const uint64_t n = rng.Uniform(6) == 0 ? 0 : 1 + rng.Uniform(40);
    for (uint64_t i = 0; i < n; ++i) {
      model[base + rng.Uniform(kPostingBlockRids)] =
          1 + int64_t(rng.Uniform(300));
    }
    std::vector<Posting> stored;
    for (const auto& [rid, freq] : model) stored.push_back({rid, freq});
    const std::optional<Row> current =
        stored.empty() ? std::nullopt
                       : std::optional<Row>(
                             EncodePostingBlock(token, block, stored));
    const bool insert = rng.Uniform(2) == 0;
    std::map<RowId, int64_t> changes;
    const uint64_t m = 1 + rng.Uniform(8);
    for (uint64_t i = 0; i < m; ++i) {
      RowId rid = base + rng.Uniform(kPostingBlockRids);
      if (!insert && !model.empty() && rng.Uniform(4) != 0) {
        rid = std::next(model.begin(), rng.Uniform(model.size()))->first;
      }
      changes[rid] = 1 + int64_t(rng.Uniform(200));
    }
    bool absent = false;
    for (const auto& [rid, freq] : changes) {
      if (insert) {
        model[rid] = freq;
      } else {
        absent |= model.erase(rid) == 0;
      }
    }
    std::vector<Posting> call;
    for (const auto& [rid, freq] : changes) call.push_back({rid, freq});
    Result<std::optional<Row>> merged = MergePostingBlock(
        current ? &*current : nullptr, token, block, call, insert);
    if (absent) {
      EXPECT_EQ(merged.status().code(), StatusCode::kNotFound);
      continue;
    }
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    if (model.empty()) {
      EXPECT_FALSE(merged->has_value());
      continue;
    }
    std::vector<Posting> want;
    for (const auto& [rid, freq] : model) want.push_back({rid, freq});
    ASSERT_TRUE(merged->has_value());
    const Row expected = EncodePostingBlock(token, block, want);
    EXPECT_EQ(CompareKeys(**merged, expected), 0);
    EXPECT_EQ((**merged)[3].AsBlob().capacity(),
              (**merged)[3].AsBlob().size());
  }
}

// Malformed block rows are errors, never crashes or wrong postings.
TEST(PostingBlockCodecTest, MalformedBlocksAreErrors) {
  const Value token = Value::Varchar("w");
  const Row good = EncodePostingBlock(token, 3, std::vector<Posting>{
                                                    {3 * 1024 + 5, 2},
                                                    {3 * 1024 + 9, 200}});
  auto with_bytes = [&](std::vector<uint8_t> bytes, int64_t df) {
    return Row{token, good[1], Value::Integer(df),
               Value::Blob(std::move(bytes))};
  };
  const std::vector<uint8_t> bytes = good[3].AsBlob();  // 05 02 04 c8 01
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 1);
  std::vector<uint8_t> past_block = {0x80, 0x08, 0x01};  // delta 1024
  std::vector<uint8_t> repeated = {0x05, 0x01, 0x00, 0x01};
  std::vector<uint8_t> zero_freq = {0x05, 0x00};
  std::vector<uint8_t> overlong(11, 0xff);
  const std::vector<Row> bad = {
      with_bytes(truncated, 2),
      with_bytes(bytes, 3),  // df mismatch
      with_bytes(bytes, 1),
      with_bytes(past_block, 1),
      with_bytes(repeated, 2),
      with_bytes(zero_freq, 1),
      with_bytes(overlong, 1),
      with_bytes({}, 0),  // empty block
      {token, good[1], good[2]},
      {token, good[1], good[2], Value::Varchar("x")},
  };
  for (size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(i);
    Status s = DecodePostingBlock(bad[i], [](RowId, int64_t) { return true; });
    EXPECT_EQ(s.code(), StatusCode::kInternal);
  }
}

// A guard that counts the IOT range reads made through it.
class RangeReadCounter : public GuardedServerContext {
 public:
  using GuardedServerContext::GuardedServerContext;

  Status IotScanRange(const std::string& name, const CompositeKey* lo,
                      bool lo_inclusive, const CompositeKey* hi,
                      bool hi_inclusive,
                      FunctionRef<bool(const Row&)> visit) const override {
    ++reads;
    return GuardedServerContext::IotScanRange(name, lo, lo_inclusive, hi,
                                              hi_inclusive, visit);
  }

  mutable size_t reads = 0;
};

// docs(id, body) with a text index built as `params` says; ids start at 0
// and get rowids id + 1, so id 1022 holds the last rid of block 0 and id
// 1023 the first of block 1.
class TextBlockTest : public ::testing::Test {
 protected:
  TextBlockTest() : conn_(&db_) {
    EXPECT_TRUE(InstallTextCartridge(&conn_).ok());
    conn_.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(400))");
  }

  void CreateIndex(const std::string& params) {
    conn_.MustExecute(
        "CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType" +
        (params.empty() ? "" : " PARAMETERS ('" + params + "')"));
  }

  // Inserts ids [first, first + n), 100 rows to a statement.  Every body
  // holds "all"; ids 1022 and 1023 hold "edge"; id 5 holds "heavy" 130
  // times.
  void InsertDocs(int first, int n) {
    for (int id = first; id < first + n;) {
      std::string sql = "INSERT INTO docs VALUES ";
      for (int end = std::min(first + n, id + 100); id < end; ++id) {
        std::string body = "all w" + std::to_string(id % 13);
        if (id == 1022 || id == 1023) body += " edge";
        if (id == 5) {
          for (int i = 0; i < 130; ++i) body += " heavy";
        }
        sql += (sql.back() == ' ' ? "" : ", ") + std::string("(") +
               std::to_string(id) + ", '" + body + "')";
      }
      conn_.MustExecute(sql);
    }
  }

  std::vector<int64_t> Ids(const std::string& query) {
    std::vector<int64_t> ids;
    for (const Row& row :
         conn_.MustExecute("SELECT id FROM docs WHERE Contains(body, '" +
                           query + "') ORDER BY id")
             .rows) {
      ids.push_back(row[0].AsInteger());
    }
    return ids;
  }

  // The index's (block, df) pairs for `token`, in block order.
  std::vector<std::pair<int64_t, int64_t>> Blocks(const std::string& token) {
    std::vector<std::pair<int64_t, int64_t>> out;
    for (const Row& row : PostingBlockRows(db_, "dtext")) {
      if (row[0].AsVarchar() == token) {
        out.emplace_back(row[1].AsInteger(), row[2].AsInteger());
      }
    }
    return out;
  }

  // Every block row decodes, holds at least one posting, keeps its df
  // equal to the postings it holds, and every rid lies in its block.
  void ExpectWellFormedBlocks() {
    for (const Row& row : PostingBlockRows(db_, "dtext")) {
      std::vector<std::pair<RowId, int64_t>> postings = Decoded(row);
      ASSERT_FALSE(postings.empty()) << KeyToString(row);
      ASSERT_EQ(int64_t(postings.size()), row[2].AsInteger());
      for (const auto& [rid, freq] : postings) {
        ASSERT_EQ(PostingBlock(rid), row[1].AsInteger());
      }
    }
  }

  // The rids and scores a scan of `query` returns, fetched `max_rows` at a
  // time through the ODCI routines.  `*range_reads`, when given, receives
  // the IOT range reads the scan made.
  std::vector<std::pair<RowId, int64_t>> Scan(const std::string& params,
                                              const std::string& query,
                                              size_t max_rows,
                                              size_t* range_reads = nullptr) {
    OdciIndexInfo info;
    info.index_name = "dtext";
    info.table_name = "docs";
    info.column_positions = {1};
    info.parameters = params;
    text::TextIndexMethods methods;
    RangeReadCounter ctx(&db_.catalog(), nullptr, CallbackMode::kScan);
    Result<OdciScanContext> sctx = methods.Start(
        info, OdciPredInfo::BooleanTrue("Contains", {Value::Varchar(query)}),
        ctx);
    EXPECT_TRUE(sctx.ok()) << sctx.status().ToString();
    std::vector<std::pair<RowId, int64_t>> out;
    if (!sctx.ok()) return out;
    // The batch holding the last row is marked `last`; one more Fetch
    // returns an empty batch.
    size_t fetches = 0;
    bool marked = false;
    while (true) {
      OdciFetchBatch batch;
      Status s = methods.Fetch(info, *sctx, max_rows, &batch, ctx);
      ++fetches;
      EXPECT_TRUE(s.ok()) << s.ToString();
      if (!s.ok()) break;
      if (marked) {
        EXPECT_TRUE(batch.end_of_scan()) << "rows after the last batch";
        break;
      }
      marked = batch.last;
      if (batch.end_of_scan() && !marked) break;
      EXPECT_LE(batch.rids.size(), max_rows);
      for (size_t i = 0; i < batch.rids.size(); ++i) {
        out.emplace_back(batch.rids[i], batch.ancillary[i].AsInteger());
      }
    }
    EXPECT_TRUE(marked);
    EXPECT_EQ(fetches,
              std::max<size_t>(1, (out.size() + max_rows - 1) / max_rows) + 1);
    EXPECT_TRUE(methods.Close(info, *sctx, ctx).ok());
    if (range_reads != nullptr) *range_reads = ctx.reads;
    return out;
  }

  Database db_;
  Connection conn_;
};

// Postings on both sides of a block edge live in two rows; deleting a
// block's last posting deletes its row; a freq of 130 takes a two-byte
// varint and round-trips; df always equals the decoded count.
TEST_F(TextBlockTest, BlockEdgesAndEmptiedBlocks) {
  CreateIndex("");
  InsertDocs(0, 1030);
  using Blocks = std::vector<std::pair<int64_t, int64_t>>;
  EXPECT_EQ(this->Blocks("all"), (Blocks{{0, 1023}, {1, 7}}));
  EXPECT_EQ(this->Blocks("edge"), (Blocks{{0, 1}, {1, 1}}));
  EXPECT_EQ(Ids("edge"), (std::vector<int64_t>{1022, 1023}));
  bool heavy = false;
  for (const Row& p : PostingRows(db_, "dtext")) {
    if (p[0].AsVarchar() == "heavy") {
      EXPECT_EQ(p[1].AsInteger(), 6);  // id 5
      EXPECT_EQ(p[2].AsInteger(), 130);
      heavy = true;
    }
  }
  EXPECT_TRUE(heavy);
  ExpectWellFormedBlocks();

  conn_.MustExecute("DELETE FROM docs WHERE id = 1023");
  EXPECT_EQ(this->Blocks("edge"), (Blocks{{0, 1}}));
  EXPECT_EQ(Ids("edge"), (std::vector<int64_t>{1022}));
  conn_.MustExecute("DELETE FROM docs WHERE id >= 1023");
  EXPECT_EQ(this->Blocks("all"), (Blocks{{0, 1023}}));
  conn_.MustExecute("DELETE FROM docs WHERE id = 5");
  EXPECT_TRUE(this->Blocks("heavy").empty());
  ExpectWellFormedBlocks();
  EXPECT_EQ(Ids("all").size(), 1022u);
}

// Incremental Fetch resumes inside a block and across block edges at any
// batch size, and returns what Precompute-All returns through a handle
// or through Return State.
TEST_F(TextBlockTest, IncrementalFetchCrossesBlockEdgesAtAnyBatchSize) {
  CreateIndex("");
  InsertDocs(0, 2100);
  std::vector<std::pair<RowId, int64_t>> want;
  for (RowId rid = 1; rid <= 2100; ++rid) want.emplace_back(rid, 1);
  for (size_t max_rows : {size_t(1), size_t(3), size_t(1023), size_t(1024),
                          size_t(5000)}) {
    SCOPED_TRACE(max_rows);
    EXPECT_EQ(Scan(":Mode incremental", "all", max_rows), want);
    EXPECT_EQ(Scan("", "all", max_rows), want);
    EXPECT_EQ(Scan(":ContextMode state", "all", max_rows), want);
    EXPECT_EQ(Scan(":Mode incremental", "edge", max_rows),
              (std::vector<std::pair<RowId, int64_t>>{{1023, 1}, {1024, 1}}));
  }
  EXPECT_EQ(ScanWorkspaceRegistry::Global().active_count(), 0u);
}

// An incremental scan reads and decodes each block once: fetched one row
// at a time, a one-block term of 1,000 postings takes one range read for
// its block and one that finds no further block.
TEST_F(TextBlockTest, IncrementalFetchReadsEachBlockOnce) {
  CreateIndex("");
  InsertDocs(0, 1000);
  size_t reads = 0;
  EXPECT_EQ(Scan(":Mode incremental", "all", 1, &reads).size(), 1000u);
  EXPECT_LE(reads, 2u);
  EXPECT_EQ(ScanWorkspaceRegistry::Global().active_count(), 0u);
}

// A block row damaged in the IOT (a truncated varint, a df that differs
// from its postings) makes scans and maintenance that read it fail with an
// error, in every scan mode.
TEST(TextCorruptBlockTest, CorruptBlocksAreErrorsNotCrashes) {
  for (const char* params : {"", ":Mode incremental", ":ContextMode state"}) {
    for (int damage = 0; damage < 2; ++damage) {
      SCOPED_TRACE(std::string(params) +
                   (damage == 0 ? " truncated varint" : " df mismatch"));
      Database db;
      Connection conn(&db);
      ASSERT_TRUE(InstallTextCartridge(&conn).ok());
      conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(64))");
      conn.MustExecute(
          "INSERT INTO docs VALUES (1, 'alpha beta'), (2, 'alpha'), "
          "(3, 'alpha gamma')");
      conn.MustExecute(
          std::string("CREATE INDEX dtext ON docs(body) INDEXTYPE IS "
                      "TextIndexType PARAMETERS ('") +
          params + "')");
      Iot* iot = *db.catalog().GetIot("dtext$ptab");
      const CompositeKey key = {Value::Varchar("alpha"), Value::Integer(0)};
      Row row = *iot->Get(key);
      std::vector<uint8_t> bytes = row[3].AsBlob();
      if (damage == 0) {
        bytes.back() |= 0x80;  // the last freq now claims another byte
      } else {
        row[2] = Value::Integer(row[2].AsInteger() + 1);
      }
      row[3] = Value::Blob(bytes);
      ASSERT_TRUE(
          iot->MergeSorted(
                 {key},
                 [&row](size_t, const Row*) -> Result<std::optional<Row>> {
                   return std::optional<Row>(row);
                 },
                 nullptr)
              .ok());
      EXPECT_FALSE(
          conn.Execute("SELECT id FROM docs WHERE Contains(body, 'alpha')")
              .ok());
      EXPECT_FALSE(conn.Execute("INSERT INTO docs VALUES (4, 'alpha')").ok());
      EXPECT_FALSE(conn.Execute("DELETE FROM docs WHERE id = 2").ok());
    }
  }
}

// A LOCAL index keeps each partition's rids, segment bits included, in
// blocks of their own, and answers as the functional evaluation does.
TEST(TextLocalBlockTest, LocalSlicesKeepSegmentBitsInTheirBlocks) {
  Database db;
  Connection conn(&db);
  ASSERT_TRUE(InstallTextCartridge(&conn).ok());
  conn.MustExecute(
      "CREATE TABLE docs (id INTEGER, body VARCHAR(64)) "
      "PARTITION BY RANGE (id) (PARTITION d0 VALUES LESS THAN (1500), "
      "PARTITION d1 VALUES LESS THAN (MAXVALUE))");
  for (int id = 0; id < 3000; id += 100) {
    std::string sql = "INSERT INTO docs VALUES ";
    for (int i = id; i < id + 100; ++i) {
      sql += std::string(i > id ? ", " : "") + "(" + std::to_string(i) +
             ", 'all w" + std::to_string(i % 7) + "')";
    }
    conn.MustExecute(sql);
  }
  const std::string query =
      "SELECT id FROM docs WHERE Contains(body, 'w3') ORDER BY id";
  QueryResult functional = conn.MustExecute(query);
  conn.MustExecute(
      "CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType");
  QueryResult indexed = conn.MustExecute(query);
  ASSERT_EQ(indexed.rows.size(), functional.rows.size());
  for (size_t i = 0; i < indexed.rows.size(); ++i) {
    ASSERT_EQ(indexed.rows[i][0].AsInteger(),
              functional.rows[i][0].AsInteger());
  }
  std::set<uint32_t> segments;
  size_t postings = 0;
  for (const std::string& name : db.catalog().IotNames()) {
    for (const Row& row : IotRows(db, name)) {
      for (const auto& [rid, freq] : Decoded(row)) {
        ASSERT_EQ(PostingBlock(rid), row[1].AsInteger());
        segments.insert(HeapTable::SegmentOf(rid));
        ++postings;
      }
    }
  }
  EXPECT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments.count(0), 0u);  // every rid is a partition's
  EXPECT_EQ(postings, 3000u * 2u);
}

// Maintained blocks equal bulk-built ones byte for byte across several
// blocks, after inserts, deletes and updates that re-encode them.
TEST(TextBuildEquivalenceTest, BulkAndMaintainedBlocksAreByteIdentical) {
  std::vector<Row> blocks[2];
  for (int maintained = 0; maintained < 2; ++maintained) {
    Database db;
    Connection conn(&db);
    ASSERT_TRUE(InstallTextCartridge(&conn).ok());
    conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(200))");
    const std::string create =
        "CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType";
    if (maintained) conn.MustExecute(create);
    for (int id = 0; id < 2500; id += 100) {
      std::string sql = "INSERT INTO docs VALUES ";
      for (int i = id; i < id + 100; ++i) {
        std::string body;
        for (int w = 0; w < 3 + i % 5; ++w) {
          body += "w" + std::to_string((i * 7 + w * w) % 40) + " ";
        }
        sql += std::string(i > id ? ", " : "") + "(" + std::to_string(i) +
               ", '" + body + "')";
      }
      conn.MustExecute(sql);
    }
    conn.MustExecute("DELETE FROM docs WHERE id >= 1000 AND id < 1100");
    conn.MustExecute("UPDATE docs SET body = 'w1 w1 w2 fresh' WHERE id < 30");
    if (!maintained) conn.MustExecute(create);
    blocks[maintained] = PostingBlockRows(db, "dtext");
  }
  ASSERT_GT(blocks[0].size(), 100u);
  ExpectSameRows(blocks[1], blocks[0]);
}

// ---- posting oracle ----

// A text index's postings, checked against (token, rid) -> count taken
// from Tokenizer::Tokenize over the heap alone, with no index code, after
// CREATE INDEX and after each multi-row DML statement or ROLLBACK.
class PostingOracle {
 public:
  PostingOracle(bool local, uint64_t seed) : conn_(&db_), rng_(seed) {
    EXPECT_TRUE(InstallTextCartridge(&conn_).ok());
    conn_.MustExecute(
        std::string("CREATE TABLE docs (id INTEGER, body VARCHAR(200))") +
        (local ? " PARTITION BY RANGE (id) (PARTITION d0 VALUES LESS THAN "
                 "(1200), PARTITION d1 VALUES LESS THAN (MAXVALUE))"
               : ""));
  }

  // A body drawn from a small vocabulary with stop words, mixed case,
  // punctuation and repeated tokens, or NULL one time in eight.
  std::string Body() {
    static const char* kWords[] = {"the", "A", "oracle", "Index", "index",
                                   "w1", "w2", "w3", "cartridge", "an"};
    if (rng_.Uniform(8) == 0) return "NULL";
    std::string body;
    for (uint64_t w = 0, n = 1 + rng_.Uniform(7); w < n; ++w) {
      body += std::string(kWords[rng_.Uniform(10)]) +
              (rng_.Uniform(3) == 0 ? ", " : " ");
    }
    return "'" + body + "'";
  }

  // One INSERT of the rows with ids [begin, end).
  std::string InsertRows(int begin, int end) {
    std::string sql = "INSERT INTO docs VALUES ";
    for (int id = begin; id < end; ++id) {
      sql += std::string(id > begin ? ", (" : "(") + std::to_string(id) +
             ", " + Body() + ")";
    }
    return sql;
  }

  // Runs `sql`, then checks every posting against the oracle.  When
  // `one_run`, the statement wrote each slice in one run, and the block
  // rows it wrote share one token payload per token and slice.
  void Run(const std::string& sql, bool one_run) {
    SCOPED_TRACE(sql.substr(0, 60));
    std::map<std::string, std::vector<Row>> before;
    for (const std::string& iot : PostingIots()) {
      before[iot] = IotRows(db_, iot);
    }
    conn_.MustExecute(sql);
    std::vector<Row> postings;
    for (const std::string& iot : PostingIots()) {
      // A row the statement did not write keeps its BLOB box; `before`
      // holds every old box, so no new row can reuse one's address.
      std::set<const void*> kept;
      for (const Row& row : before[iot]) kept.insert(&row[3].AsBlob());
      std::map<std::string, const std::string*> payload;
      std::set<uint32_t> segments;
      for (const Row& row : IotRows(db_, iot)) {
        if (one_run && !kept.count(&row[3].AsBlob())) {
          auto [it, added] =
              payload.try_emplace(row[0].AsVarchar(), &row[0].AsVarchar());
          EXPECT_EQ(it->second, &row[0].AsVarchar())
              << iot << ": token " << row[0].AsVarchar() << " block "
              << row[1].AsInteger();
        }
        ASSERT_TRUE(text::DecodePostingBlock(row, [&](RowId rid,
                                                      int64_t freq) {
                      segments.insert(HeapTable::SegmentOf(rid));
                      postings.push_back({row[0], Value::Integer(int64_t(rid)),
                                          Value::Integer(freq)});
                      return true;
                    }).ok());
      }
      EXPECT_LE(segments.size(), 1u) << iot;
    }
    std::sort(postings.begin(), postings.end(),
              [](const Row& a, const Row& b) { return CompareKeys(a, b) < 0; });
    ExpectSameRows(postings, Expected());
  }

  // (token, rid, count) rows from the heap, in key order, with the stop
  // words the index's PARAMETERS name.
  std::vector<Row> Expected() {
    text::Tokenizer tokenizer("English", {"the", "a", "an"});
    std::map<std::pair<std::string, RowId>, int64_t> counts;
    HeapTable* docs = *db_.catalog().GetTable("docs");
    for (auto it = docs->Scan(); it.Valid(); it.Next()) {
      if (it.row()[1].is_null()) continue;
      for (const std::string& token :
           tokenizer.Tokenize(it.row()[1].AsVarchar())) {
        ++counts[{token, it.row_id()}];
      }
    }
    std::vector<Row> rows;
    for (const auto& [key, count] : counts) {
      rows.push_back({Value::Varchar(key.first),
                      Value::Integer(int64_t(key.second)),
                      Value::Integer(count)});
    }
    return rows;
  }

  // The posting IOTs of index dtext: one, or one per LOCAL slice.
  std::vector<std::string> PostingIots() {
    std::vector<std::string> names;
    for (const std::string& name : db_.catalog().IotNames()) {
      if (name.starts_with("dtext") && name.ends_with("$ptab")) {
        names.push_back(name);
      }
    }
    return names;
  }

  Connection& conn() { return conn_; }

 private:
  Database db_;
  Connection conn_;
  Rng rng_;
};

TEST(TextPostingOracleTest, BuildAndMaintenanceMatchTheTokenizer) {
  for (bool local : {false, true}) {
    for (uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(std::string(local ? "LOCAL" : "global") + " seed " +
                   std::to_string(seed));
      PostingOracle oracle(local, seed);
      // Ids from 1000 on cross the first 1,024-rid block edge of the
      // global index and of partition d0.
      for (int id = 0; id < 1000; id += 250) {
        oracle.conn().MustExecute(oracle.InsertRows(id, id + 250));
      }
      oracle.Run("CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType "
                 "PARAMETERS (':Ignore the a an')",
                 /*one_run=*/true);
      ASSERT_FALSE(oracle.Expected().empty());
      oracle.Run(oracle.InsertRows(1000, 1300), /*one_run=*/true);
      // An UPDATE makes a delete run, then an insert run.
      oracle.Run("UPDATE docs SET body = 'w1 W1 fresh the w2' "
                 "WHERE id >= 1010 AND id < 1030",
                 /*one_run=*/false);
      oracle.Run("DELETE FROM docs WHERE id >= 1015 AND id < 1040",
                 /*one_run=*/true);
      oracle.conn().MustExecute("BEGIN");
      oracle.Run(oracle.InsertRows(1300, 1320), /*one_run=*/true);
      oracle.Run("UPDATE docs SET body = NULL WHERE id >= 1005 AND id < 1012",
                 /*one_run=*/false);
      oracle.Run("DELETE FROM docs WHERE id < 20", /*one_run=*/true);
      oracle.Run("ROLLBACK", /*one_run=*/false);
    }
  }
}

// ---- differential: index scans against the functional Contains ----

// A random document over a small vocabulary with stop words, mixed case,
// digits, punctuation and repeated words, or NULL one time in eight.
std::string RandomBody(Rng* rng) {
  static const char* kWords[] = {"the", "The", "a", "AN", "oracle",
                                 "Oracle", "index", "w1", "W2", "42",
                                 "x9y", "cartridge", "DB2"};
  static const char* kGaps[] = {" ", ", ", "-", ". ", "!? ", "/"};
  if (rng->Uniform(8) == 0) return "NULL";
  std::string body;
  std::string word;
  for (uint64_t w = 0, n = 1 + rng->Uniform(8); w < n; ++w) {
    if (w == 0 || rng->Uniform(4) != 0) word = kWords[rng->Uniform(13)];
    body += word + kGaps[rng->Uniform(6)];
  }
  return "'" + body + "'";
}

// A random AND / OR / NOT query over the documents' words and one they
// never hold.
std::string RandomQuery(Rng* rng, int depth = 0) {
  static const char* kTerms[] = {"the", "A", "an", "oracle", "INDEX", "w1",
                                 "w2", "42", "X9Y", "db2", "cartridge",
                                 "absent"};
  const uint64_t shape = depth >= 3 ? 0 : rng->Uniform(6);
  if (shape <= 1) return kTerms[rng->Uniform(12)];
  if (shape == 2) return "NOT " + RandomQuery(rng, depth + 1);
  return "(" + RandomQuery(rng, depth + 1) +
         (shape == 3 ? " AND " : shape == 4 ? " OR " : " ") +
         RandomQuery(rng, depth + 1) + ")";
}

// Seeded random documents and queries: each query's rows through the text
// index (global, or LOCAL over two partitions; Precompute-All and
// Incremental; after CREATE INDEX and after DML) equal TextContains' rows.
TEST(TextDifferentialTest, IndexScansMatchTheFunctionalContains) {
  for (bool local : {false, true}) {
    for (uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(std::string(local ? "LOCAL" : "global") + " seed " +
                   std::to_string(seed));
      Rng rng(seed);
      Database db;
      Connection conn(&db);
      ASSERT_TRUE(InstallTextCartridge(&conn).ok());
      conn.MustExecute(
          std::string("CREATE TABLE docs (id INTEGER, body VARCHAR(200))") +
          (local ? " PARTITION BY RANGE (id) (PARTITION d0 VALUES LESS THAN "
                   "(150), PARTITION d1 VALUES LESS THAN (MAXVALUE))"
                 : ""));
      auto insert = [&](int begin, int end) {
        std::string sql = "INSERT INTO docs VALUES ";
        for (int id = begin; id < end; ++id) {
          sql += std::string(id > begin ? ", (" : "(") + std::to_string(id) +
                 ", " + RandomBody(&rng) + ")";
        }
        conn.MustExecute(sql);
      };
      insert(0, 300);
      conn.MustExecute(
          "CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType "
          "PARAMETERS (':Ignore the a an')");
      auto ids = [&](const std::string& where) {
        std::vector<int64_t> out;
        for (const Row& row :
             conn.MustExecute("SELECT id FROM docs WHERE " + where +
                              " ORDER BY id")
                 .rows) {
          out.push_back(row[0].AsInteger());
        }
        return out;
      };
      auto check = [&](const char* when) {
        for (int q = 0; q < 25; ++q) {
          const std::string query = RandomQuery(&rng);
          SCOPED_TRACE(std::string(when) + ": " + query);
          const std::string contains = "Contains(body, '" + query + "')";
          ASSERT_NE(conn.MustExecute("EXPLAIN SELECT id FROM docs WHERE " +
                                     contains)
                        .message.find("DomainIndex(dtext"),
                    std::string::npos);
          EXPECT_EQ(ids(contains), ids("TextContains(body, '" + query + "')"));
        }
      };
      check("built");
      insert(300, 360);
      conn.MustExecute("UPDATE docs SET body = 'The W1 w1 oracle' "
                       "WHERE id >= 140 AND id < 170");
      conn.MustExecute("UPDATE docs SET body = NULL WHERE id >= 20 AND id < 25");
      conn.MustExecute("DELETE FROM docs WHERE id >= 100 AND id < 130");
      check("maintained");
      conn.MustExecute("ALTER INDEX dtext PARAMETERS (':Mode incremental')");
      check("incremental");
    }
  }
}

// Array maintenance called directly with rids in descending order, across
// block edges: the postings equal (token, rid) -> count taken from
// Tokenizer::Tokenize, after the insert and after deleting every third row.
TEST(TextPostingOracleTest, DescendingBatchesMatchTheTokenizer) {
  Database db;
  Connection conn(&db);
  ASSERT_TRUE(InstallTextCartridge(&conn).ok());
  conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(200))");
  conn.MustExecute(
      "CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType "
      "PARAMETERS (':Ignore the a an')");
  OdciIndexInfo info;
  info.index_name = "dtext";
  info.table_name = "docs";
  info.column_positions = {1};
  info.parameters = ":Ignore the a an";
  Rng rng(7);
  std::map<RowId, std::string> docs;
  std::vector<RowId> rids;
  ValueList values;
  for (RowId rid = 2100; rid > 1000; rid -= 1 + rng.Uniform(5)) {
    std::string body = RandomBody(&rng);
    if (body == "NULL") continue;
    body = body.substr(1, body.size() - 2);
    docs[rid] = body;
    rids.push_back(rid);
    values.push_back(Value::Varchar(body));
  }
  auto expect_postings = [&] {
    const text::Tokenizer tokenizer("English", {"the", "a", "an"});
    std::map<std::pair<std::string, RowId>, int64_t> counts;
    for (const auto& [rid, body] : docs) {
      for (const std::string& token : tokenizer.Tokenize(body)) {
        ++counts[{token, rid}];
      }
    }
    std::vector<Row> want;
    for (const auto& [key, count] : counts) {
      want.push_back({Value::Varchar(key.first),
                      Value::Integer(int64_t(key.second)),
                      Value::Integer(count)});
    }
    ASSERT_FALSE(want.empty());
    ExpectSameRows(PostingRows(db, "dtext"), want);
  };
  text::TextIndexMethods methods;
  GuardedServerContext ctx(&db.catalog(), nullptr, CallbackMode::kMaintenance);
  ASSERT_TRUE(methods.BatchInsert(info, rids, values, ctx).ok());
  expect_postings();
  std::vector<RowId> gone_rids;
  ValueList gone_values;
  for (size_t i = 0; i < rids.size(); i += 3) {
    gone_rids.push_back(rids[i]);
    gone_values.push_back(values[i]);
    docs.erase(rids[i]);
  }
  ASSERT_TRUE(methods.BatchDelete(info, gone_rids, gone_values, ctx).ok());
  expect_postings();
}

// A join probe whose argument is NULL gets the operator's functional
// answer, which depends on the argument tuple alone, so it is computed once
// per distinct tuple in an execution: 50 NULL terms among 50 real ones cost
// one functional pass over the 2,000 docs, not 50, and the join returns
// the rows it returned before the index existed.
TEST(TextJoinTest, NullArgumentProbesEvaluateOnePassPerTuple) {
  Database db;
  Connection conn(&db);
  ASSERT_TRUE(InstallTextCartridge(&conn).ok());
  conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(64))");
  for (int id = 0; id < 2000;) {
    std::string sql = "INSERT INTO docs VALUES ";
    for (int end = id + 200; id < end; ++id) {
      sql += (sql.back() == ' ' ? "" : ", ") + std::string("(") +
             std::to_string(id) + ", 'w" + std::to_string(id % 50) +
             " common')";
    }
    conn.MustExecute(sql);
  }
  conn.MustExecute("CREATE TABLE q (k INTEGER, term VARCHAR(16))");
  std::string sql = "INSERT INTO q VALUES ";
  for (int k = 0; k < 100; ++k) {
    sql += (k ? ", (" : "(") + std::to_string(k) + ", " +
           (k % 2 ? std::string("NULL") : "'w" + std::to_string(k / 2) + "'") +
           ")";
  }
  conn.MustExecute(sql);
  const std::string join =
      "SELECT q.k, d.id FROM q, docs d WHERE Contains(d.body, q.term)";
  auto sorted_rows = [&] {
    std::vector<std::pair<int64_t, int64_t>> rows;
    for (const Row& row : conn.MustExecute(join).rows) {
      rows.emplace_back(row[0].AsInteger(), row[1].AsInteger());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  const std::vector<std::pair<int64_t, int64_t>> before = sorted_rows();
  ASSERT_EQ(before.size(), 2000u);
  conn.MustExecute(
      "CREATE INDEX dtext ON docs(body) INDEXTYPE IS TextIndexType");
  EXPECT_NE(conn.MustExecute("EXPLAIN " + join).message.find(
                "DomainIndexJoin(inner=docs via dtext"),
            std::string::npos);
  StorageMetrics start = GlobalMetrics().Snapshot();
  EXPECT_EQ(sorted_rows(), before);
  EXPECT_EQ(GlobalMetrics().Snapshot().Delta(start).functional_evaluations,
            2000u);
}

}  // namespace
}  // namespace exi
