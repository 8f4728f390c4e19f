// A seeded, deterministic random-input loop over the SQL parser and the
// PARAMETERS parsers: statements like those of the tests and examples, cut,
// spliced and with bytes flipped, go to sql::ParseScript, and mutated
// PARAMETERS strings go to CREATE INDEX and ALTER INDEX of every indextype
// over a 3-row table.  Every call must return a Status; none may crash
// (run under ASan+UBSan, a crash or undefined behaviour fails the case).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cartridge/chem/chem_cartridge.h"
#include "cartridge/domain_btree/domain_btree.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "cartridge/varray/varray_cartridge.h"
#include "cartridge/vir/vir_cartridge.h"
#include "common/rng.h"
#include "engine/connection.h"
#include "sql/parser.h"
#include "temp_path.h"

namespace exi {
namespace {

const std::vector<std::string>& Statements() {
  static const std::vector<std::string> all = {
      "CREATE TABLE docs (id INTEGER, body VARCHAR(200))",
      "CREATE TABLE parks (gid INTEGER, geometry OBJECT SDO_GEOMETRY)",
      "CREATE TABLE emp (name VARCHAR(40), hobbies VARRAY OF VARCHAR)",
      "CREATE TABLE sales (id INTEGER, amount INTEGER) PARTITION BY RANGE "
      "(id) (PARTITION p_low VALUES LESS THAN (100), PARTITION p_high "
      "VALUES LESS THAN (MAXVALUE))",
      "CREATE TABLE h (id INTEGER, v DOUBLE) PARTITION BY HASH (id) "
      "PARTITIONS 4",
      "INSERT INTO docs VALUES (1, 'oracle index'), (2, NULL), (3, 'it''s')",
      "INSERT INTO parks VALUES (1, SDO_GEOMETRY(0,0,10,10))",
      "INSERT INTO emp VALUES ('alice', VARRAY_OF('Skiing', 'Chess'))",
      "SELECT id FROM docs WHERE Contains(body, 'oracle AND NOT data')",
      "SELECT id, Score(1) FROM docs WHERE Contains(body, 'oracle', 1) > 0 "
      "ORDER BY Score(1) DESC",
      "SELECT gid FROM parks WHERE Sdo_Relate(geometry, "
      "SDO_GEOMETRY(40,40,60,60), 'mask=ANYINTERACT') ORDER BY gid",
      "SELECT a.gid, b.gid FROM roads a, parks b WHERE "
      "Sdo_Relate(a.geometry, b.geometry, 'mask=ANYINTERACT')",
      "SELECT d.id FROM docs d, t WHERE d.id = t.id AND t.v >= 3 AND "
      "t.v <= 7.5 OR t.v <> -2",
      "SELECT COUNT(*) FROM docs WHERE id BETWEEN 3 AND 6 AND body LIKE "
      "'%or_cle%'",
      "SELECT id FROM x WHERE VIRSimilar(c, IMAGE_T(0.1,0.2,0.3,0.4,0.5,0.6,"
      "0.7,0.8,0.9,1,0,0,0,0,0,0), 'globalcolor=1,texture=0.5', 0.5)",
      "SELECT id FROM mols WHERE MolSim(smiles, 'CCO') >= 0.5",
      "SELECT id FROM t WHERE DEq(v, 3) = 0",
      "UPDATE docs SET body = 'omega zeta' WHERE id <= 2",
      "UPDATE x SET c = c WHERE id BETWEEN 1 AND 20",
      "DELETE FROM docs WHERE id = 5",
      "CREATE OPERATOR FEq BINDING (INTEGER, INTEGER) RETURN BOOLEAN USING "
      "FEqFn",
      "CREATE INDEXTYPE FlakyType FOR FEq(INTEGER, INTEGER) USING "
      "FlakyIndexMethods",
      "CREATE INDEX d ON docs(body) INDEXTYPE IS TextIndexType PARAMETERS "
      "(':Language English :Ignore the a an')",
      "CREATE INDEX s ON sales(amount) USING BTREE",
      "CREATE INDEX b ON t(u, v)",
      "ALTER INDEX d PARAMETERS (':Ignore COBOL')",
      "ALTER INDEX d REBUILD PARTITION p_low",
      "ALTER TABLE sales ADD PARTITION p_mid VALUES LESS THAN (200)",
      "ALTER TABLE sales DROP PARTITION p_low",
      "ALTER TABLE sales TRUNCATE PARTITION p_high",
      "TRUNCATE TABLE docs",
      "DROP INDEX d",
      "DROP TABLE docs",
      "EXPLAIN SELECT id FROM docs WHERE Contains(body, 'oracle')",
      "ANALYZE docs",
      "BEGIN",
      "COMMIT",
      "ROLLBACK",
      "SET FAILPOINT 'odci/insert' = 'nth=2 status=IoError'",
      "SELECT * FROM v$odci_calls",
      "SELECT status FROM v$domain_indexes WHERE index_name = 'six'",
  };
  return all;
}

// Bytes a mutation writes: SQL punctuation, letters, digits, quotes and a
// few bytes outside ASCII.
char RandomByte(Rng& rng) {
  static const char kBytes[] =
      "()',;.*=<>!-+%_ :$#\"\\\n\t0123456789aZeEINTOSELCTFRMWHpq\x01\x7f"
      "\x80\xc3\xa9\xff";
  return kBytes[rng.Uniform(sizeof(kBytes) - 1)];
}

// One random edit of `s`, given the corpus for splices: a flipped byte, an
// inserted byte, a cut range, a duplicated range, or a splice of a prefix
// of `s` with a suffix of another corpus entry.
std::string Mutate(std::string s, const std::vector<std::string>& corpus,
                   Rng& rng) {
  const size_t edits = 1 + rng.Uniform(4);
  for (size_t e = 0; e < edits; ++e) {
    const size_t at = s.empty() ? 0 : rng.Uniform(s.size() + 1);
    switch (rng.Uniform(5)) {
      case 0:
        if (at < s.size()) s[at] = RandomByte(rng);
        break;
      case 1:
        s.insert(s.begin() + at, RandomByte(rng));
        break;
      case 2:
        s.erase(at, rng.Uniform(16));
        break;
      case 3:
        s.insert(at, s.substr(at, rng.Uniform(16)));
        break;
      default: {
        const std::string& other = corpus[rng.Uniform(corpus.size())];
        s = s.substr(0, at) + other.substr(rng.Uniform(other.size() + 1));
        break;
      }
    }
  }
  return s;
}

TEST(ParserFuzzTest, MutatedStatementsReturnAStatus) {
  Rng rng(20261021);
  size_t parsed = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::vector<std::string>& corpus = Statements();
    std::string sql = corpus[rng.Uniform(corpus.size())];
    sql = Mutate(std::move(sql), corpus, rng);
    if (rng.Uniform(4) == 0) sql += "; " + Mutate(sql, corpus, rng);
    if (sql::ParseScript(sql).ok()) ++parsed;
  }
  // Most mutants are malformed, and some are not.
  EXPECT_GT(parsed, 0u);
  EXPECT_LT(parsed, 20000u);
}

// One indextype: its column type, three values and the CREATE INDEX tail.
struct FuzzIndextype {
  const char* column_type;
  const char* values[3];
  const char* indextype;
};

const FuzzIndextype kIndextypes[] = {
    {"VARCHAR(64)", {"'oracle index'", "NULL", "'the data'"},
     "TextIndexType"},
    {"OBJECT SDO_GEOMETRY",
     {"SDO_GEOMETRY(0,0,10,10)", "SDO_GEOMETRY(20,20,30,30)", "NULL"},
     "SpatialIndexType"},
    {"OBJECT SDO_GEOMETRY",
     {"SDO_GEOMETRY(0,0,10,10)", "NULL", "SDO_GEOMETRY(5,5,25,25)"},
     "RtreeIndexType"},
    {"VARCHAR(64)", {"'CCO'", "'CC(=O)O'", "NULL"}, "ChemIndexType"},
    {"OBJECT IMAGE_T",
     {"IMAGE_T(0.1,0.1,0.1,0.1,0.2,0.2,0.2,0.2,0.3,0.3,0.3,0.3,0.4,0.4,0.4,"
      "0.4)",
      "NULL",
      "IMAGE_T(0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,"
      "0.5)"},
     "VirIndexType"},
    {"VARRAY OF VARCHAR",
     {"VARRAY_OF('Skiing', 'Chess')", "NULL", "VARRAY_OF('Golf')"},
     "VarrayIndexType"},
    {"INTEGER", {"3", "NULL", "7"}, "DomainBtreeType"},
};

const std::vector<std::string>& Parameters() {
  static const std::vector<std::string> all = {
      ":Language English :Ignore the a an",
      ":Ignore the",
      ":Mode incremental",
      ":Mode bogus",
      ":ContextMode state",
      ":ContextMode handle",
      ":TileLevel 6",
      ":TileLevel 16",
      ":TileLevel 0",
      ":Storage file",
      ":Storage lob",
      ":Comment resized",
      "",
      ":",
      "::TileLevel",
  };
  return all;
}

TEST(ParserFuzzTest, MutatedParametersReturnAStatus) {
  ScopedTempPath root("extidx_param_fuzz");
  Database db;
  db.catalog().set_external_root(root.str());
  Connection conn(&db);
  ASSERT_TRUE(text::InstallTextCartridge(&conn).ok());
  ASSERT_TRUE(spatial::InstallSpatialCartridge(&conn).ok());
  ASSERT_TRUE(chem::InstallChemCartridge(&conn).ok());
  ASSERT_TRUE(vir::InstallVirCartridge(&conn).ok());
  ASSERT_TRUE(varr::InstallVarrayCartridge(&conn).ok());
  ASSERT_TRUE(dbt::InstallDomainBtreeCartridge(&conn).ok());
  Rng rng(36);
  size_t created = 0;
  for (size_t t = 0; t < std::size(kIndextypes); ++t) {
    const FuzzIndextype& type = kIndextypes[t];
    const std::string table = "t" + std::to_string(t);
    conn.MustExecute("CREATE TABLE " + table + " (id INTEGER, c " +
                     type.column_type + ")");
    for (int i = 0; i < 3; ++i) {
      conn.MustExecute("INSERT INTO " + table + " VALUES (" +
                       std::to_string(i) + ", " + type.values[i] + ")");
    }
    for (int i = 0; i < 40; ++i) {
      const std::vector<std::string>& corpus = Parameters();
      const std::string create =
          Mutate(corpus[rng.Uniform(corpus.size())], corpus, rng);
      Result<QueryResult> r = conn.Execute(
          "CREATE INDEX xi ON " + table + "(c) INDEXTYPE IS " +
          type.indextype + " PARAMETERS ('" + create + "')");
      if (!r.ok()) continue;
      ++created;
      const std::string alter =
          Mutate(corpus[rng.Uniform(corpus.size())], corpus, rng);
      (void)conn.Execute("ALTER INDEX xi PARAMETERS ('" + alter + "')");
      conn.MustExecute("DROP INDEX xi");
    }
  }
  EXPECT_GT(created, 0u);
}

}  // namespace
}  // namespace exi
