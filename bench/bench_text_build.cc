// Index build: wall time of `CREATE INDEX` at session parallelism 1, where
// every cartridge builds with one ODCIIndexCreate.  Text at 10k, 20k and
// 50k documents (tokenize the table in rid order onto one posting list per
// token, no sort, one sorted IotBulkLoad); the spatial tile index over
// 20k rectangles at :TileLevel 6 and VIR over 20k images.  Emits
// BENCH_text_build.json.
//
// Each configuration is built once per repetition on the same table (DROP
// INDEX in between; builds over one table alternate).  Next to the times
// it records host-independent work counts for one build (IOT entries
// written, logical reads), the row count of a query through the index,
// the row count of the same query before any index exists
// (`functional_rows`: the operator's function, TextContains for text,
// evaluated on every row), the postings the index holds, and the growth of glibc's in-use heap
// (`mallinfo2().uordblks`) across the first build divided by each count:
// `heap_bytes_per_entry` per IOT entry, and `heap_bytes_per_posting` per
// posting.  That is what the finished index keeps in memory: the rows and
// their share of the B+-tree nodes.  A text entry is a block of up to
// 1,024 rowids of one term, so its postings are the sum of the blocks'
// df; every other cartridge writes one entry per posting.  Two built-in
// B-tree builds over a 20k-row table, one on a unique INTEGER column and
// one on a 20-valued one, give the same figures for the engine's own
// index, whose entry is one (key, rowid) row; the domain B-tree over the
// unique column shows the framework's cost of the same build, and a
// varray index over 20k collections of 1-3 elements closes the list.
// Spatial tile, VIR, domain B-tree and varray share one build: scan, sort
// the entry rows, one IotBulkLoad.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cartridge/domain_btree/domain_btree.h"
#include "cartridge/spatial/spatial_cartridge.h"
#include "cartridge/text/text_cartridge.h"
#include "cartridge/varray/varray_cartridge.h"
#include "cartridge/vir/vir_cartridge.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

// One indexed table: `create` builds index `bx`, `query` reads through it.
// `block_iot` names the index's block IOT, whose df column counts its
// postings (text), or is empty when each entry is one posting.
struct BuildCase {
  const char* cartridge;
  uint64_t rows;
  std::string create;
  std::string query;
  std::string block_iot;
};

// The postings of IOT `name`: the sum of its df column (column 2).
uint64_t BlockPostings(Connection& conn, const std::string& name) {
  uint64_t postings = 0;
  Result<Iot*> iot = conn.db()->catalog().GetIot(name);
  if (!iot.ok()) return 0;
  (*iot)->ScanRange(nullptr, true, nullptr, true, [&](const Row& row) {
    postings += uint64_t(row[2].AsInteger());
    return true;
  });
  return postings;
}

// Builds each of `cases` over the tables `conn` holds, in turn, once per
// repetition, and adds one row per case to `table`.
void Measure(Connection& conn, const std::vector<BuildCase>& cases,
             Table* table) {
  const size_t n = cases.size();
  std::vector<Series> series(n);
  std::vector<uint64_t> postings(n);
  std::vector<size_t> query_rows(n);
  std::vector<size_t> functional_rows(n);
  std::vector<double> heap(n);
  for (size_t i = 0; i < n; ++i) {
    functional_rows[i] = conn.MustExecute(cases[i].query).rows.size();
  }
  for (size_t rep = 0; rep < Repetitions(); ++rep) {
    for (size_t i = 0; i < n; ++i) {
      const BuildCase& c = cases[i];
      const size_t heap_before = mallinfo2().uordblks;
      series[i].Start();
      conn.MustExecute(c.create);
      series[i].Stop();
      if (rep == 0) heap[i] = double(mallinfo2().uordblks) - heap_before;
      postings[i] = c.block_iot.empty()
                        ? series[i].work().index_entries_written
                        : BlockPostings(conn, c.block_iot);
      query_rows[i] = conn.MustExecute(c.query).rows.size();
      conn.MustExecute("DROP INDEX bx");
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const uint64_t entries = series[i].work().index_entries_written;
    table->Add({cases[i].cartridge, cases[i].rows, entries, postings[i],
                query_rows[i], functional_rows[i], heap[i] / double(entries),
                heap[i] / double(postings[i])},
               series[i]);
  }
}

}  // namespace

int main() {
  JsonReport report("text_build",
                    "index build: one ODCIIndexCreate per cartridge");
  Table& builds = report.AddTimedTable(
      "builds", {"cartridge", "rows", "index_entries_written", "postings",
                 "query_rows", "functional_rows", "heap_bytes_per_entry",
                 "heap_bytes_per_posting"});
  std::vector<uint64_t> text_sizes{10000, 20000, 50000};
  // At 60 documents a term has about two postings, so per-posting heap
  // mostly shows the block row's fixed cost.  CI's heap gate reads the
  // 2,000-document build, whose blocks hold many postings.
  if (SmokeMode()) text_sizes = {60, 2000};
  for (uint64_t docs : text_sizes) {
    Database db;
    Connection conn(&db);
    // The E1/E6 corpus: Zipf 0.9 over 5,000 words, 60 words a document.
    if (!text::InstallTextCartridge(&conn).ok() ||
        !workload::BuildTextTable(&conn, "docs", docs, 60, 5000, 0.9, docs)
             .ok()) {
      return 1;
    }
    Measure(conn,
            {{"text", docs,
              "CREATE INDEX bx ON docs(body) INDEXTYPE IS TextIndexType",
              "SELECT id FROM docs WHERE Contains(body, 'w3 AND w11')",
              text::PostingTableName("bx")}},
            &builds);
  }
  {
    const uint64_t rects = Scaled(20000, 60);
    Database db;
    Connection conn(&db);
    if (!spatial::InstallSpatialCartridge(&conn).ok() ||
        !workload::BuildSpatialTable(&conn, "parcels", rects, 200.0, 6)
             .ok()) {
      return 1;
    }
    Measure(conn,
            {{"spatial_tile", rects,
              "CREATE INDEX bx ON parcels(geometry) INDEXTYPE IS "
              "SpatialIndexType PARAMETERS (':TileLevel 6')",
              "SELECT gid FROM parcels WHERE Sdo_Relate(geometry, "
              "SDO_GEOMETRY(2000,2000,4000,4000), 'mask=ANYINTERACT')",
              ""}},
            &builds);
  }
  {
    const uint64_t images = Scaled(20000, 60);
    Database db;
    Connection conn(&db);
    if (!vir::InstallVirCartridge(&conn).ok() ||
        !workload::BuildImageTable(&conn, "imgs", images, 8, 0.1, 9).ok()) {
      return 1;
    }
    Measure(conn,
            {{"vir", images,
              "CREATE INDEX bx ON imgs(img) INDEXTYPE IS VirIndexType",
              "SELECT id FROM imgs WHERE VIRSimilar(img, IMAGE_T(0.5,0.5,"
              "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5), "
              "'globalcolor=1', 1.5)",
              ""}},
            &builds);
  }
  {
    const uint64_t rows = Scaled(20000, 60);
    Database db;
    Connection conn(&db);
    conn.MustExecute("CREATE TABLE nums (id INTEGER, grp INTEGER)");
    for (uint64_t id = 0; id < rows;) {
      std::string sql = "INSERT INTO nums VALUES ";
      for (uint64_t end = std::min(rows, id + 500); id < end; ++id) {
        sql += (sql.back() == ' ' ? "(" : ", (") + std::to_string(id) + ", " +
               std::to_string(id % 20) + ")";
      }
      conn.MustExecute(sql);
    }
    if (!dbt::InstallDomainBtreeCartridge(&conn).ok()) return 1;
    Measure(conn,
            {{"btree_unique", rows, "CREATE INDEX bx ON nums(id)",
              "SELECT id FROM nums WHERE id = 7", ""},
             {"btree_20_vals", rows, "CREATE INDEX bx ON nums(grp)",
              "SELECT id FROM nums WHERE grp = 7", ""},
             {"domain_btree", rows,
              "CREATE INDEX bx ON nums(id) INDEXTYPE IS DomainBtreeType",
              "SELECT id FROM nums WHERE DEq(id, 7)", ""}},
            &builds);
  }
  {
    // Row i holds 1-3 of 20 hobbies, h(i % 20) first.
    const uint64_t rows = Scaled(20000, 60);
    Database db;
    Connection conn(&db);
    if (!varr::InstallVarrayCartridge(&conn).ok()) return 1;
    conn.MustExecute(
        "CREATE TABLE emp (id INTEGER, hobbies VARRAY OF VARCHAR)");
    for (uint64_t id = 0; id < rows;) {
      std::string sql = "INSERT INTO emp VALUES ";
      for (uint64_t end = std::min(rows, id + 500); id < end; ++id) {
        std::string hobbies = "'h" + std::to_string(id % 20) + "'";
        for (uint64_t k = 1; k <= id % 3; ++k) {
          hobbies += ", 'h" + std::to_string((id * 7 + k * 3) % 20) + "'";
        }
        sql += (sql.back() == ' ' ? "(" : ", (") + std::to_string(id) +
               ", VARRAY_OF(" + hobbies + "))";
      }
      conn.MustExecute(sql);
    }
    Measure(conn,
            {{"varray", rows,
              "CREATE INDEX bx ON emp(hobbies) INDEXTYPE IS VarrayIndexType",
              "SELECT id FROM emp WHERE VContains(hobbies, 'h7')", ""}},
            &builds);
  }
  return report.Write() ? 0 : 1;
}
