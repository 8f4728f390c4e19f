// Microbenchmarks (google-benchmark) for the substrate components the
// experiments ride on: B+-tree, tokenizer, SQL parse+plan, fingerprints,
// and ODCI dispatch.  Not tied to a paper table; used to sanity-check that
// experiment-level differences are not substrate artifacts.

#include <benchmark/benchmark.h>

#include "cartridge/chem/fingerprint.h"
#include "cartridge/text/text_cartridge.h"
#include "cartridge/text/tokenizer.h"
#include "common/rng.h"
#include "engine/connection.h"
#include "index/bptree.h"
#include "sql/parser.h"

namespace {

using namespace exi;  // NOLINT

// The B-tree benchmarks' index: a table of one INTEGER column, keyed on it.
BTreeIndex IntIndex() {
  Schema schema;
  schema.AddColumn(Column{"k", DataType::Integer(), false});
  return BTreeIndex("bm", schema, {0});
}

// Adds the entry of one-column row `key` at `rid`, as its own write run.
void Add(BTreeIndex& index, int64_t key, RowId rid) {
  std::vector<Row> entries;
  index.AddEntry(rid, {Value::Integer(key)}, &entries);
  (void)index.Write({}, std::move(entries), nullptr);
}

void BM_BtreeInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    BTreeIndex index = IntIndex();
    Rng rng(42);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      Add(index, int64_t(rng.Next() % 1000000), RowId(i + 1));
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BtreeInsert)->Arg(1000)->Arg(10000);

void BM_BtreeLookup(benchmark::State& state) {
  BTreeIndex index = IntIndex();
  Rng rng(42);
  for (int64_t i = 0; i < 100000; ++i) Add(index, i, RowId(i + 1));
  for (auto _ : state) {
    auto rids =
        index.ScanEqual({Value::Integer(int64_t(rng.Next() % 100000))});
    benchmark::DoNotOptimize(rids);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BtreeLookup);

void BM_Tokenize(benchmark::State& state) {
  text::Tokenizer tokenizer;
  std::string doc;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    doc += "word" + std::to_string(rng.Next() % 5000) + " ";
  }
  for (auto _ : state) {
    auto tokens = tokenizer.Tokenize(doc);
    benchmark::DoNotOptimize(tokens);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Tokenize);

void BM_SqlParse(benchmark::State& state) {
  const std::string sql =
      "SELECT name, id FROM employees WHERE Contains(resume, 'Oracle AND "
      "UNIX') AND id >= 100 AND salary < 9000.5 ORDER BY id DESC LIMIT 10";
  for (auto _ : state) {
    auto stmt = sql::Parse(sql);
    benchmark::DoNotOptimize(stmt);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SqlParse);

void BM_Fingerprint(benchmark::State& state) {
  auto mol = chem::Molecule::ParseSmiles("CC(=O)OC1CCCCC1N(C)C");
  for (auto _ : state) {
    auto fp = chem::ComputeFingerprint(*mol);
    benchmark::DoNotOptimize(fp);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Fingerprint);

void BM_EndToEndIndexedQuery(benchmark::State& state) {
  Database db;
  Connection conn(&db);
  (void)text::InstallTextCartridge(&conn);
  conn.MustExecute("CREATE TABLE docs (id INTEGER, body VARCHAR(200))");
  for (int i = 0; i < 2000; ++i) {
    conn.MustExecute("INSERT INTO docs VALUES (" + std::to_string(i) +
                     ", '" + (i % 20 == 0 ? "needle" : "hay") + " stack')");
  }
  conn.MustExecute(
      "CREATE INDEX dt ON docs(body) INDEXTYPE IS TextIndexType");
  conn.MustExecute("ANALYZE docs");
  for (auto _ : state) {
    QueryResult r = conn.MustExecute(
        "SELECT COUNT(*) FROM docs WHERE Contains(body, 'needle')");
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EndToEndIndexedQuery);

}  // namespace

BENCHMARK_MAIN();
