// Experiment E5 (§3.2.4): chemistry index in LOBs vs external files.
// Paper claims: the LOB-based solution "scales much better ... because it
// minimizes intermediate write operations", while query performance is
// comparable (cold reads slower on LOBs, warm dominated by in-memory
// structure work).  Each repetition builds a fresh table per storage, then
// times three phases on it: the index build, 200 single-row inserts, and
// a substructure query.
//
// Shape check: per-row maintenance on the file store rewrites the whole
// packed file (bytes written grow ~quadratically with index size), while LOB
// maintenance appends in place; query times stay comparable — the paper's
// rationale for migrating Daylight's file-based index into LOBs.

#include <cstdio>

#include "bench/bench_util.h"
#include "cartridge/chem/chem_cartridge.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

constexpr int kInserts = 200;
const char* const kPhases[] = {"build", "insert_x200", "query"};

// One repetition on a fresh table: times each phase into `series`, and
// leaves the rows each phase indexed, inserted or matched in `rows`.
bool RunPhases(uint64_t n, const std::string& storage, Series* series,
               int64_t* rows) {
  Database db;
  db.catalog().set_external_root("/tmp/extidx_bench_chem");
  Connection conn(&db);
  if (!chem::InstallChemCartridge(&conn).ok() ||
      !workload::BuildMoleculeTable(&conn, "mols", n, 14, n).ok()) {
    return false;
  }
  conn.MustExecute("ANALYZE mols");
  series[0].Start();
  conn.MustExecute(
      "CREATE INDEX midx ON mols(smiles) INDEXTYPE IS ChemIndexType "
      "PARAMETERS (':Storage " + storage + "')");
  series[0].Stop();
  rows[0] = int64_t(n);

  Rng rng(99);
  series[1].Start();
  for (int i = 0; i < kInserts; ++i) {
    conn.MustExecute("INSERT INTO mols VALUES (" +
                     std::to_string(1000000 + i) + ", '" +
                     workload::RandomSmiles(&rng, 14) + "')");
  }
  series[1].Stop();
  rows[1] = kInserts;

  series[2].Start();
  rows[2] = conn.MustExecute(
                    "SELECT COUNT(*) FROM mols WHERE MolContains(smiles, "
                    "'C=O')")
                .rows[0][0]
                .AsInteger();
  series[2].Stop();
  return true;
}

}  // namespace

int main() {
  JsonReport report("chem_lob_vs_file",
                    "E5: chem index, LOB storage vs external file");
  Table& table = report.AddTimedTable(
      "phases", {"mols", "storage", "phase", "rows", "bytes_written"});
  std::vector<uint64_t> sizes{1000, 5000, 20000};
  if (SmokeMode()) sizes = {50};
  const std::string storages[] = {"lob", "file"};
  for (uint64_t n : sizes) {
    Series series[2][3];
    int64_t rows[2][3];
    for (size_t rep = 0; rep < Repetitions(); ++rep) {
      for (int s = 0; s < 2; ++s) {
        if (!RunPhases(n, storages[s], series[s], rows[s])) return 1;
      }
    }
    for (int s = 0; s < 2; ++s) {
      for (int p = 0; p < 3; ++p) {
        const StorageMetrics& work = series[s][p].work();
        table.Add({n, storages[s], kPhases[p], rows[s][p],
                   work.lob_bytes_written + work.file_bytes_written},
                  series[s][p]);
      }
    }
  }
  return report.Write() ? 0 : 1;
}
