// Experiment E9 (§5): external index stores vs transaction rollback.
// Without database events, an aborted transaction leaves the file-backed
// chem index inconsistent (phantom fingerprints).  With commit/rollback
// event handlers registered, consistency is restored at a measurable
// cost.  Correctness experiment + overhead sweep over abort rates.
//
// Shape check: without events, phantom index entries accumulate with the
// abort rate (the §5 limitation); with rollback handlers registered,
// phantoms stay at zero for the price of rebuilding the external file after
// each abort.

#include <cstdio>

#include "bench/bench_util.h"
#include "cartridge/chem/chem_cartridge.h"
#include "cartridge/chem/fingerprint.h"
#include "engine/connection.h"
#include "engine/workloads.h"

using namespace exi;         // NOLINT
using namespace exi::bench;  // NOLINT

namespace {

// Counts live fingerprint records in the external file.
size_t LiveRecords(Database* db, const std::string& index_name) {
  Result<FileStore*> files =
      db->catalog().GetOrCreateFileStore(index_name);
  if (!files.ok() || !(*files)->FileExists("fingerprints.dat")) return 0;
  auto bytes = (*files)->ReadFile("fingerprints.dat");
  if (!bytes.ok()) return 0;
  return chem::DecodeFingerprintRecords(*bytes).size();
}

// Runs `txns` single-insert transactions on a fresh file-backed index,
// aborting every `abort_every`-th (0 = never), timed into `series`.
// Returns the phantom records the external file keeps afterwards.
size_t RunTxns(bool with_handler, int txns, int abort_every, Series* series) {
  Database db;
  db.catalog().set_external_root("/tmp/extidx_bench_events");
  Connection conn(&db);
  const uint64_t kRows = Scaled(200, 20);
  (void)chem::InstallChemCartridge(&conn);
  (void)workload::BuildMoleculeTable(&conn, "mols", kRows, 12, 77);
  conn.MustExecute(
      "CREATE INDEX mfile ON mols(smiles) INDEXTYPE IS ChemIndexType "
      "PARAMETERS (':Storage file')");
  uint64_t handler = 0;
  if (with_handler) {
    handler = chem::RegisterChemRollbackHandler(&db, "mfile");
  }

  Rng rng(5);
  size_t committed_rows = kRows;
  series->Start();
  for (int t = 0; t < txns; ++t) {
    conn.MustExecute("BEGIN");
    conn.MustExecute("INSERT INTO mols VALUES (" +
                     std::to_string(10000 + t) + ", '" +
                     workload::RandomSmiles(&rng, 12) + "')");
    bool abort = abort_every > 0 && (t % abort_every) == 0;
    conn.MustExecute(abort ? "ROLLBACK" : "COMMIT");
    committed_rows += !abort;
  }
  series->Stop();
  size_t live = LiveRecords(&db, "mfile");
  if (handler != 0) db.events().Unregister(handler);
  return live > committed_rows ? live - committed_rows : 0;
}

}  // namespace

int main() {
  const int kTxns = int(Scaled(100, 5));
  JsonReport report("events_rollback",
                    "E9: external store + rollback, phantoms without events");
  report.Add("txns", kTxns);
  Table& table =
      report.AddTimedTable("runs", {"abort_pct", "handler", "phantoms"});
  for (int abort_every : {0, 10, 2}) {  // never, 10%, 50%
    Series series[2];
    size_t phantoms[2] = {0, 0};
    for (size_t rep = 0; rep < Repetitions(); ++rep) {
      for (int h = 0; h < 2; ++h) {
        phantoms[h] = RunTxns(h == 1, kTxns, abort_every, &series[h]);
      }
    }
    const int abort_pct = abort_every == 0 ? 0 : 100 / abort_every;
    table.Add({abort_pct, "none", phantoms[0]}, series[0]);
    table.Add({abort_pct, "events", phantoms[1]}, series[1]);
  }
  return report.Write() ? 0 : 1;
}
