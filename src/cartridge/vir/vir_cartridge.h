#ifndef EXTIDX_CARTRIDGE_VIR_VIR_CARTRIDGE_H_
#define EXTIDX_CARTRIDGE_VIR_VIR_CARTRIDGE_H_

#include <string>

#include "cartridge/entry_index.h"
#include "cartridge/vir/signature.h"
#include "core/odci.h"
#include "engine/connection.h"

namespace exi::vir {

// The Visual-Information-Retrieval cartridge (§3.2.3): content-based image
// search via VIRSimilar(img, query_img, weights, threshold), evaluated in
// three phases when the domain index is used —
//   phase 1: range query on the coarse index table (global-color mean
//            bucket window derived from the threshold; skipped when the
//            globalcolor weight is zero),
//   phase 2: coarse-vector distance filter (weighted L1 over per-group
//            means, sound because coarse distance <= true distance / 2),
//   phase 3: full signature comparison on the survivors.
// The functional implementation instead compares full signatures on every
// row — the pre-8i behavior the paper says made million-row tables
// infeasible.
//
// Index data layout (an IOT, §2.5 "index-organized tables are commonly
// used as index data stores"):
//   <index>$ctab (bucket INTEGER, rid INTEGER,
//                 m0 DOUBLE, m1 DOUBLE, m2 DOUBLE, m3 DOUBLE)
// where bucket quantizes the globalcolor coarse mean into kBuckets cells.
class VirIndexMethods : public EntryIndexMethods {
 public:
  static constexpr int kBuckets = 100;

  VirIndexMethods();

  // Start precomputes into a private workspace; the shared phase-counter
  // snapshot is mutex-guarded (DESIGN.md §5).
  OdciCapabilities Capabilities() const override {
    return {.parallel_scan = true};
  }

  const char* TraceLabel() const override { return "vir"; }

  Result<OdciScanContext> Start(const OdciIndexInfo& info,
                                const OdciPredInfo& pred,
                                ServerContext& ctx) override;

  // Counters from the most recent successful Start call, exposing the
  // funnel of the multi-level filter for tests and benches (phase1
  // candidates -> phase2 survivors -> final matches).  Published atomically
  // under a mutex, so concurrent Starts never tear a snapshot — though
  // "last" is whichever Start finished most recently.
  struct PhaseCounters {
    uint64_t phase1_candidates = 0;
    uint64_t phase2_survivors = 0;
    uint64_t matches = 0;
  };
  static PhaseCounters last_counters();

 protected:
  // One coarse row per image.
  Result<EntryMaker> Entries(const OdciIndexInfo& info) const override;
};

// ODCIStats for VIRSimilar: threshold-driven selectivity, bucket-window
// cost.
class VirStats : public OdciStats {
 public:
  Result<double> Selectivity(const OdciIndexInfo& info,
                             const OdciPredInfo& pred, uint64_t table_rows,
                             ServerContext& ctx) override;
  Result<double> IndexCost(const OdciIndexInfo& info,
                           const OdciPredInfo& pred, double selectivity,
                           uint64_t table_rows, ServerContext& ctx) override;
};

// Registers IMAGE_T, the IMAGE_T(d0..d15) constructor, the functional
// VIRSimilar implementation, and the DDL:
//   CREATE OPERATOR VIRSimilar BINDING (OBJECT IMAGE_T, OBJECT IMAGE_T,
//     VARCHAR, DOUBLE) RETURN BOOLEAN USING VIRSimilarFn;
//   CREATE INDEXTYPE VirIndexType FOR VIRSimilar(...) USING
//     VirIndexMethods;
Status InstallVirCartridge(Connection* conn);

}  // namespace exi::vir

#endif  // EXTIDX_CARTRIDGE_VIR_VIR_CARTRIDGE_H_
