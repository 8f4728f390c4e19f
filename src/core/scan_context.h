#ifndef EXTIDX_CORE_SCAN_CONTEXT_H_
#define EXTIDX_CORE_SCAN_CONTEXT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <typeinfo>
#include <vector>

#include "common/result.h"
#include "core/odci.h"

namespace exi {

// Framework-owned workspace registry backing the Return Handle scan-context
// mechanism (§2.2.3): "a temporary workspace ... can be allocated for the
// duration of the statement to save the state. In this case, a handle to
// the workspace can be returned back to Oracle server, instead of the
// entire scan state."
//
// A workspace is an arbitrary cartridge-defined object, type-erased; the
// cartridge allocates it in ODCIIndexStart, retrieves it by handle in each
// Fetch, and releases it in Close.  Multiple concurrent scans of the same
// domain index get distinct handles ("multiple sets of invocations of
// operators can be interleaved", §2.2.3).
//
// The registry is internally synchronized: parallel domain-index join
// probes allocate/release workspaces from pool threads (DESIGN.md §5).
// Workspace *contents* are not locked here — a workspace is touched by at
// most one in-flight routine per scan, because each scan's
// Start/Fetch*/Close runs on one thread at a time.
class ScanWorkspaceRegistry {
 public:
  ScanWorkspaceRegistry() = default;
  ScanWorkspaceRegistry(const ScanWorkspaceRegistry&) = delete;
  ScanWorkspaceRegistry& operator=(const ScanWorkspaceRegistry&) = delete;

  // Stores `workspace` and returns a non-zero handle.  The registry
  // remembers T: GetAs and Holds answer for that type only.
  template <typename T>
  uint64_t Allocate(std::shared_ptr<T> workspace) {
    return Store(std::move(workspace), typeid(T));
  }

  // Retrieves the workspace; NotFound after release or for a bogus handle.
  Result<std::shared_ptr<void>> Get(uint64_t handle) const;

  // Typed accessor; InvalidArgument if the workspace was stored as another
  // type.
  template <typename T>
  Result<std::shared_ptr<T>> GetAs(uint64_t handle) const {
    EXI_ASSIGN_OR_RETURN(Entry entry, Find(handle));
    if (*entry.type != typeid(T)) {
      return Status::InvalidArgument("scan workspace handle " +
                                     std::to_string(handle) +
                                     " holds another type");
    }
    return std::static_pointer_cast<T>(entry.workspace);
  }

  // True if `handle` is live and its workspace was stored as a T.
  template <typename T>
  bool Holds(uint64_t handle) const {
    Result<Entry> entry = Find(handle);
    return entry.ok() && *entry->type == typeid(T);
  }

  // Releases the workspace (idempotent: releasing twice errors).
  Status Release(uint64_t handle);

  size_t active_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return workspaces_.size();
  }

  // Process-wide registry used by the engine and cartridges.
  static ScanWorkspaceRegistry& Global();

 private:
  struct Entry {
    std::shared_ptr<void> workspace;
    const std::type_info* type;
  };

  uint64_t Store(std::shared_ptr<void> workspace, const std::type_info& type);
  Result<Entry> Find(uint64_t handle) const;

  mutable std::mutex mu_;
  std::map<uint64_t, Entry> workspaces_;
  uint64_t next_handle_ = 1;
};

// One Precompute-All result set (§2.2.3: "compute the entire result set in
// ODCIIndexStart"), parked with the Return Handle mechanism.  A cartridge
// ends Start with `return PrecomputedCursor::Park(...)`, handing over its
// result rows in the order Fetch must return them, and forwards Fetch and
// Close to the static Fetch and Close below.
class PrecomputedCursor {
 public:
  // Parks a result set without ancillary values.
  static OdciScanContext Park(std::vector<RowId> rids);

  // Parks a result set with one ancillary value per row: `to_row(hit)`
  // returns the hit's (rid, ancillary Value) pair.  It runs when Fetch
  // returns `hit`, so Start builds no Value and copies no row.
  template <typename Hit, typename ToRow>
  static OdciScanContext Park(std::vector<Hit> hits, ToRow to_row) {
    size_t size = hits.size();
    return ParkAppender(
        size, [hits = std::move(hits), to_row](size_t begin, size_t end,
                                               OdciFetchBatch* out) {
          for (size_t i = begin; i < end; ++i) {
            auto [rid, ancillary] = to_row(hits[i]);
            out->rids.push_back(rid);
            out->ancillary.push_back(std::move(ancillary));
          }
        });
  }

  // Appends up to `max_rows` of the parked rows to `out`, setting `last`
  // once the set is exhausted; appends none after that.
  static Status Fetch(const OdciScanContext& sctx, size_t max_rows,
                      OdciFetchBatch* out);

  // Releases the parked set, or whatever workspace the handle names; a
  // context without a handle is a no-op.
  static Status Close(const OdciScanContext& sctx);

 private:
  // Appends rows [begin, end) of the set to a batch.
  using Appender =
      std::function<void(size_t begin, size_t end, OdciFetchBatch* out)>;

  static OdciScanContext ParkAppender(size_t size, Appender append);

  size_t size_ = 0;  // rows in the set
  size_t pos_ = 0;   // next row Fetch returns
  Appender append_;
};

}  // namespace exi

#endif  // EXTIDX_CORE_SCAN_CONTEXT_H_
