#ifndef EXTIDX_CORE_SCAN_CONTEXT_H_
#define EXTIDX_CORE_SCAN_CONTEXT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "common/result.h"

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

  // Stores `workspace` and returns a non-zero handle.
  uint64_t Allocate(std::shared_ptr<void> workspace);

  // Retrieves the workspace; NotFound after release or for a bogus handle.
  Result<std::shared_ptr<void>> Get(uint64_t handle) const;

  // Typed convenience accessor.
  template <typename T>
  Result<std::shared_ptr<T>> GetAs(uint64_t handle) const {
    EXI_ASSIGN_OR_RETURN(std::shared_ptr<void> ws, Get(handle));
    return std::static_pointer_cast<T>(ws);
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
  mutable std::mutex mu_;
  std::map<uint64_t, std::shared_ptr<void>> workspaces_;
  uint64_t next_handle_ = 1;
};

}  // namespace exi

#endif  // EXTIDX_CORE_SCAN_CONTEXT_H_
