#include "core/scan_context.h"

#include <algorithm>
#include <string>

namespace exi {

OdciPredInfo OdciPredInfo::BooleanTrue(std::string op, ValueList args) {
  OdciPredInfo pred;
  pred.operator_name = std::move(op);
  pred.args = std::move(args);
  pred.lower_bound = Value::Boolean(true);
  pred.upper_bound = Value::Boolean(true);
  return pred;
}

const char* CallbackModeName(CallbackMode mode) {
  switch (mode) {
    case CallbackMode::kNone:
      return "none";
    case CallbackMode::kDefinition:
      return "definition";
    case CallbackMode::kMaintenance:
      return "maintenance";
    case CallbackMode::kScan:
      return "scan";
  }
  return "unknown";
}

uint64_t ScanWorkspaceRegistry::Store(std::shared_ptr<void> workspace,
                                      const std::type_info& type) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t handle = next_handle_++;
  workspaces_[handle] = Entry{std::move(workspace), &type};
  return handle;
}

Result<ScanWorkspaceRegistry::Entry> ScanWorkspaceRegistry::Find(
    uint64_t handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = workspaces_.find(handle);
  if (it == workspaces_.end()) {
    return Status::NotFound("no scan workspace with handle " +
                            std::to_string(handle));
  }
  return it->second;
}

Result<std::shared_ptr<void>> ScanWorkspaceRegistry::Get(
    uint64_t handle) const {
  EXI_ASSIGN_OR_RETURN(Entry entry, Find(handle));
  return entry.workspace;
}

Status ScanWorkspaceRegistry::Release(uint64_t handle) {
  std::lock_guard<std::mutex> lock(mu_);
  if (workspaces_.erase(handle) == 0) {
    return Status::NotFound("releasing unknown scan workspace handle " +
                            std::to_string(handle));
  }
  return Status::OK();
}

ScanWorkspaceRegistry& ScanWorkspaceRegistry::Global() {
  static ScanWorkspaceRegistry* registry = new ScanWorkspaceRegistry();
  return *registry;
}

OdciScanContext PrecomputedCursor::Park(std::vector<RowId> rids) {
  size_t size = rids.size();
  return ParkAppender(size, [rids = std::move(rids)](size_t begin, size_t end,
                                                     OdciFetchBatch* out) {
    out->rids.insert(out->rids.end(), rids.begin() + begin,
                     rids.begin() + end);
  });
}

OdciScanContext PrecomputedCursor::ParkAppender(size_t size,
                                                Appender append) {
  auto cursor = std::make_shared<PrecomputedCursor>();
  cursor->size_ = size;
  cursor->append_ = std::move(append);
  OdciScanContext sctx;
  sctx.handle = ScanWorkspaceRegistry::Global().Allocate(std::move(cursor));
  return sctx;
}

Status PrecomputedCursor::Fetch(const OdciScanContext& sctx, size_t max_rows,
                                OdciFetchBatch* out) {
  EXI_ASSIGN_OR_RETURN(
      std::shared_ptr<PrecomputedCursor> cursor,
      ScanWorkspaceRegistry::Global().GetAs<PrecomputedCursor>(sctx.handle));
  size_t end = std::min(cursor->size_, cursor->pos_ + max_rows);
  cursor->append_(cursor->pos_, end, out);
  cursor->pos_ = end;
  out->last = end == cursor->size_;
  return Status::OK();
}

Status PrecomputedCursor::Close(const OdciScanContext& sctx) {
  if (!sctx.uses_handle()) return Status::OK();
  return ScanWorkspaceRegistry::Global().Release(sctx.handle);
}

}  // namespace exi
