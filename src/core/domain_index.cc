#include "core/domain_index.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "common/tracer.h"

namespace exi {

namespace {

// Statuses the call guard treats as transient and retries; everything else
// fails the call on the first attempt (cartridge-authors-guide.md "Error
// contract").
bool IsTransientStatus(const Status& s) {
  return s.code() == StatusCode::kIoError || s.code() == StatusCode::kBusy;
}

// ORA-01502-style error for scans that race an index status transition.
Status IndexUnusableError(const std::string& index_name, IndexStatus status) {
  return Status::ConstraintViolation(
      "ORA-01502: index '" + index_name +
      "' or partition of such index is in " +
      std::string(IndexStatusName(status)) + " state");
}

}  // namespace

Status DomainIndexManager::Invoke(const IndexInfo* index,
                                  const OdciIndex* impl, const char* site,
                                  const char* routine,
                                  FunctionRef<Status()> call) {
  ScopedOdciTrace trace(index->indextype, impl->TraceLabel(), routine);
  Status s = site != nullptr ? FailPointRegistry::Global().Fire(site)
                             : Status::OK();
  if (s.ok()) s = call();
  if (!s.ok()) trace.set_failed();
  return s;
}

Status DomainIndexManager::GuardedOdciCall(IndexInfo* index,
                                           const OdciIndex* impl,
                                           const char* site,
                                           const char* routine,
                                           FunctionRef<Status()> call,
                                           FunctionRef<void()> on_failure) {
  const auto start = std::chrono::steady_clock::now();
  uint64_t backoff_us = retry_policy_.initial_backoff_us;
  for (int attempt = 1;; ++attempt) {
    // One trace entry per attempt: retries show up in V$ODCI_CALLS as
    // extra (failed) calls, exactly like re-issued dispatches would.
    Status s = Invoke(index, impl, site, routine, call);
    if (s.ok()) return s;
    on_failure();
    if (!IsTransientStatus(s)) return s;
    if (attempt >= retry_policy_.max_attempts) return s;
    const uint64_t elapsed_us = uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    if (elapsed_us + backoff_us > retry_policy_.call_deadline_us) {
      GlobalMetrics().odci_call_timeouts++;
      return Status(s.code(),
                    s.message() + " (" + routine +
                        " abandoned: retry deadline of " +
                        std::to_string(retry_policy_.call_deadline_us) +
                        "us exceeded after " + std::to_string(attempt) +
                        " attempts)");
    }
    GlobalMetrics().odci_retries++;
    index->retries++;
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    backoff_us = std::min(backoff_us * 4, retry_policy_.max_backoff_us);
  }
}

Status DomainIndexManager::MaintenanceFailed(IndexInfo* index,
                                             IndexSlice* slice,
                                             const Status& error) {
  if (maintenance_policy_ == IndexMaintenancePolicy::kStrict) return error;
  slice->status = IndexStatus::kFailed;
  index->last_error = error.ToString();
  return Status::OK();
}

Result<IndexInfo*> DomainIndexManager::GetDomainIndex(
    const std::string& index_name) {
  EXI_ASSIGN_OR_RETURN(IndexInfo * index, catalog_->GetIndex(index_name));
  if (!index->is_domain()) {
    return Status::InvalidArgument(index_name + " is not a domain index");
  }
  return index;
}

OdciIndexInfo DomainIndexManager::InfoFor(const IndexInfo* index) {
  Result<HeapTable*> table = catalog_->GetTable(index->table);
  static const Schema kEmpty;
  return index->ToOdciInfo(table.ok() ? (*table)->schema() : kEmpty);
}

Status DomainIndexManager::CallOnSlices(IndexInfo* index, OdciIndexInfo info,
                                        std::optional<uint32_t> segment,
                                        const char* site, const char* routine,
                                        SliceRoutine call, Transaction* txn) {
  GuardedServerContext ctx(catalog_, txn, CallbackMode::kDefinition);
  for (IndexSlice& slice : index->slices) {
    if (segment.has_value() && slice.segment != *segment) continue;
    slice.stats.clear();
    info.index_name = slice.name;
    // An Alter that rebuilds from the base table sees only its slice's
    // rows, as BuildSlice's Create does.
    ctx.RestrictBaseScanToSegment(slice.segment);
    EXI_RETURN_IF_ERROR(
        GuardedOdciCall(index, slice.impl.get(), site, routine,
                        [&] { return call(*slice.impl, info, ctx); }));
  }
  return Status::OK();
}

void DomainIndexManager::DropSlices(
    const std::vector<std::pair<IndexInfo*, const IndexSlice*>>& slices,
    Transaction* txn) {
  GuardedServerContext ctx(catalog_, txn, CallbackMode::kDefinition);
  for (const auto& [index, slice] : slices) {
    OdciIndexInfo info = InfoFor(index);
    info.index_name = slice->name;
    OdciIndex* impl = slice->impl.get();
    (void)Invoke(index, impl, nullptr, "ODCIIndexDrop",
                 [&] { return impl->Drop(info, ctx); });
  }
}

Status DomainIndexManager::CreateIndex(const std::string& index_name,
                                       const std::string& table_name,
                                       const std::string& column_name,
                                       const std::string& indextype_name,
                                       const std::string& parameters,
                                       Transaction* txn) {
  if (catalog_->IndexExists(index_name)) {
    return Status::AlreadyExists("index exists: " + index_name);
  }
  EXI_ASSIGN_OR_RETURN(TableInfo * tinfo, catalog_->GetTableInfo(table_name));
  const Schema& schema = tinfo->heap->schema();
  int col = schema.FindColumn(column_name);
  if (col < 0) {
    return Status::NotFound("no column " + column_name + " in " + table_name);
  }
  EXI_ASSIGN_OR_RETURN(const IndexTypeDef* indextype,
                       catalog_->GetIndexType(indextype_name));
  const DataType& column_type = schema.column(col).type;
  bool supported = false;
  for (const SupportedOperator& so : indextype->operators) {
    if (indextype->Supports(so.operator_name, column_type)) {
      supported = true;
      break;
    }
  }
  if (!supported) {
    return Status::InvalidArgument(
        "indextype " + indextype_name + " supports no operator over column " +
        column_name + " of type " + column_type.ToString());
  }
  EXI_ASSIGN_OR_RETURN(
      OdciStatsFactory stats_factory,
      catalog_->implementations().GetStatsFactory(indextype->implementation));

  auto info = std::make_unique<IndexInfo>();
  info->name = index_name;
  info->table = table_name;
  info->columns = {schema.column(col).name};
  info->indextype = indextype->name;
  info->parameters = parameters;
  if (stats_factory) info->domain_stats = stats_factory();

  // The table's partition scheme decides the slice layout: one slice per
  // partition (LOCAL), or one whole-table slice over segment 0.
  const PartitionScheme& scheme = tinfo->partitioning;
  if (!scheme.partitioned()) {
    info->slices.push_back(IndexSlice{.name = index_name, .segment = 0});
  }
  for (const PartitionDef& part : scheme.partitions) {
    info->slices.push_back(IndexSlice{.name = index_name + "#" + part.name,
                                      .segment = part.segment_id});
  }
  std::vector<std::pair<IndexInfo*, const IndexSlice*>> built;
  for (IndexSlice& slice : info->slices) {
    Status s = BuildSlice(info.get(), schema, &slice, txn);
    if (!s.ok()) {
      // Unwind slices created so far; the index never existed.
      DropSlices(built, txn);
      return s;
    }
    built.emplace_back(info.get(), &slice);
  }
  return catalog_->AddIndex(std::move(info));
}

Result<std::shared_ptr<OdciIndex>> DomainIndexManager::NewImplFor(
    const IndexInfo* index) {
  EXI_ASSIGN_OR_RETURN(const IndexTypeDef* indextype,
                       catalog_->GetIndexType(index->indextype));
  EXI_ASSIGN_OR_RETURN(
      OdciIndexFactory factory,
      catalog_->implementations().GetIndexFactory(indextype->implementation));
  return factory();
}

Status DomainIndexManager::BuildSlice(IndexInfo* index, const Schema& schema,
                                      IndexSlice* slice, Transaction* txn) {
  slice->stats.clear();
  EXI_ASSIGN_OR_RETURN(std::shared_ptr<OdciIndex> fresh, NewImplFor(index));
  OdciIndex* impl = fresh.get();
  OdciIndexInfo info = index->ToOdciInfo(schema);
  info.index_name = slice->name;
  GuardedServerContext ctx(catalog_, txn, CallbackMode::kDefinition);
  ctx.RestrictBaseScanToSegment(slice->segment);
  EXI_RETURN_IF_ERROR(GuardedOdciCall(
      index, impl, "odci/create", "ODCIIndexCreate",
      [&] { return impl->Create(info, ctx); },
      // A failed attempt may leave partial storage: the best-effort drop
      // lets a retry start afresh and leaves no orphan after the last.
      [&] {
        (void)Invoke(index, impl, nullptr, "ODCIIndexDrop",
                     [&] { return impl->Drop(info, ctx); });
      }));
  if (slice->segment != 0) GlobalMetrics().local_index_storages++;
  slice->impl = std::move(fresh);
  return Status::OK();
}

Status DomainIndexManager::AddPartitionIndexes(const std::string& table_name,
                                               const PartitionDef& part,
                                               Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_->GetTable(table_name));
  std::vector<std::pair<IndexInfo*, const IndexSlice*>> built;
  for (IndexInfo* index : catalog_->IndexesOnTable(table_name)) {
    if (!index->is_domain()) continue;
    index->slices.push_back(IndexSlice{.name = index->name + "#" + part.name,
                                       .segment = part.segment_id});
    Status s = BuildSlice(index, table->schema(), &index->slices.back(), txn);
    if (!s.ok()) {
      // Unwind this call's slices (each appended last) so the failed ADD
      // PARTITION leaves every index exactly as it was.
      index->slices.pop_back();
      DropSlices(built, txn);
      for (const auto& [undo, slice] : built) undo->slices.pop_back();
      return s;
    }
    built.emplace_back(index, &index->slices.back());
  }
  return Status::OK();
}

Status DomainIndexManager::DropPartitionIndexes(const std::string& table_name,
                                                const PartitionDef& part,
                                                Transaction* txn) {
  for (IndexInfo* index : catalog_->IndexesOnTable(table_name)) {
    if (!index->is_domain()) continue;
    EXI_RETURN_IF_ERROR(CallOnSlices(
        index, InfoFor(index), part.segment_id, "odci/drop", "ODCIIndexDrop",
        [](OdciIndex& impl, const OdciIndexInfo& info, ServerContext& ctx) {
          return impl.Drop(info, ctx);
        },
        txn));
    std::erase_if(index->slices, [&](const IndexSlice& s) {
      return s.segment == part.segment_id;
    });
  }
  return Status::OK();
}

Status DomainIndexManager::TruncatePartitionIndexes(
    const std::string& table_name, const PartitionDef& part,
    Transaction* txn) {
  for (IndexInfo* index : catalog_->IndexesOnTable(table_name)) {
    if (!index->is_domain()) continue;
    EXI_RETURN_IF_ERROR(CallOnSlices(
        index, InfoFor(index), part.segment_id, "odci/truncate",
        "ODCIIndexTruncate",
        [](OdciIndex& impl, const OdciIndexInfo& info, ServerContext& ctx) {
          return impl.Truncate(info, ctx);
        },
        txn));
  }
  return Status::OK();
}

bool DomainIndexManager::ScanIsParallelSafe(const std::string& index_name) {
  Result<IndexInfo*> index = GetDomainIndex(index_name);
  // Capabilities are uniform across an index's slices.
  return index.ok() && !(*index)->slices.empty() &&
         (*index)->slices.front().impl->Capabilities().parallel_scan;
}

Status DomainIndexManager::AlterIndex(const std::string& index_name,
                                      const std::string& parameters,
                                      Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(IndexInfo * index, GetDomainIndex(index_name));
  OdciIndexInfo info = InfoFor(index);
  // ALTER parameters extend the CREATE parameters; the cartridge sees the
  // accumulated string and decides replace-vs-merge semantics per key.
  // The first failing slice aborts before the string is committed, so
  // retrying is safe.
  info.parameters = index->parameters.empty()
                        ? parameters
                        : index->parameters + " " + parameters;
  size_t altered = 0;  // leading slices whose Alter succeeded
  const Status s = CallOnSlices(
      index, info, std::nullopt, "odci/alter", "ODCIIndexAlter",
      [&altered](OdciIndex& impl, const OdciIndexInfo& slice_info,
                 ServerContext& ctx) {
        Status done = impl.Alter(slice_info, ctx);
        if (done.ok()) ++altered;
        return done;
      },
      txn);
  if (s.ok()) {
    index->parameters = info.parameters;
    return s;
  }
  // A LOCAL index's slices altered before the failing one are rebuilt
  // under the parameters the index keeps (one that cannot be is left
  // UNUSABLE), so no scan reads entries the index's parameters disown.
  for (size_t i = 0; i < altered; ++i) {
    const std::string& slice = index->slices[i].name;  // "<index>#<part>"
    (void)RebuildIndex(index_name, slice.substr(index->name.size() + 1), txn);
  }
  return s;
}

Status DomainIndexManager::DropIndex(const std::string& index_name,
                                     Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(IndexInfo * index, GetDomainIndex(index_name));
  EXI_RETURN_IF_ERROR(CallOnSlices(
      index, InfoFor(index), std::nullopt, "odci/drop", "ODCIIndexDrop",
      [](OdciIndex& impl, const OdciIndexInfo& info, ServerContext& ctx) {
        return impl.Drop(info, ctx);
      },
      txn));
  return catalog_->RemoveIndex(index_name);
}

Status DomainIndexManager::TruncateIndex(const std::string& index_name,
                                         Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(IndexInfo * index, GetDomainIndex(index_name));
  return CallOnSlices(
      index, InfoFor(index), std::nullopt, "odci/truncate",
      "ODCIIndexTruncate",
      [](OdciIndex& impl, const OdciIndexInfo& info, ServerContext& ctx) {
        return impl.Truncate(info, ctx);
      },
      txn);
}

// ---- implicit maintenance ----

namespace {

// Fail-point site and traced routine name per maintenance kind, indexed by
// DomainIndexManager::Maintenance.
constexpr const char* kMaintenanceSite[] = {"odci/insert", "odci/delete",
                                            "odci/update"};
constexpr const char* kMaintenanceRoutine[] = {
    "ODCIIndexInsert", "ODCIIndexDelete", "ODCIIndexUpdate"};

}  // namespace

Status DomainIndexManager::Dispatch(Maintenance kind, IndexInfo* index,
                                    IndexSlice& slice,
                                    const OdciIndexInfo& info,
                                    const std::vector<RowId>& rids,
                                    const ValueList& values,
                                    const ValueList& new_values,
                                    GuardedServerContext& ctx,
                                    Transaction* txn) {
  OdciIndex* impl = slice.impl.get();
  GlobalMetrics().odci_maintenance_calls++;
  if (rids.size() > 1) {
    GlobalMetrics().odci_batch_maintenance_calls++;
    GlobalMetrics().odci_batch_maintenance_rows += rids.size();
  }
  const size_t savepoint = txn != nullptr ? txn->Savepoint() : 0;
  return GuardedOdciCall(
      index, impl, kMaintenanceSite[size_t(kind)],
      kMaintenanceRoutine[size_t(kind)],
      [&] {
        switch (kind) {
          case Maintenance::kInsert:
            return impl->BatchInsert(info, rids, values, ctx);
          case Maintenance::kDelete:
            return impl->BatchDelete(info, rids, values, ctx);
          case Maintenance::kUpdate:
            break;
        }
        return impl->BatchUpdate(info, rids, values, new_values, ctx);
      },
      // A failed attempt may have written part of its rows: undo them, so
      // a retry starts from the state before the call.
      [&] {
        if (txn != nullptr) txn->RollbackTo(savepoint);
      });
}

Status DomainIndexManager::Maintain(
    Maintenance kind, const std::string& table_name,
    const std::vector<std::pair<RowId, Row>>& rows,
    const std::vector<Row>* new_rows, Transaction* txn) {
  if (kind == Maintenance::kUpdate &&
      (new_rows == nullptr || new_rows->size() != rows.size())) {
    return Status::Internal("Maintain: old/new row count mismatch");
  }
  if (rows.empty()) return Status::OK();
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_->GetTable(table_name));
  const Schema& schema = table->schema();
  for (IndexInfo* index : catalog_->IndexesOnTable(table_name)) {
    if (!index->is_domain()) continue;
    int col = schema.FindColumn(index->columns[0]);
    if (col < 0) {
      return Status::Internal("indexed column vanished: " + index->columns[0]);
    }
    // Row positions per owning slice, statement order within each.
    std::vector<std::vector<size_t>> groups(index->slices.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      IndexSlice* slice =
          index->SliceForSegment(HeapTable::SegmentOf(rows[i].first));
      if (slice == nullptr) {
        return Status::Internal("rowid " + std::to_string(rows[i].first) +
                                " maps to no slice of domain index " +
                                index->name);
      }
      groups[size_t(slice - index->slices.data())].push_back(i);
    }
    OdciIndexInfo info = index->ToOdciInfo(schema);
    GuardedServerContext ctx(catalog_, txn, CallbackMode::kMaintenance);
    for (size_t g = 0; g < groups.size(); ++g) {
      IndexSlice& slice = index->slices[g];
      if (groups[g].empty()) continue;
      slice.stats.clear();
      // SKIP_UNUSABLE semantics: maintenance bypasses a non-VALID slice;
      // REBUILD re-derives its contents from the base table later.
      if (slice.status != IndexStatus::kValid) continue;
      std::vector<RowId> rids;
      ValueList values;
      ValueList new_values;
      for (size_t i : groups[g]) {
        rids.push_back(rows[i].first);
        values.push_back(rows[i].second[col]);
        if (new_rows != nullptr) new_values.push_back((*new_rows)[i][col]);
      }
      info.index_name = slice.name;
      Status s = Dispatch(kind, index, slice, info, rids, values, new_values,
                          ctx, txn);
      if (!s.ok()) EXI_RETURN_IF_ERROR(MaintenanceFailed(index, &slice, s));
    }
  }
  return Status::OK();
}

// ---- scans ----

Result<std::unique_ptr<DomainIndexManager::Scan>>
DomainIndexManager::StartScan(const std::string& index_name,
                              const OdciPredInfo& pred, uint32_t segment) {
  EXI_ASSIGN_OR_RETURN(IndexInfo * index, GetDomainIndex(index_name));
  IndexSlice* slice = index->SliceForSegment(segment);
  if (slice == nullptr) {
    return Status::NotFound("no slice of domain index " + index_name +
                            " covers heap segment " + std::to_string(segment));
  }
  // A scan racing a status transition (a deferred maintenance failure, or
  // a plan made before a REBUILD) gets a clean ORA-01502-style error rather
  // than stale or partial results.
  if (slice->status != IndexStatus::kValid) {
    return IndexUnusableError(slice->name, slice->status);
  }
  OdciIndex* impl = slice->impl.get();
  OdciIndexInfo info = InfoFor(index);
  info.index_name = slice->name;
  auto ctx = std::make_unique<GuardedServerContext>(catalog_, nullptr,
                                                    CallbackMode::kScan);
  // A scan that reads the base table (text's NOT universe) sees only the
  // rows its slice covers.
  ctx->RestrictBaseScanToSegment(slice->segment);
  GlobalMetrics().odci_start_calls++;
  OdciScanContext sctx;
  EXI_RETURN_IF_ERROR(
      Invoke(index, impl, "odci/start", "ODCIIndexStart", [&]() -> Status {
        EXI_ASSIGN_OR_RETURN(sctx, impl->Start(info, pred, *ctx));
        return Status::OK();
      }));
  return std::unique_ptr<Scan>(new Scan(index, impl, std::move(info),
                                        std::move(ctx), std::move(sctx)));
}

DomainIndexManager::Scan::~Scan() {
  if (!closed_) (void)Close();
}

Status DomainIndexManager::Scan::NextBatch(size_t max_rows,
                                           OdciFetchBatch* out) {
  if (closed_) {
    return Status::InvalidArgument("fetch on closed domain-index scan");
  }
  out->rids.clear();
  out->ancillary.clear();
  out->last = false;
  GlobalMetrics().odci_fetch_calls++;
  auto fetch = [&]() -> Status {
    if (sctx_.uses_handle()) {
      EXI_RETURN_IF_ERROR(impl_->Fetch(info_, sctx_, max_rows, out, *ctx_));
    } else {
      // Return State: the context object crosses the interface by value —
      // copy the serialized state in, invoke, copy the (possibly mutated)
      // state out.
      OdciScanContext by_value;
      by_value.state = sctx_.state;  // copy in
      EXI_RETURN_IF_ERROR(impl_->Fetch(info_, by_value, max_rows, out, *ctx_));
      sctx_.state = by_value.state;  // copy out
    }
    // Enforce the OdciFetchBatch contract here, at the dispatch layer, so a
    // buggy cartridge surfaces a clear error instead of silently
    // misaligning ancillary data with rowids downstream.
    if (!out->ancillary.empty() && out->ancillary.size() != out->rids.size()) {
      return Status::Internal(
          "cartridge contract violation: ODCIIndexFetch on " +
          info_.index_name + " returned " +
          std::to_string(out->ancillary.size()) + " ancillary values for " +
          std::to_string(out->rids.size()) + " rowids");
    }
    return Status::OK();
  };
  // Never retried: the scan context may have advanced before the failure
  // surfaced.
  return Invoke(index_, impl_, "odci/fetch", "ODCIIndexFetch", fetch);
}

Status DomainIndexManager::Scan::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  GlobalMetrics().odci_close_calls++;
  return Invoke(index_, impl_, "odci/close", "ODCIIndexClose",
                [&] { return impl_->Close(info_, sctx_, *ctx_); });
}

// ---- optimizer hooks ----

Result<SliceEstimate> DomainIndexManager::EstimateSlice(
    IndexInfo* index, const IndexSlice& slice, const OdciPredInfo& pred) {
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_->GetTable(index->table));
  const uint64_t rows = table->SegmentRowCount(slice.segment);
  SliceEstimate est{.selectivity = 0.05};
  if (index->domain_stats == nullptr) {
    est.cost = 10.0 + est.selectivity * double(rows);
    return est;
  }
  OdciStats& stats = *index->domain_stats;
  OdciIndexInfo info = index->ToOdciInfo(table->schema());
  info.index_name = slice.name;
  GuardedServerContext ctx(catalog_, nullptr, CallbackMode::kScan);
  EXI_RETURN_IF_ERROR(GuardedOdciCall(
      index, slice.impl.get(), "odci/stats_selectivity",
      "ODCIStatsSelectivity", [&]() -> Status {
        EXI_ASSIGN_OR_RETURN(est.selectivity,
                             stats.Selectivity(info, pred, rows, ctx));
        return Status::OK();
      }));
  est.selectivity = std::min(est.selectivity, 1.0);
  EXI_RETURN_IF_ERROR(GuardedOdciCall(
      index, slice.impl.get(), "odci/stats_index_cost", "ODCIStatsIndexCost",
      [&]() -> Status {
        EXI_ASSIGN_OR_RETURN(
            est.cost, stats.IndexCost(info, pred, est.selectivity, rows, ctx));
        return Status::OK();
      }));
  return est;
}

// ---- rebuild ----

Status DomainIndexManager::RebuildIndex(const std::string& index_name,
                                        const std::string& partition_name,
                                        Transaction* txn) {
  EXI_ASSIGN_OR_RETURN(IndexInfo * index, GetDomainIndex(index_name));
  EXI_ASSIGN_OR_RETURN(HeapTable * table, catalog_->GetTable(index->table));
  const std::string wanted =
      partition_name.empty() ? "" : index->name + "#" + partition_name;
  size_t rebuilt = 0;
  for (IndexSlice& slice : index->slices) {
    if (!wanted.empty() && !EqualsIgnoreCase(slice.name, wanted)) continue;
    ++rebuilt;
    slice.status = IndexStatus::kInProgress;
    // Best-effort drop of the stale slice storage: FAILED contents are out
    // of date and UNUSABLE ones may be partial, so ODCIIndexDrop must
    // tolerate both (cartridge-authors-guide.md "Error contract").
    DropSlices({{index, &slice}}, txn);
    Status built = BuildSlice(index, table->schema(), &slice, txn);
    if (!built.ok()) {
      slice.status = IndexStatus::kUnusable;
      index->last_error = built.ToString();
      return built;
    }
    slice.status = IndexStatus::kValid;
  }
  if (rebuilt == 0) {
    return Status::NotFound("no partition " + partition_name + " in index " +
                            index_name);
  }
  if (index->effective_status() == IndexStatus::kValid) {
    index->last_error.clear();
  }
  return Status::OK();
}

}  // namespace exi
