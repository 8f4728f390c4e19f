#include "trace_kit.h"

#include <chrono>
#include <utility>

#include "catalog/catalog.h"

namespace perfbench {

using exi::CompositeKey;
using exi::FunctionRef;
using exi::OdciFetchBatch;
using exi::OdciIndexInfo;
using exi::OdciPredInfo;
using exi::OdciScanContext;
using exi::Result;
using exi::Row;
using exi::RowId;
using exi::ServerContext;
using exi::Status;
using exi::Value;
using exi::ValueList;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

// Per-thread span parent and callback-time ledger.  A routine's callback
// time is the growth of tl_callback_ns across its call; callbacks never run
// routines, so the ledger needs no stack.
thread_local uint32_t tl_parent = 0;
thread_local uint64_t tl_stmt = 0;
thread_local uint64_t tl_callback_ns = 0;

const char* const kRoutineNames[] = {
    "Create", "CreateStorage", "Alter",       "Truncate",    "Drop",
    "Insert", "Delete",        "Update",      "BatchInsert", "BatchDelete",
    "BatchUpdate", "Start",    "Fetch",       "Close",       "StatsSelectivity",
    "StatsIndexCost"};
const char* const kRoutineSpans[] = {
    "core.odci.Create",      "core.odci.CreateStorage",
    "core.odci.Alter",       "core.odci.Truncate",
    "core.odci.Drop",        "core.odci.Insert",
    "core.odci.Delete",      "core.odci.Update",
    "core.odci.BatchInsert", "core.odci.BatchDelete",
    "core.odci.BatchUpdate", "core.odci.Start",
    "core.odci.Fetch",       "core.odci.Close",
    "optimizer.odci_stats.Selectivity", "optimizer.odci_stats.IndexCost"};
static_assert(sizeof(kRoutineNames) / sizeof(kRoutineNames[0]) ==
              size_t(Routine::kCount));
static_assert(sizeof(kRoutineSpans) / sizeof(kRoutineSpans[0]) ==
              size_t(Routine::kCount));

const char* const kCallbackNames[] = {
    "IotUpsert",     "IotInsert",    "IotGet",
    "IotDelete",     "IotScanPrefix", "IotScanRange",
    "ScanBaseTable", "GetBaseTableRow", "Other"};
static_assert(sizeof(kCallbackNames) / sizeof(kCallbackNames[0]) ==
              size_t(Callback::kCount));

// Times one server callback; time spent back in cartridge code (a scan's
// visitor) is excluded via Exclude().
class CallbackTimer {
 public:
  CallbackTimer(TraceKit* kit, Callback which)
      : kit_(kit), which_(which), start_(NowNs()) {}
  ~CallbackTimer() {
    int64_t ns = NowNs() - start_ - excluded_;
    if (ns < 0) ns = 0;
    TraceKit::CallbackCounters& c = kit_->callback(which_);
    c.calls.fetch_add(1, std::memory_order_relaxed);
    c.ns.fetch_add(uint64_t(ns), std::memory_order_relaxed);
    c.rows.fetch_add(rows_, std::memory_order_relaxed);
    tl_callback_ns += uint64_t(ns);
    if (kit_->in_build()) {
      kit_->build_callbacks.fetch_add(1, std::memory_order_relaxed);
    }
  }
  CallbackTimer(const CallbackTimer&) = delete;
  CallbackTimer& operator=(const CallbackTimer&) = delete;

  void Exclude(int64_t ns) { excluded_ += ns; }
  void AddRows(uint64_t n) { rows_ += n; }

 private:
  TraceKit* kit_;
  Callback which_;
  int64_t start_;
  int64_t excluded_ = 0;
  uint64_t rows_ = 0;
};

// ServerContext decorator handed to the wrapped cartridge: forwards every
// callback to the engine's context and times the ones the per-layer table
// names.
class CountingContext final : public ServerContext {
 public:
  CountingContext(TraceKit* kit, ServerContext& inner)
      : kit_(kit), inner_(inner) {}

  exi::CallbackMode mode() const override { return inner_.mode(); }

  Status CreateIot(const std::string& name, exi::Schema schema,
                   size_t key_columns) override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.CreateIot(name, std::move(schema), key_columns);
  }
  Status DropIot(const std::string& name) override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.DropIot(name);
  }
  bool IotExists(const std::string& name) const override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.IotExists(name);
  }
  Status IotTruncate(const std::string& name) override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.IotTruncate(name);
  }
  Status IotInsert(const std::string& name, Row row) override {
    CallbackTimer t(kit_, Callback::kIotInsert);
    return inner_.IotInsert(name, std::move(row));
  }
  Status IotUpsert(const std::string& name, Row row) override {
    CallbackTimer t(kit_, Callback::kIotUpsert);
    return inner_.IotUpsert(name, std::move(row));
  }
  Status IotDelete(const std::string& name, const CompositeKey& key) override {
    CallbackTimer t(kit_, Callback::kIotDelete);
    return inner_.IotDelete(name, key);
  }
  Result<Row> IotGet(const std::string& name,
                     const CompositeKey& key) const override {
    CallbackTimer t(kit_, Callback::kIotGet);
    return inner_.IotGet(name, key);
  }
  // Scan visitors are cheap cartridge lambdas (posting collection, counts);
  // their time stays in the callback rather than paying two clock reads a
  // row.
  Status IotScanPrefix(const std::string& name, const CompositeKey& prefix,
                       FunctionRef<bool(const Row&)> visit) const override {
    CallbackTimer t(kit_, Callback::kIotScanPrefix);
    uint64_t rows = 0;
    Status s = inner_.IotScanPrefix(name, prefix, [&](const Row& row) {
      ++rows;
      return visit(row);
    });
    t.AddRows(rows);
    return s;
  }
  Status IotScanRange(const std::string& name, const CompositeKey* lo,
                      bool lo_inclusive, const CompositeKey* hi,
                      bool hi_inclusive,
                      FunctionRef<bool(const Row&)> visit) const override {
    CallbackTimer t(kit_, Callback::kIotScanRange);
    uint64_t rows = 0;
    Status s = inner_.IotScanRange(name, lo, lo_inclusive, hi, hi_inclusive,
                                   [&](const Row& row) {
                                     ++rows;
                                     return visit(row);
                                   });
    t.AddRows(rows);
    return s;
  }
  Result<uint64_t> IotRowCount(const std::string& name) const override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.IotRowCount(name);
  }

  Status CreateIndexTable(const std::string& name,
                          exi::Schema schema) override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.CreateIndexTable(name, std::move(schema));
  }
  Status DropIndexTable(const std::string& name) override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.DropIndexTable(name);
  }
  bool IndexTableExists(const std::string& name) const override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.IndexTableExists(name);
  }
  Status IndexTableTruncate(const std::string& name) override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.IndexTableTruncate(name);
  }
  Result<RowId> IndexTableInsert(const std::string& name, Row row) override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.IndexTableInsert(name, std::move(row));
  }
  Status IndexTableDelete(const std::string& name, RowId rid) override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.IndexTableDelete(name, rid);
  }
  Status IndexTableScan(
      const std::string& name,
      FunctionRef<bool(RowId, const Row&)> visit) const override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.IndexTableScan(name, visit);
  }

  Result<exi::LobId> CreateLob() override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.CreateLob();
  }
  Status DropLob(exi::LobId id) override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.DropLob(id);
  }
  Status WriteLob(exi::LobId id, uint64_t offset,
                  const std::vector<uint8_t>& data) override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.WriteLob(id, offset, data);
  }
  Status AppendLob(exi::LobId id, const std::vector<uint8_t>& data) override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.AppendLob(id, data);
  }
  Result<std::vector<uint8_t>> ReadLob(exi::LobId id, uint64_t offset,
                                       uint64_t len) const override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.ReadLob(id, offset, len);
  }
  Result<std::vector<uint8_t>> ReadLobAll(exi::LobId id) const override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.ReadLobAll(id);
  }
  Result<uint64_t> LobSize(exi::LobId id) const override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.LobSize(id);
  }

  Result<exi::FileStore*> ExternalFiles(
      const std::string& store_name) override {
    CallbackTimer t(kit_, Callback::kOther);
    return inner_.ExternalFiles(store_name);
  }

  // An index build runs the cartridge's per-row work inside this visitor,
  // so visitor time is cartridge time and is excluded from the callback.
  Status ScanBaseTable(
      const std::string& table_name,
      const std::function<bool(RowId, const Row&)>& visit) const override {
    CallbackTimer t(kit_, Callback::kScanBaseTable);
    int64_t visitor_ns = 0;
    uint64_t rows = 0;
    Status s = inner_.ScanBaseTable(
        table_name, [&](RowId rid, const Row& row) {
          int64_t v0 = NowNs();
          bool more = visit(rid, row);
          visitor_ns += NowNs() - v0;
          ++rows;
          return more;
        });
    t.Exclude(visitor_ns);
    t.AddRows(rows);
    if (kit_->in_build()) {
      kit_->build_docs.fetch_add(rows, std::memory_order_relaxed);
    }
    return s;
  }
  Result<Row> GetBaseTableRow(const std::string& table_name,
                              RowId rid) const override {
    CallbackTimer t(kit_, Callback::kGetBaseTableRow);
    return inner_.GetBaseTableRow(table_name, rid);
  }

 private:
  TraceKit* kit_;
  ServerContext& inner_;
};

// Runs one ODCI routine under a span, through a CountingContext, and
// charges its total and callback time to the routine's counters.
template <typename Fn>
auto TimedRoutine(TraceKit* kit, Routine r, ServerContext& ctx, Fn&& fn)
    -> decltype(fn(ctx)) {
  if (!kit->enabled()) return fn(ctx);
  CountingContext counting(kit, ctx);
  uint64_t callback_before = tl_callback_ns;
  SpanScope span(kit, kRoutineSpans[int(r)]);
  auto result = fn(counting);
  int64_t ns = NowNs() - span.start_ns();
  TraceKit::RoutineCounters& c = kit->routine(r);
  c.calls.fetch_add(1, std::memory_order_relaxed);
  c.ns.fetch_add(uint64_t(ns > 0 ? ns : 0), std::memory_order_relaxed);
  c.callback_ns.fetch_add(tl_callback_ns - callback_before,
                          std::memory_order_relaxed);
  return result;
}

class TracedIndex final : public exi::OdciIndex {
 public:
  TracedIndex(std::shared_ptr<exi::OdciIndex> inner, TraceKit* kit)
      : inner_(std::move(inner)), kit_(kit) {}

  exi::OdciCapabilities Capabilities() const override {
    return inner_->Capabilities();
  }
  const char* TraceLabel() const override { return inner_->TraceLabel(); }

  Status Create(const OdciIndexInfo& info, ServerContext& ctx) override {
    return TimedRoutine(kit_, Routine::kCreate, ctx, [&](ServerContext& c) {
      return inner_->Create(info, c);
    });
  }
  Status CreateStorage(const OdciIndexInfo& info,
                       ServerContext& ctx) override {
    return TimedRoutine(kit_, Routine::kCreateStorage, ctx,
                        [&](ServerContext& c) {
                          return inner_->CreateStorage(info, c);
                        });
  }
  Status Alter(const OdciIndexInfo& info, ServerContext& ctx) override {
    return TimedRoutine(kit_, Routine::kAlter, ctx, [&](ServerContext& c) {
      return inner_->Alter(info, c);
    });
  }
  Status Truncate(const OdciIndexInfo& info, ServerContext& ctx) override {
    return TimedRoutine(kit_, Routine::kTruncate, ctx, [&](ServerContext& c) {
      return inner_->Truncate(info, c);
    });
  }
  Status Drop(const OdciIndexInfo& info, ServerContext& ctx) override {
    return TimedRoutine(kit_, Routine::kDrop, ctx, [&](ServerContext& c) {
      return inner_->Drop(info, c);
    });
  }

  Status Insert(const OdciIndexInfo& info, RowId rid, const Value& new_value,
                ServerContext& ctx) override {
    // Inserts issued while a build statement runs are the parallel build
    // protocol's per-row population.
    if (kit_->enabled() && kit_->in_build()) {
      kit_->build_docs.fetch_add(1, std::memory_order_relaxed);
    }
    return TimedRoutine(kit_, Routine::kInsert, ctx, [&](ServerContext& c) {
      return inner_->Insert(info, rid, new_value, c);
    });
  }
  Status Delete(const OdciIndexInfo& info, RowId rid, const Value& old_value,
                ServerContext& ctx) override {
    return TimedRoutine(kit_, Routine::kDelete, ctx, [&](ServerContext& c) {
      return inner_->Delete(info, rid, old_value, c);
    });
  }
  Status Update(const OdciIndexInfo& info, RowId rid, const Value& old_value,
                const Value& new_value, ServerContext& ctx) override {
    return TimedRoutine(kit_, Routine::kUpdate, ctx, [&](ServerContext& c) {
      return inner_->Update(info, rid, old_value, new_value, c);
    });
  }

  Status BatchInsert(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& new_values,
                     ServerContext& ctx) override {
    AddRows(Routine::kBatchInsert, rids.size());
    return TimedRoutine(kit_, Routine::kBatchInsert, ctx,
                        [&](ServerContext& c) {
                          return inner_->BatchInsert(info, rids, new_values,
                                                     c);
                        });
  }
  Status BatchDelete(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& old_values,
                     ServerContext& ctx) override {
    AddRows(Routine::kBatchDelete, rids.size());
    return TimedRoutine(kit_, Routine::kBatchDelete, ctx,
                        [&](ServerContext& c) {
                          return inner_->BatchDelete(info, rids, old_values,
                                                     c);
                        });
  }
  Status BatchUpdate(const OdciIndexInfo& info, const std::vector<RowId>& rids,
                     const ValueList& old_values, const ValueList& new_values,
                     ServerContext& ctx) override {
    AddRows(Routine::kBatchUpdate, rids.size());
    return TimedRoutine(kit_, Routine::kBatchUpdate, ctx,
                        [&](ServerContext& c) {
                          return inner_->BatchUpdate(info, rids, old_values,
                                                     new_values, c);
                        });
  }

  Result<OdciScanContext> Start(const OdciIndexInfo& info,
                                const OdciPredInfo& pred,
                                ServerContext& ctx) override {
    return TimedRoutine(kit_, Routine::kStart, ctx, [&](ServerContext& c) {
      return inner_->Start(info, pred, c);
    });
  }
  Status Fetch(const OdciIndexInfo& info, OdciScanContext& sctx,
               size_t max_rows, OdciFetchBatch* out,
               ServerContext& ctx) override {
    size_t before = out->rids.size();
    Status s = TimedRoutine(kit_, Routine::kFetch, ctx, [&](ServerContext& c) {
      return inner_->Fetch(info, sctx, max_rows, out, c);
    });
    AddRows(Routine::kFetch, out->rids.size() - before);
    return s;
  }
  Status Close(const OdciIndexInfo& info, OdciScanContext& sctx,
               ServerContext& ctx) override {
    return TimedRoutine(kit_, Routine::kClose, ctx, [&](ServerContext& c) {
      return inner_->Close(info, sctx, c);
    });
  }

 private:
  void AddRows(Routine r, size_t n) {
    if (kit_->enabled()) {
      kit_->routine(r).rows.fetch_add(n, std::memory_order_relaxed);
    }
  }

  std::shared_ptr<exi::OdciIndex> inner_;
  TraceKit* kit_;
};

class TracedStats final : public exi::OdciStats {
 public:
  TracedStats(std::shared_ptr<exi::OdciStats> inner, TraceKit* kit)
      : inner_(std::move(inner)), kit_(kit) {}

  Result<double> Selectivity(const OdciIndexInfo& info,
                             const OdciPredInfo& pred, uint64_t table_rows,
                             ServerContext& ctx) override {
    return TimedRoutine(kit_, Routine::kSelectivity, ctx,
                        [&](ServerContext& c) {
                          return inner_->Selectivity(info, pred, table_rows,
                                                     c);
                        });
  }
  Result<double> IndexCost(const OdciIndexInfo& info, const OdciPredInfo& pred,
                           double selectivity, uint64_t table_rows,
                           ServerContext& ctx) override {
    return TimedRoutine(kit_, Routine::kIndexCost, ctx,
                        [&](ServerContext& c) {
                          return inner_->IndexCost(info, pred, selectivity,
                                                   table_rows, c);
                        });
  }

 private:
  std::shared_ptr<exi::OdciStats> inner_;
  TraceKit* kit_;
};

}  // namespace

const char* RoutineName(Routine r) { return kRoutineNames[int(r)]; }
const char* CallbackName(Callback c) { return kCallbackNames[int(c)]; }

uint64_t TraceKit::BeginStatement() {
  uint64_t id = next_stmt_.fetch_add(1) + 1;
  current_stmt_.store(id);
  tl_stmt = id;
  return id;
}

void TraceKit::Record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  spans_.push_back(span);
}

std::vector<Span> TraceKit::TakeSpans() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

SpanScope::SpanScope(TraceKit* kit, const char* name)
    : kit_(kit != nullptr && kit->enabled() ? kit : nullptr) {
  if (kit_ == nullptr) return;
  span_.stmt = tl_stmt != 0 ? tl_stmt : kit_->current_statement();
  span_.id = kit_->NextSpanId();
  span_.parent = tl_parent;
  span_.name = name;
  saved_parent_ = tl_parent;
  tl_parent = span_.id;
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (kit_ == nullptr) return;
  span_.end_ns = NowNs();
  tl_parent = saved_parent_;
  kit_->Record(span_);
}

exi::Status InstallTracedImplementations(exi::Connection* conn,
                                         TraceKit* kit) {
  exi::Catalog& catalog = conn->db()->catalog();
  std::vector<exi::IndexTypeDef> defs;
  for (const exi::IndexTypeDef* def : catalog.IndexTypes()) {
    defs.push_back(*def);
  }
  for (exi::IndexTypeDef& def : defs) {
    std::string traced = "Traced" + def.implementation;
    if (!catalog.implementations().Contains(traced)) {
      EXI_ASSIGN_OR_RETURN(
          exi::OdciIndexFactory index_factory,
          catalog.implementations().GetIndexFactory(def.implementation));
      EXI_ASSIGN_OR_RETURN(
          exi::OdciStatsFactory stats_factory,
          catalog.implementations().GetStatsFactory(def.implementation));
      exi::OdciStatsFactory traced_stats = nullptr;
      if (stats_factory) {
        traced_stats = [stats_factory, kit]() -> std::shared_ptr<exi::OdciStats> {
          return std::make_shared<TracedStats>(stats_factory(), kit);
        };
      }
      EXI_RETURN_IF_ERROR(catalog.implementations().Register(
          traced,
          [index_factory, kit]() -> std::shared_ptr<exi::OdciIndex> {
            return std::make_shared<TracedIndex>(index_factory(), kit);
          },
          traced_stats));
    }
    EXI_RETURN_IF_ERROR(catalog.DropIndexType(def.name));
    def.implementation = traced;
    EXI_RETURN_IF_ERROR(catalog.CreateIndexType(std::move(def)));
  }
  return exi::Status::OK();
}

}  // namespace perfbench
