#include "core/buffered_context.h"

#include <algorithm>
#include <map>

namespace exi {

namespace {

Status Unbufferable(const char* what) {
  return Status::NotSupported(std::string(what) +
                              " is not bufferable during a parallel build");
}

}  // namespace

// ---- buffered IOT DML ----

Status BufferingServerContext::IotInsert(const std::string& name, Row row) {
  ops_.push_back({BufferedOp::Kind::kIotInsert, name, std::move(row), {}});
  return Status::OK();
}

Status BufferingServerContext::IotUpsert(const std::string& name, Row row) {
  ops_.push_back({BufferedOp::Kind::kIotUpsert, name, std::move(row), {}});
  return Status::OK();
}

Status BufferingServerContext::IotDelete(const std::string& name,
                                         const CompositeKey& key) {
  ops_.push_back({BufferedOp::Kind::kIotDelete, name, {}, key});
  return Status::OK();
}

Status BufferingServerContext::Replay(
    const std::vector<std::unique_ptr<BufferingServerContext>>& buffers,
    ServerContext& ctx) {
  if (buffers.empty()) return Status::OK();
  Catalog* catalog = buffers.front()->catalog_;
  // Each IOT's writes with their positions in queue order.
  std::map<std::string, std::vector<std::pair<size_t, BufferedOp*>>> by_iot;
  size_t queued = 0;
  for (const std::unique_ptr<BufferingServerContext>& buf : buffers) {
    for (BufferedOp& op : buf->ops_) by_iot[op.iot].emplace_back(queued++, &op);
  }

  // The first write (in queue order) that one-at-a-time application would
  // fail on, and its error.
  size_t first_error_seq = queued;
  Status first_error = Status::OK();
  auto fail = [&](size_t at, Status s) {
    if (at < first_error_seq) {
      first_error_seq = at;
      first_error = std::move(s);
    }
  };
  std::vector<std::pair<std::string, std::vector<Row>>> loads;
  for (auto& [name, ops] : by_iot) {
    Result<Iot*> found = catalog->GetIot(name);
    if (!found.ok()) {
      fail(ops.front().first, found.status());
      continue;
    }
    const Iot& iot = **found;
    if (iot.row_count() != 0) {
      return Status::NotSupported("split build into non-empty IOT " + name);
    }
    // One write in the merge: its primary key (led by the row's key
    // columns, or the delete key) with the key's image, its position in
    // queue order, and the write.
    struct Entry {
      KeyImage image;
      const Value* key;
      size_t seq;
      BufferedOp* op;
    };
    const size_t width = iot.key_columns();
    std::vector<Entry> entries;
    entries.reserve(ops.size());
    for (const auto& [seq, op] : ops) {
      // Writes that fail on their own (a bad row, or a delete key of
      // another width, which matches no stored row) take no part.
      if (op->kind == BufferedOp::Kind::kIotDelete) {
        if (op->key.size() != width) {
          fail(seq, iot.MissingKeyError(op->key));
          continue;
        }
      } else if (Status valid = iot.schema().ValidateRow(op->row);
                 !valid.ok()) {
        fail(seq, std::move(valid));
        continue;
      }
      const Value* key = op->kind == BufferedOp::Kind::kIotDelete
                             ? op->key.data()
                             : op->row.data();
      entries.push_back({MakeKeyImage(key, width), key, seq, op});
    }
    auto compare = [width](const Entry& a, const Entry& b) {
      return CompareImagedKeys(a.image, a.key, b.image, b.key, width);
    };
    // Writes to one key keep queue order.
    std::sort(entries.begin(), entries.end(),
              [&](const Entry& a, const Entry& b) {
                int c = compare(a, b);
                return c != 0 ? c < 0 : a.seq < b.seq;
              });
    std::vector<Row> rows;
    for (size_t at = 0; at < entries.size();) {
      // Apply this key's writes in order to an initially absent row.
      Row* live = nullptr;
      size_t end = at;
      for (; end < entries.size() && compare(entries[at], entries[end]) == 0;
           ++end) {
        BufferedOp& op = *entries[end].op;
        switch (op.kind) {
          case BufferedOp::Kind::kIotInsert:
            if (live != nullptr) {
              fail(entries[end].seq, iot.DuplicateKeyError(iot.KeyOf(op.row)));
            }
            live = &op.row;
            break;
          case BufferedOp::Kind::kIotUpsert:
            live = &op.row;
            break;
          case BufferedOp::Kind::kIotDelete:
            if (live == nullptr) {
              fail(entries[end].seq, iot.MissingKeyError(op.key));
            }
            live = nullptr;
            break;
        }
      }
      if (live != nullptr) rows.push_back(std::move(*live));
      at = end;
    }
    loads.emplace_back(name, std::move(rows));
  }
  // The surviving rows moved out; free the queues before the loads.
  for (const std::unique_ptr<BufferingServerContext>& buf : buffers) {
    std::vector<BufferedOp>().swap(buf->ops_);
  }
  EXI_RETURN_IF_ERROR(first_error);
  for (auto& [name, rows] : loads) {
    EXI_RETURN_IF_ERROR(ctx.IotBulkLoad(name, std::move(rows)));
  }
  return Status::OK();
}

// ---- unbufferable mutations ----

Status BufferingServerContext::CreateIot(const std::string&, Schema, size_t) {
  return Unbufferable("CreateIot");
}
Status BufferingServerContext::DropIot(const std::string&) {
  return Unbufferable("DropIot");
}
Status BufferingServerContext::IotTruncate(const std::string&) {
  return Unbufferable("IotTruncate");
}
Status BufferingServerContext::CreateIndexTable(const std::string&, Schema) {
  return Unbufferable("CreateIndexTable");
}
Status BufferingServerContext::DropIndexTable(const std::string&) {
  return Unbufferable("DropIndexTable");
}
Status BufferingServerContext::IndexTableTruncate(const std::string&) {
  return Unbufferable("IndexTableTruncate");
}
Result<RowId> BufferingServerContext::IndexTableInsert(const std::string&,
                                                       Row) {
  return Unbufferable("IndexTableInsert");
}
Status BufferingServerContext::IndexTableDelete(const std::string&, RowId) {
  return Unbufferable("IndexTableDelete");
}
Result<LobId> BufferingServerContext::CreateLob() {
  return Unbufferable("CreateLob");
}
Status BufferingServerContext::DropLob(LobId) {
  return Unbufferable("DropLob");
}
Status BufferingServerContext::WriteLob(LobId, uint64_t,
                                        const std::vector<uint8_t>&) {
  return Unbufferable("WriteLob");
}
Status BufferingServerContext::AppendLob(LobId, const std::vector<uint8_t>&) {
  return Unbufferable("AppendLob");
}
Result<FileStore*> BufferingServerContext::ExternalFiles(const std::string&) {
  return Unbufferable("ExternalFiles");
}

// ---- forwarded reads ----

bool BufferingServerContext::IotExists(const std::string& name) const {
  return reads_.IotExists(name);
}
Result<Row> BufferingServerContext::IotGet(const std::string& name,
                                           const CompositeKey& key) const {
  return reads_.IotGet(name, key);
}
Status BufferingServerContext::IotScanPrefix(
    const std::string& name, const CompositeKey& prefix,
    FunctionRef<bool(const Row&)> visit) const {
  return reads_.IotScanPrefix(name, prefix, visit);
}
Status BufferingServerContext::IotScanRange(
    const std::string& name, const CompositeKey* lo, bool lo_inclusive,
    const CompositeKey* hi, bool hi_inclusive,
    FunctionRef<bool(const Row&)> visit) const {
  return reads_.IotScanRange(name, lo, lo_inclusive, hi, hi_inclusive, visit);
}
Result<uint64_t> BufferingServerContext::IotRowCount(
    const std::string& name) const {
  return reads_.IotRowCount(name);
}
bool BufferingServerContext::IndexTableExists(const std::string& name) const {
  return reads_.IndexTableExists(name);
}
Status BufferingServerContext::IndexTableScan(
    const std::string& name,
    FunctionRef<bool(RowId, const Row&)> visit) const {
  return reads_.IndexTableScan(name, visit);
}
Result<std::vector<uint8_t>> BufferingServerContext::ReadLob(
    LobId id, uint64_t offset, uint64_t len) const {
  return reads_.ReadLob(id, offset, len);
}
Result<std::vector<uint8_t>> BufferingServerContext::ReadLobAll(
    LobId id) const {
  return reads_.ReadLobAll(id);
}
Result<uint64_t> BufferingServerContext::LobSize(LobId id) const {
  return reads_.LobSize(id);
}
Status BufferingServerContext::ScanBaseTable(
    const std::string& table_name,
    const std::function<bool(RowId, const Row&)>& visit) const {
  return reads_.ScanBaseTable(table_name, visit);
}
Result<Row> BufferingServerContext::GetBaseTableRow(
    const std::string& table_name, RowId rid) const {
  return reads_.GetBaseTableRow(table_name, rid);
}

}  // namespace exi
