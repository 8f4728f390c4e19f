#ifndef EXTIDX_CORE_BUFFERED_CONTEXT_H_
#define EXTIDX_CORE_BUFFERED_CONTEXT_H_

#include <memory>
#include <string>
#include <vector>

#include "core/callback_guard.h"
#include "core/odci.h"

namespace exi {

// ServerContext handed to ODCIIndexInsert callbacks running on pool workers
// during a parallel index build (DESIGN.md §5).  Catalog state is shared and
// unsynchronized, so workers must not mutate it: this context queues IOT
// writes into a thread-local buffer, and the build coordinator merges every
// worker's buffer into one sorted load per IOT afterwards, through the real
// guarded context — which is also where undo logging and CallbackMode
// enforcement happen.
//
// Reads are forwarded to the catalog read-only (concurrent readers are safe:
// index structures are immutable during the build and the logical-I/O
// counters are atomic).  Buffered writes are NOT visible to reads; that is
// part of the parallel_build capability contract (core/odci.h).
//
// Anything outside the bufferable write set (IOT DDL, index-data heap
// tables, LOB writes, external files) returns NotSupported, which the build
// coordinator converts into a serial-build fallback.
class BufferingServerContext : public ServerContext {
 public:
  explicit BufferingServerContext(Catalog* catalog)
      : catalog_(catalog), reads_(catalog, nullptr, CallbackMode::kScan) {}

  CallbackMode mode() const override { return CallbackMode::kDefinition; }

  // ---- buffered IOT DML ----
  Status IotInsert(const std::string& name, Row row) override;
  Status IotUpsert(const std::string& name, Row row) override;
  Status IotDelete(const std::string& name, const CompositeKey& key) override;

  // Applies the writes queued in `buffers`, taken in buffer order, to
  // `ctx` (the real guarded definition context): each IOT's writes are
  // merged into key order, repeats of a key resolved in queue order (a
  // later write wins, a delete cancels an earlier write), and the result
  // handed to one IotBulkLoad.  Returns the error the first failing write
  // would get if the queue were applied one write at a time, and then
  // loads nothing; NotSupported if a target IOT is not empty.  Empties
  // the buffers.
  static Status Replay(
      const std::vector<std::unique_ptr<BufferingServerContext>>& buffers,
      ServerContext& ctx);

  // ---- unbufferable mutations: force serial fallback ----
  Status CreateIot(const std::string& name, Schema schema,
                   size_t key_columns) override;
  Status DropIot(const std::string& name) override;
  Status IotTruncate(const std::string& name) override;
  Status CreateIndexTable(const std::string& name, Schema schema) override;
  Status DropIndexTable(const std::string& name) override;
  Status IndexTableTruncate(const std::string& name) override;
  Result<RowId> IndexTableInsert(const std::string& name, Row row) override;
  Status IndexTableDelete(const std::string& name, RowId rid) override;
  Result<LobId> CreateLob() override;
  Status DropLob(LobId id) override;
  Status WriteLob(LobId id, uint64_t offset,
                  const std::vector<uint8_t>& data) override;
  Status AppendLob(LobId id, const std::vector<uint8_t>& data) override;
  Result<FileStore*> ExternalFiles(const std::string& store_name) override;

  // ---- reads: forwarded to the catalog ----
  bool IotExists(const std::string& name) const override;
  Result<Row> IotGet(const std::string& name,
                     const CompositeKey& key) const override;
  Status IotScanPrefix(const std::string& name, const CompositeKey& prefix,
                       FunctionRef<bool(const Row&)> visit) const override;
  Status IotScanRange(const std::string& name, const CompositeKey* lo,
                      bool lo_inclusive, const CompositeKey* hi,
                      bool hi_inclusive,
                      FunctionRef<bool(const Row&)> visit) const override;
  Result<uint64_t> IotRowCount(const std::string& name) const override;
  bool IndexTableExists(const std::string& name) const override;
  Status IndexTableScan(
      const std::string& name,
      FunctionRef<bool(RowId, const Row&)> visit) const override;
  Result<std::vector<uint8_t>> ReadLob(LobId id, uint64_t offset,
                                       uint64_t len) const override;
  Result<std::vector<uint8_t>> ReadLobAll(LobId id) const override;
  Result<uint64_t> LobSize(LobId id) const override;
  Status ScanBaseTable(
      const std::string& table_name,
      const std::function<bool(RowId, const Row&)>& visit) const override;
  Result<Row> GetBaseTableRow(const std::string& table_name,
                              RowId rid) const override;

 private:
  struct BufferedOp {
    enum class Kind { kIotInsert, kIotUpsert, kIotDelete };
    Kind kind;
    std::string iot;
    Row row;           // insert/upsert
    CompositeKey key;  // delete
  };

  Catalog* catalog_;
  GuardedServerContext reads_;
  std::vector<BufferedOp> ops_;
};

}  // namespace exi

#endif  // EXTIDX_CORE_BUFFERED_CONTEXT_H_
