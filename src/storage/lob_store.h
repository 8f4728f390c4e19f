#ifndef EXTIDX_STORAGE_LOB_STORE_H_
#define EXTIDX_STORAGE_LOB_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/result.h"
#include "types/value.h"

namespace exi {

// In-database large-object store with a file-like byte-range API.
// The paper's chemistry cartridge migrated a file-based index into LOBs
// precisely because "LOBs can be accessed and manipulated with a file-like
// interface"; this store provides Read/Write/Append/Size over chunked
// storage, metering chunk-level I/O so benches can compare LOB traffic
// against FileStore traffic (experiment E5).
//
// LOBs participate in transactions: the txn layer snapshots LOBs touched by
// a statement and restores them on rollback.  Contents are stored as
// fixed-size chunks behind shared_ptrs, so a snapshot is an O(#chunks)
// pointer copy rather than a byte copy; a later write duplicates only the
// chunks it touches (copy-on-write).  Appending 100 bytes to a 10 MB
// posting list therefore copies at most one chunk for undo, not the LOB.
class LobStore {
 public:
  static constexpr size_t kChunkSize = 4096;

  // A point-in-time image of one LOB, held by the undo log.  Chunks are
  // shared with the live LOB until a write diverges them; a null chunk
  // pointer stands for an all-zero chunk (sparse zero-extension).
  struct LobSnapshot {
    uint64_t size = 0;
    std::vector<std::shared_ptr<std::vector<uint8_t>>> chunks;
  };

  LobStore() = default;
  LobStore(const LobStore&) = delete;
  LobStore& operator=(const LobStore&) = delete;

  // Creates an empty LOB and returns its id.
  LobId Create();

  // Deletes the LOB (idempotent).
  void Drop(LobId id);

  bool Exists(LobId id) const;

  // Byte size, or NotFound.
  Result<uint64_t> Size(LobId id) const;

  // Overwrites [offset, offset+data.size()), zero-extending if needed.
  Status Write(LobId id, uint64_t offset, const std::vector<uint8_t>& data);

  Status Append(LobId id, const std::vector<uint8_t>& data);

  // Reads up to `len` bytes starting at `offset` (short read at EOF).
  Result<std::vector<uint8_t>> Read(LobId id, uint64_t offset,
                                    uint64_t len) const;

  // Full contents.
  Result<std::vector<uint8_t>> ReadAll(LobId id) const;

  // Snapshot/restore used by the transaction layer.  Snapshot shares the
  // LOB's chunks (no byte copy); Restore reinstates the snapshot image,
  // creating the LOB if it no longer exists (rollback of a drop).
  Result<LobSnapshot> Snapshot(LobId id) const;
  Status Restore(LobId id, LobSnapshot snapshot);

  size_t lob_count() const { return lobs_.size(); }

 private:
  static uint64_t ChunkCount(uint64_t bytes) {
    return (bytes + kChunkSize - 1) / kChunkSize;
  }

  // Copies [offset, offset+n) into out (no metering; callers meter).
  static void ReadRange(const LobSnapshot& lob, uint64_t offset, uint64_t n,
                        uint8_t* out);

  // Returns chunk `ci` ready for in-place mutation, duplicating it first if
  // it is shared with a snapshot.  `full_overwrite` skips the byte copy
  // when the caller is about to overwrite the whole chunk.
  static std::vector<uint8_t>& MutableChunk(LobSnapshot& lob, uint64_t ci,
                                            bool full_overwrite);

  std::map<LobId, LobSnapshot> lobs_;
  LobId next_id_ = 1;
};

}  // namespace exi

#endif  // EXTIDX_STORAGE_LOB_STORE_H_
