#include "storage/lob_store.h"

#include <algorithm>
#include <cstring>

#include "common/metrics.h"

namespace exi {

LobId LobStore::Create() {
  LobId id = next_id_++;
  lobs_[id] = {};
  return id;
}

void LobStore::Drop(LobId id) { lobs_.erase(id); }

bool LobStore::Exists(LobId id) const { return lobs_.count(id) > 0; }

Result<uint64_t> LobStore::Size(LobId id) const {
  auto it = lobs_.find(id);
  if (it == lobs_.end()) {
    return Status::NotFound("no LOB " + std::to_string(id));
  }
  return it->second.size;
}

std::vector<uint8_t>& LobStore::MutableChunk(LobSnapshot& lob, uint64_t ci,
                                             bool full_overwrite) {
  std::shared_ptr<std::vector<uint8_t>>& slot = lob.chunks[ci];
  if (slot == nullptr) {
    slot = std::make_shared<std::vector<uint8_t>>(kChunkSize, 0);
  } else if (slot.use_count() > 1) {
    // Shared with at least one snapshot: diverge before mutating.  Only a
    // partial-chunk write needs the old bytes carried over.
    if (full_overwrite) {
      slot = std::make_shared<std::vector<uint8_t>>(kChunkSize, 0);
    } else {
      GlobalMetrics().lob_cow_chunks_copied += 1;
      GlobalMetrics().lob_snapshot_bytes += slot->size();
      slot = std::make_shared<std::vector<uint8_t>>(*slot);
    }
  }
  return *slot;
}

Status LobStore::Write(LobId id, uint64_t offset,
                       const std::vector<uint8_t>& data) {
  auto it = lobs_.find(id);
  if (it == lobs_.end()) {
    return Status::NotFound("no LOB " + std::to_string(id));
  }
  LobSnapshot& lob = it->second;
  uint64_t end = offset + data.size();
  if (lob.size < end) lob.size = end;
  lob.chunks.resize(ChunkCount(lob.size));
  uint64_t pos = offset;
  size_t di = 0;
  while (di < data.size()) {
    uint64_t ci = pos / kChunkSize;
    uint64_t co = pos % kChunkSize;
    uint64_t n = std::min<uint64_t>(kChunkSize - co, data.size() - di);
    std::vector<uint8_t>& chunk =
        MutableChunk(lob, ci, /*full_overwrite=*/co == 0 && n == kChunkSize);
    std::memcpy(chunk.data() + co, data.data() + di, n);
    pos += n;
    di += n;
  }
  GlobalMetrics().lob_chunks_written += std::max<uint64_t>(
      1, ChunkCount(data.size()));
  GlobalMetrics().lob_bytes_written += data.size();
  return Status::OK();
}

Status LobStore::Append(LobId id, const std::vector<uint8_t>& data) {
  auto it = lobs_.find(id);
  if (it == lobs_.end()) {
    return Status::NotFound("no LOB " + std::to_string(id));
  }
  return Write(id, it->second.size, data);
}

void LobStore::ReadRange(const LobSnapshot& lob, uint64_t offset, uint64_t n,
                         uint8_t* out) {
  uint64_t pos = offset;
  uint64_t oi = 0;
  while (oi < n) {
    uint64_t ci = pos / kChunkSize;
    uint64_t co = pos % kChunkSize;
    uint64_t take = std::min<uint64_t>(kChunkSize - co, n - oi);
    const std::shared_ptr<std::vector<uint8_t>>& slot = lob.chunks[ci];
    if (slot != nullptr) {
      std::memcpy(out + oi, slot->data() + co, take);
    }  // null chunk = zeros; `out` is pre-zeroed by the callers.
    pos += take;
    oi += take;
  }
}

Result<std::vector<uint8_t>> LobStore::Read(LobId id, uint64_t offset,
                                            uint64_t len) const {
  auto it = lobs_.find(id);
  if (it == lobs_.end()) {
    return Status::NotFound("no LOB " + std::to_string(id));
  }
  const LobSnapshot& lob = it->second;
  if (offset >= lob.size) return std::vector<uint8_t>{};
  uint64_t avail = lob.size - offset;
  uint64_t n = std::min(len, avail);
  GlobalMetrics().lob_chunks_read += std::max<uint64_t>(1, ChunkCount(n));
  std::vector<uint8_t> out(n, 0);
  ReadRange(lob, offset, n, out.data());
  return out;
}

Result<std::vector<uint8_t>> LobStore::ReadAll(LobId id) const {
  auto it = lobs_.find(id);
  if (it == lobs_.end()) {
    return Status::NotFound("no LOB " + std::to_string(id));
  }
  const LobSnapshot& lob = it->second;
  GlobalMetrics().lob_chunks_read +=
      std::max<uint64_t>(1, ChunkCount(lob.size));
  std::vector<uint8_t> out(lob.size, 0);
  ReadRange(lob, 0, lob.size, out.data());
  return out;
}

Result<LobStore::LobSnapshot> LobStore::Snapshot(LobId id) const {
  auto it = lobs_.find(id);
  if (it == lobs_.end()) {
    return Status::NotFound("no LOB " + std::to_string(id));
  }
  // Pointer copy only: the undo log now holds shared chunk references, and
  // writes pay the byte copy lazily (and only for the chunks they touch).
  return it->second;
}

Status LobStore::Restore(LobId id, LobSnapshot snapshot) {
  lobs_[id] = std::move(snapshot);
  return Status::OK();
}

}  // namespace exi
