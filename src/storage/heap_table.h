#ifndef EXTIDX_STORAGE_HEAP_TABLE_H_
#define EXTIDX_STORAGE_HEAP_TABLE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/schema.h"
#include "types/value.h"

namespace exi {

// Heap-organized table: unordered row storage addressed by stable RowIds.
// RowIds are assigned monotonically at insert time and never reused, so a
// domain index may durably reference them (the paper's rowid contract).
//
// Storage is split into *segments* (DESIGN.md §7): every table has an
// implicit segment 0, and a partitioned table maps each partition to one
// additional segment.  A RowId encodes its owning segment in the high bits:
//
//   rid = (segment << 44) | (local_slot + 1)
//
// Segment 0 rows therefore keep the historical rid == slot + 1 encoding,
// and a rid's partition is recoverable in O(1) via SegmentOf() — which is
// what routes index maintenance to the right local index storage.
//
// The heap knows nothing about indexes or transactions; index maintenance
// and undo logging are layered on top (src/core, src/txn).
class HeapTable {
  struct Segment {
    // Slot i holds the row with local slot number i+1; nullopt = deleted.
    std::vector<std::optional<Row>> slots;
    uint64_t live = 0;
  };

 public:
  static constexpr int kSegmentShift = 44;
  static constexpr uint64_t kSlotMask = (uint64_t{1} << kSegmentShift) - 1;

  HeapTable(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {
    segments_[0];  // implicit main segment
  }

  HeapTable(const HeapTable&) = delete;
  HeapTable& operator=(const HeapTable&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  uint64_t row_count() const { return live_count_; }

  // Segment that owns `rid` (0 for unpartitioned rows).
  static uint32_t SegmentOf(RowId rid) {
    return static_cast<uint32_t>(rid >> kSegmentShift);
  }

  // Allocates a fresh segment id (monotonic, never reused) and returns it.
  uint32_t AddSegment();

  // Removes a segment and all its rows in O(1) per-row-free work (no index
  // maintenance happens here — callers handle that).  Segment 0 cannot be
  // dropped.  Returns the number of live rows removed.
  Result<uint64_t> DropSegment(uint32_t segment);

  // Removes all rows of one segment; the segment stays allocatable for new
  // inserts and its local slot counter keeps advancing (no rid reuse).
  // Returns the number of live rows removed.
  Result<uint64_t> TruncateSegment(uint32_t segment);

  uint64_t SegmentRowCount(uint32_t segment) const;

  // Validates against the schema and stores the row in segment 0.
  // Returns the new RowId.
  Result<RowId> Insert(Row row) { return InsertInto(0, std::move(row)); }

  // Stores the row in the given segment (partition routing).
  Result<RowId> InsertInto(uint32_t segment, Row row);

  // Replaces the row at `rid`. Errors if the row does not exist.
  Status Update(RowId rid, Row row);

  // Removes the row at `rid`. Errors if the row does not exist.
  Status Delete(RowId rid);

  // Re-inserts a row under its original RowId (transaction undo of a
  // delete). Errors if the slot is occupied or its segment is gone.
  Status Resurrect(RowId rid, Row row);

  // Fetches a copy of the row, or NotFound.
  Result<Row> Get(RowId rid) const;

  bool Exists(RowId rid) const;

  // Removes all rows from all segments. Slot counters keep advancing
  // (no reuse) and segments stay allocated.
  void Truncate();

  // Forward iteration over live rows, segments in id order, RowId order
  // within each segment.
  class Iterator {
   public:
    // Full-table scan across every segment.
    explicit Iterator(const HeapTable* table)
        : seg_(table->segments_.begin()),
          end_(table->segments_.end()) {
      SkipDead();
    }

    // Scan restricted to a single segment (partition-local scan).  An
    // unknown segment yields an empty scan.
    Iterator(const HeapTable* table, uint32_t segment)
        : seg_(table->segments_.find(segment)),
          end_(table->segments_.end()) {
      if (seg_ != end_) {
        end_ = std::next(seg_);
      }
      SkipDead();
    }

    bool Valid() const { return seg_ != end_; }
    RowId row_id() const {
      return (static_cast<RowId>(seg_->first) << kSegmentShift) |
             static_cast<RowId>(pos_ + 1);
    }
    const Row& row() const { return *seg_->second.slots[pos_]; }
    void Next() {
      ++pos_;
      SkipDead();
    }

   private:
    void SkipDead() {
      while (seg_ != end_) {
        const auto& slots = seg_->second.slots;
        while (pos_ < slots.size() && !slots[pos_]) ++pos_;
        if (pos_ < slots.size()) return;
        ++seg_;
        pos_ = 0;
      }
    }
    std::map<uint32_t, Segment>::const_iterator seg_;
    std::map<uint32_t, Segment>::const_iterator end_;
    size_t pos_ = 0;
  };

  Iterator Scan() const { return Iterator(this); }
  Iterator ScanSegment(uint32_t segment) const {
    return Iterator(this, segment);
  }

 private:
  friend class Iterator;

  // Locates the slot for `rid`, or nullptr when it was never allocated.
  const std::optional<Row>* SlotFor(RowId rid) const;
  std::optional<Row>* SlotFor(RowId rid) {
    return const_cast<std::optional<Row>*>(
        static_cast<const HeapTable*>(this)->SlotFor(rid));
  }

  std::string name_;
  Schema schema_;
  std::map<uint32_t, Segment> segments_;
  uint32_t next_segment_ = 1;
  uint64_t live_count_ = 0;
};

}  // namespace exi

#endif  // EXTIDX_STORAGE_HEAP_TABLE_H_
