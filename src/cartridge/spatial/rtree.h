#ifndef EXTIDX_CARTRIDGE_SPATIAL_RTREE_H_
#define EXTIDX_CARTRIDGE_SPATIAL_RTREE_H_

#include <functional>
#include <vector>

#include "cartridge/spatial/geometry.h"
#include "core/odci.h"

namespace exi::spatial {

// R-tree [Gut84] whose nodes live as fixed-size pages inside a database
// LOB, accessed exclusively through ServerContext LOB callbacks.  This is
// the paper's "index data can be stored ... in Large Objects (LOBs)"
// storage option (§2.5), and mirrors how Oracle Spatial later stored its
// R-tree.  Offered as a second indextype for the same Sdo_Relate operator,
// demonstrating §3.2.2's point that the underlying spatial indexing
// algorithm can change without end users changing their queries.
//
// Page 0 is the meta page (root id, page count, height, entry count);
// node pages hold a leaf flag, an entry count, and up to kMaxEntries
// entries of 40 bytes (4 doubles + 8-byte ref: a RowId in leaves, a child
// page id in internal nodes).
//
// Deletion removes the entry and tightens bounding boxes along the path
// but does not merge underfull nodes (PostgreSQL-GiST-style lazy
// deletion); searches remain correct.
class LobRTree {
 public:
  static constexpr size_t kPageSize = 4096;
  static constexpr size_t kMaxEntries = 64;

  // Opens the tree stored in `lob`; Clear() initializes a fresh LOB.
  LobRTree(ServerContext* ctx, LobId lob) : ctx_(ctx), lob_(lob) {}

  Status Insert(const Geometry& rect, uint64_t ref);

  // Removes the entry matching (rect, ref) exactly; NotFound if absent.
  Status Remove(const Geometry& rect, uint64_t ref);

  // Visits every leaf entry whose rectangle intersects `query`; the
  // visitor returns false to stop early.
  Status Search(const Geometry& query,
                const std::function<bool(const Geometry&, uint64_t)>& visit)
      const;

  // Writes an empty tree, over whatever the LOB held.
  Status Clear();

  Result<uint64_t> EntryCount() const;
  Result<uint32_t> Height() const;

 private:
  struct Entry {
    Geometry rect;
    uint64_t ref;
  };
  struct Node {
    bool leaf = true;
    std::vector<Entry> entries;

    Geometry Mbr() const;
  };
  struct Meta {
    uint64_t root_page = 1;
    uint64_t page_count = 2;  // meta + root
    uint32_t height = 1;
    uint64_t entry_count = 0;
  };

  Result<Meta> ReadMeta() const;
  Status WriteMeta(const Meta& meta);
  Result<Node> ReadNode(uint64_t page) const;
  Status WriteNode(uint64_t page, const Node& node);
  Result<uint64_t> AllocatePage(Meta* meta);

  // Recursive insert; returns the new sibling (page, mbr) if `page` split.
  struct SplitResult {
    bool split = false;
    uint64_t new_page = 0;
    Geometry new_mbr;
    Geometry updated_mbr;  // possibly-grown MBR of the original page
  };
  Result<SplitResult> InsertRec(uint64_t page, uint32_t level_from_leaf,
                                const Entry& entry, Meta* meta);

  // Quadratic split of an overfull entry set into two groups.
  static void QuadraticSplit(std::vector<Entry>* all,
                             std::vector<Entry>* left,
                             std::vector<Entry>* right);

  Result<bool> RemoveRec(uint64_t page, const Geometry& rect, uint64_t ref,
                         Geometry* new_mbr, bool* became_empty);

  Status SearchRec(
      uint64_t page, const Geometry& query,
      const std::function<bool(const Geometry&, uint64_t)>& visit,
      bool* keep_going) const;

  ServerContext* ctx_;
  LobId lob_;
};

}  // namespace exi::spatial

#endif  // EXTIDX_CARTRIDGE_SPATIAL_RTREE_H_
