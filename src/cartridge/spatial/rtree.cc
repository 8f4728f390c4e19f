#include "cartridge/spatial/rtree.h"

#include <algorithm>
#include <cstring>
#include <limits>

namespace exi::spatial {

namespace {

constexpr uint32_t kMagic = 0x52545245;  // "RTRE"

Geometry Union(const Geometry& a, const Geometry& b) {
  Geometry u;
  u.xmin = std::min(a.xmin, b.xmin);
  u.ymin = std::min(a.ymin, b.ymin);
  u.xmax = std::max(a.xmax, b.xmax);
  u.ymax = std::max(a.ymax, b.ymax);
  return u;
}

double Enlargement(const Geometry& mbr, const Geometry& add) {
  return Union(mbr, add).Area() - mbr.Area();
}

template <typename T>
void Put(std::vector<uint8_t>* buf, size_t offset, const T& v) {
  std::memcpy(buf->data() + offset, &v, sizeof(T));
}

template <typename T>
T Get(const std::vector<uint8_t>& buf, size_t offset) {
  T v;
  std::memcpy(&v, buf.data() + offset, sizeof(T));
  return v;
}

}  // namespace

Geometry LobRTree::Node::Mbr() const {
  Geometry mbr = entries.empty() ? Geometry{0, 0, 0, 0} : entries[0].rect;
  for (size_t i = 1; i < entries.size(); ++i) {
    mbr = Union(mbr, entries[i].rect);
  }
  return mbr;
}

// ---- page I/O ----

Result<LobRTree::Meta> LobRTree::ReadMeta() const {
  EXI_ASSIGN_OR_RETURN(std::vector<uint8_t> page,
                       ctx_->ReadLob(lob_, 0, kPageSize));
  if (page.size() < 40 || Get<uint32_t>(page, 0) != kMagic) {
    return Status::Internal("corrupt R-tree meta page");
  }
  Meta meta;
  meta.root_page = Get<uint64_t>(page, 8);
  meta.page_count = Get<uint64_t>(page, 16);
  meta.height = Get<uint32_t>(page, 24);
  meta.entry_count = Get<uint64_t>(page, 32);
  return meta;
}

Status LobRTree::WriteMeta(const Meta& meta) {
  std::vector<uint8_t> page(kPageSize, 0);
  Put(&page, 0, kMagic);
  Put(&page, 8, meta.root_page);
  Put(&page, 16, meta.page_count);
  Put(&page, 24, meta.height);
  Put(&page, 32, meta.entry_count);
  return ctx_->WriteLob(lob_, 0, page);
}

Result<LobRTree::Node> LobRTree::ReadNode(uint64_t page) const {
  EXI_ASSIGN_OR_RETURN(std::vector<uint8_t> buf,
                       ctx_->ReadLob(lob_, page * kPageSize, kPageSize));
  if (buf.size() < 4) return Status::Internal("short R-tree node page");
  Node node;
  node.leaf = Get<uint8_t>(buf, 0) != 0;
  uint16_t count = Get<uint16_t>(buf, 2);
  node.entries.resize(count);
  size_t off = 4;
  for (uint16_t i = 0; i < count; ++i) {
    Entry& e = node.entries[i];
    e.rect.xmin = Get<double>(buf, off);
    e.rect.ymin = Get<double>(buf, off + 8);
    e.rect.xmax = Get<double>(buf, off + 16);
    e.rect.ymax = Get<double>(buf, off + 24);
    e.ref = Get<uint64_t>(buf, off + 32);
    off += 40;
  }
  return node;
}

Status LobRTree::WriteNode(uint64_t page, const Node& node) {
  std::vector<uint8_t> buf(kPageSize, 0);
  Put<uint8_t>(&buf, 0, node.leaf ? 1 : 0);
  Put<uint16_t>(&buf, 2, uint16_t(node.entries.size()));
  size_t off = 4;
  for (const Entry& e : node.entries) {
    Put(&buf, off, e.rect.xmin);
    Put(&buf, off + 8, e.rect.ymin);
    Put(&buf, off + 16, e.rect.xmax);
    Put(&buf, off + 24, e.rect.ymax);
    Put(&buf, off + 32, e.ref);
    off += 40;
  }
  return ctx_->WriteLob(lob_, page * kPageSize, buf);
}

Result<uint64_t> LobRTree::AllocatePage(Meta* meta) {
  return meta->page_count++;
}

// ---- lifecycle ----

Status LobRTree::Clear() {
  EXI_RETURN_IF_ERROR(WriteMeta(Meta{}));
  return WriteNode(1, Node{});
}

Result<uint64_t> LobRTree::EntryCount() const {
  EXI_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
  return meta.entry_count;
}

Result<uint32_t> LobRTree::Height() const {
  EXI_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
  return meta.height;
}

// ---- insert ----

void LobRTree::QuadraticSplit(std::vector<Entry>* all,
                              std::vector<Entry>* left,
                              std::vector<Entry>* right) {
  // Seeds: the pair wasting the most area if grouped together.
  size_t seed_a = 0;
  size_t seed_b = 1;
  double worst = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < all->size(); ++i) {
    for (size_t j = i + 1; j < all->size(); ++j) {
      double waste = Union((*all)[i].rect, (*all)[j].rect).Area() -
                     (*all)[i].rect.Area() - (*all)[j].rect.Area();
      if (waste > worst) {
        worst = waste;
        seed_a = i;
        seed_b = j;
      }
    }
  }
  left->push_back((*all)[seed_a]);
  right->push_back((*all)[seed_b]);
  Geometry lmbr = (*all)[seed_a].rect;
  Geometry rmbr = (*all)[seed_b].rect;

  std::vector<Entry> rest;
  rest.reserve(all->size() - 2);
  for (size_t i = 0; i < all->size(); ++i) {
    if (i != seed_a && i != seed_b) rest.push_back((*all)[i]);
  }
  const size_t min_fill = all->size() / 3;  // keep both sides usable
  for (size_t i = 0; i < rest.size(); ++i) {
    const Entry& e = rest[i];
    size_t remaining = rest.size() - i;
    // If one side must take every remaining entry to reach min fill, give
    // them all to it.
    if (left->size() + remaining <= min_fill) {
      left->push_back(e);
      lmbr = Union(lmbr, e.rect);
      continue;
    }
    if (right->size() + remaining <= min_fill) {
      right->push_back(e);
      rmbr = Union(rmbr, e.rect);
      continue;
    }
    double le = Enlargement(lmbr, e.rect);
    double re = Enlargement(rmbr, e.rect);
    if (le < re || (le == re && left->size() <= right->size())) {
      left->push_back(e);
      lmbr = Union(lmbr, e.rect);
    } else {
      right->push_back(e);
      rmbr = Union(rmbr, e.rect);
    }
  }
}

Result<LobRTree::SplitResult> LobRTree::InsertRec(uint64_t page,
                                                  uint32_t level_from_leaf,
                                                  const Entry& entry,
                                                  Meta* meta) {
  EXI_ASSIGN_OR_RETURN(Node node, ReadNode(page));
  SplitResult result;
  if (node.leaf) {
    node.entries.push_back(entry);
  } else {
    // Choose the subtree needing least enlargement (ties: smaller area).
    size_t best = 0;
    double best_enl = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      double enl = Enlargement(node.entries[i].rect, entry.rect);
      double area = node.entries[i].rect.Area();
      if (enl < best_enl || (enl == best_enl && area < best_area)) {
        best = i;
        best_enl = enl;
        best_area = area;
      }
    }
    EXI_ASSIGN_OR_RETURN(
        SplitResult child,
        InsertRec(node.entries[best].ref, level_from_leaf - 1, entry, meta));
    node.entries[best].rect = child.updated_mbr;
    if (child.split) {
      node.entries.push_back(Entry{child.new_mbr, child.new_page});
    }
  }

  if (node.entries.size() <= kMaxEntries) {
    EXI_RETURN_IF_ERROR(WriteNode(page, node));
    result.updated_mbr = node.Mbr();
    return result;
  }

  // Overflow: quadratic split.
  std::vector<Entry> all = std::move(node.entries);
  Node left;
  Node right;
  left.leaf = node.leaf;
  right.leaf = node.leaf;
  QuadraticSplit(&all, &left.entries, &right.entries);
  EXI_ASSIGN_OR_RETURN(uint64_t new_page, AllocatePage(meta));
  EXI_RETURN_IF_ERROR(WriteNode(page, left));
  EXI_RETURN_IF_ERROR(WriteNode(new_page, right));
  result.split = true;
  result.new_page = new_page;
  result.new_mbr = right.Mbr();
  result.updated_mbr = left.Mbr();
  return result;
}

Status LobRTree::Insert(const Geometry& rect, uint64_t ref) {
  EXI_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
  EXI_ASSIGN_OR_RETURN(
      SplitResult res,
      InsertRec(meta.root_page, meta.height - 1, Entry{rect, ref}, &meta));
  if (res.split) {
    // Grow the tree: new root with the two siblings.
    EXI_ASSIGN_OR_RETURN(uint64_t new_root, AllocatePage(&meta));
    Node root;
    root.leaf = false;
    root.entries.push_back(Entry{res.updated_mbr, meta.root_page});
    root.entries.push_back(Entry{res.new_mbr, res.new_page});
    EXI_RETURN_IF_ERROR(WriteNode(new_root, root));
    meta.root_page = new_root;
    meta.height++;
  }
  meta.entry_count++;
  return WriteMeta(meta);
}

// ---- remove ----

Result<bool> LobRTree::RemoveRec(uint64_t page, const Geometry& rect,
                                 uint64_t ref, Geometry* new_mbr,
                                 bool* became_empty) {
  EXI_ASSIGN_OR_RETURN(Node node, ReadNode(page));
  bool removed = false;
  if (node.leaf) {
    for (size_t i = 0; i < node.entries.size(); ++i) {
      if (node.entries[i].ref == ref && node.entries[i].rect.Equal(rect)) {
        node.entries.erase(node.entries.begin() + i);
        removed = true;
        break;
      }
    }
  } else {
    for (size_t i = 0; i < node.entries.size() && !removed; ++i) {
      if (!node.entries[i].rect.Intersects(rect)) continue;
      Geometry child_mbr;
      bool child_empty = false;
      EXI_ASSIGN_OR_RETURN(removed,
                           RemoveRec(node.entries[i].ref, rect, ref,
                                     &child_mbr, &child_empty));
      if (removed) {
        if (child_empty) {
          node.entries.erase(node.entries.begin() + i);
        } else {
          node.entries[i].rect = child_mbr;
        }
      }
    }
  }
  if (removed) {
    EXI_RETURN_IF_ERROR(WriteNode(page, node));
  }
  *new_mbr = node.Mbr();
  *became_empty = node.entries.empty();
  return removed;
}

Status LobRTree::Remove(const Geometry& rect, uint64_t ref) {
  EXI_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
  Geometry mbr;
  bool empty = false;
  EXI_ASSIGN_OR_RETURN(bool removed,
                       RemoveRec(meta.root_page, rect, ref, &mbr, &empty));
  if (!removed) {
    return Status::NotFound("R-tree entry not found");
  }
  meta.entry_count--;
  return WriteMeta(meta);
}

// ---- search ----

Status LobRTree::SearchRec(
    uint64_t page, const Geometry& query,
    const std::function<bool(const Geometry&, uint64_t)>& visit,
    bool* keep_going) const {
  EXI_ASSIGN_OR_RETURN(Node node, ReadNode(page));
  for (const Entry& e : node.entries) {
    if (!*keep_going) return Status::OK();
    if (!e.rect.Intersects(query)) continue;
    if (node.leaf) {
      if (!visit(e.rect, e.ref)) {
        *keep_going = false;
        return Status::OK();
      }
    } else {
      EXI_RETURN_IF_ERROR(SearchRec(e.ref, query, visit, keep_going));
    }
  }
  return Status::OK();
}

Status LobRTree::Search(
    const Geometry& query,
    const std::function<bool(const Geometry&, uint64_t)>& visit) const {
  EXI_ASSIGN_OR_RETURN(Meta meta, ReadMeta());
  bool keep_going = true;
  return SearchRec(meta.root_page, query, visit, &keep_going);
}

}  // namespace exi::spatial
