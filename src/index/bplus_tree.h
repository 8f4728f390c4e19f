#ifndef EXTIDX_INDEX_BPLUS_TREE_H_
#define EXTIDX_INDEX_BPLUS_TREE_H_

#include <cassert>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "index/key.h"

namespace exi {

// In-memory B+-tree over composite Value keys, parameterized by the leaf
// payload.  Shared by the native B-tree index (payload = posting list of
// RowIds) and by index-organized tables (payload = full row, the paper's
// "index entry is the row" metaphor).
//
// Structure: classic order-`kMaxKeys` tree; leaves are chained for range
// scans.  An empty tree can also be built bottom-up from sorted entries
// (BulkLoad), and a run of sorted keys (UpsertRun, ExtractRun) holds its
// root-to-leaf path, so each key re-descends only from the lowest held
// node that covers it.  Deletion is lazy, the same strategy PostgreSQL
// uses: entries are removed from leaves, and underfull and empty leaves
// stay in the tree and on the leaf chain.  Scans step over empty leaves,
// and every node a lookup or scan visits is metered, empty leaves included.
template <typename Payload>
class BPlusTree {
 public:
  static constexpr size_t kMaxKeys = 64;
  // Entries per leaf in a bulk-loaded tree: 7/8 full, so the first later
  // inserts into a leaf neither split it nor move it into a doubled
  // buffer.  Fully packed leaves raised text_ingest's peak RSS by 8 MB
  // for no measurable change in DML latency.
  static constexpr size_t kBulkLeafKeys = kMaxKeys * 7 / 8;

  BPlusTree() : root_(NewNode(/*leaf=*/true)) {}

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  size_t size() const { return size_; }
  size_t height() const { return height_; }

  // Returns the payload for `key`, or nullptr.
  Payload* Find(const CompositeKey& key) {
    Path path;
    Node* leaf = Descend(key, &path, /*metered=*/true);
    size_t pos = LowerBound(leaf->keys, key);
    if (pos < leaf->keys.size() && CompareKeys(leaf->keys[pos], key) == 0) {
      return &leaf->payloads[pos];
    }
    return nullptr;
  }
  const Payload* Find(const CompositeKey& key) const {
    return const_cast<BPlusTree*>(this)->Find(key);
  }

  // Returns the payload slot for `key`, inserting a default-constructed
  // payload (and splitting nodes) if absent.  Unlike Upsert, does not
  // meter the nodes it visits.
  Payload& GetOrInsert(const CompositeKey& key) {
    Path path;
    return *Insert(key, &path, /*metered=*/false).payload;
  }

  // Stores `payload` under `key` in one descent, metering every node it
  // visits.  Returns the payload it replaced, or nullopt for a new key.
  std::optional<Payload> Upsert(const CompositeKey& key, Payload payload) {
    Path path;
    return Store(Insert(key, &path, /*metered=*/true), std::move(payload));
  }

  // Removes the entry for `key` in one descent and returns its payload, or
  // nullopt if absent.
  std::optional<Payload> Extract(const CompositeKey& key) {
    Path path;
    return ExtractFromLeaf(Descend(key, &path, /*metered=*/true), key);
  }

  // Removes the entry for `key`.  Returns false if absent.
  bool Erase(const CompositeKey& key) { return Extract(key).has_value(); }

  // Writes a run: `keys[i]` gets `payloads[i]`, for keys in strictly
  // ascending order.  The walk holds its root-to-leaf path (see Path): a
  // key inside the held leaf's fence reads no node, and any other key
  // re-descends from the lowest held node whose fence covers it, metering
  // that node and each one below it.  A leaf split is absorbed into the
  // held parents without a fresh descent.  `replaced(i, old)` receives the
  // payload key i replaced, or nullopt for a new key.  The result is the
  // tree the same Upserts one at a time would build, and no more nodes are
  // read than they would read.
  template <typename Replaced>
  void UpsertRun(const std::vector<CompositeKey>& keys,
                 std::vector<Payload> payloads, Replaced replaced) {
    assert(keys.size() == payloads.size());
    Path path;
    for (size_t i = 0; i < keys.size(); ++i) {
      replaced(i, Store(Insert(keys[i], &path, /*metered=*/true),
                        std::move(payloads[i])));
    }
  }

  // Removes a run of strictly ascending keys, walking it along a held path
  // as UpsertRun does (removal never splits, so the path only moves when a
  // key reaches a fence).  `removed(i, payload)` receives each removed
  // payload.  Stops at the first absent key and returns its index, or
  // keys.size() when every key was present.
  template <typename Removed>
  size_t ExtractRun(const std::vector<CompositeKey>& keys, Removed removed) {
    Path path;
    for (size_t i = 0; i < keys.size(); ++i) {
      std::optional<Payload> payload = ExtractFromLeaf(
          Descend(keys[i], &path, /*metered=*/true), keys[i]);
      if (!payload.has_value()) return i;
      removed(i, std::move(*payload));
    }
    return keys.size();
  }

  // Builds the tree bottom-up from `n` entries, which `next(&key, &payload)`
  // produces one at a time in strictly ascending key order: leaves are
  // filled left to right and chained, then each internal level takes its
  // children's first keys as separators.  The tree must be empty.  Leaves
  // hold up to `kBulkLeafKeys` entries and internal nodes up to
  // `kMaxKeys` + 1 children, spread evenly so no node is left nearly
  // empty.
  template <typename Next>
  void BulkLoad(size_t n, Next next) {
    assert(size_ == 0);
    if (n == 0) return;
    // (first key of the subtree, subtree root) for the level being built.
    std::vector<std::pair<CompositeKey, std::unique_ptr<Node>>> level;
    Node* prev = nullptr;
    ForEachGroup(n, kBulkLeafKeys, [&](size_t begin, size_t end) {
      auto leaf = NewNode(/*leaf=*/true);
      leaf->keys.resize(end - begin);
      leaf->payloads.resize(end - begin);
      for (size_t i = 0; i < end - begin; ++i) {
        next(&leaf->keys[i], &leaf->payloads[i]);
      }
      if (prev != nullptr) prev->next = leaf.get();
      prev = leaf.get();
      CompositeKey first = leaf->keys.front();
      level.emplace_back(std::move(first), std::move(leaf));
    });
    size_t height = 1;
    while (level.size() > 1) {
      std::vector<std::pair<CompositeKey, std::unique_ptr<Node>>> parents;
      ForEachGroup(level.size(), kMaxKeys + 1, [&](size_t begin, size_t end) {
        auto node = NewNode(/*leaf=*/false);
        for (size_t i = begin; i < end; ++i) {
          if (i > begin) node->keys.push_back(std::move(level[i].first));
          node->children.push_back(std::move(level[i].second));
        }
        parents.emplace_back(std::move(level[begin].first), std::move(node));
      });
      level = std::move(parents);
      ++height;
    }
    root_ = std::move(level.front().second);
    size_ = n;
    height_ = height;
  }

  void Clear() {
    root_ = NewNode(/*leaf=*/true);
    size_ = 0;
    height_ = 1;
  }

  // Forward iterator over (key, payload) entries in key order.
  class Iterator {
   public:
    Iterator() = default;

    bool Valid() const { return leaf_ != nullptr && pos_ < leaf_->keys.size(); }
    const CompositeKey& key() const { return leaf_->keys[pos_]; }
    Payload& payload() const { return leaf_->payloads[pos_]; }

    void Next() {
      ++pos_;
      SkipEmpty();
    }

   private:
    friend class BPlusTree;

    // Advances across empty / exhausted leaves to the next live entry.
    void SkipEmpty() {
      while (leaf_ != nullptr && pos_ >= leaf_->keys.size()) {
        leaf_ = leaf_->next;
        pos_ = 0;
        if (leaf_ != nullptr) GlobalMetrics().index_nodes_read++;
      }
    }

    typename BPlusTree::Node* leaf_ = nullptr;
    size_t pos_ = 0;
  };

  // Iterator at the first entry with key >= `key`.
  Iterator Seek(const CompositeKey& key) {
    Path path;
    Iterator it;
    it.leaf_ = Descend(key, &path, /*metered=*/true);
    it.pos_ = LowerBound(it.leaf_->keys, key);
    // LowerBound may land past the last entry of this leaf.
    it.SkipEmpty();
    return it;
  }

  // Iterator at the smallest entry.
  Iterator Begin() {
    Node* n = root_.get();
    GlobalMetrics().index_nodes_read++;
    while (!n->leaf) {
      n = n->children.front().get();
      GlobalMetrics().index_nodes_read++;
    }
    Iterator it;
    it.leaf_ = n;
    it.pos_ = 0;
    it.SkipEmpty();
    return it;
  }

 private:
  struct Node {
    bool leaf;
    std::vector<CompositeKey> keys;
    std::vector<std::unique_ptr<Node>> children;  // internal nodes only
    std::vector<Payload> payloads;                // leaves only
    Node* next = nullptr;                         // leaf chain
  };

  // One level of a held root-to-leaf path (see Path): a node, its upper
  // fence (the smallest separator to its right among its ancestors; null:
  // the right edge of the tree) and, for an internal node, the child its
  // last search took.
  struct Level {
    Node* node;
    const CompositeKey* fence;
    size_t child = 0;
  };
  // A held root-to-leaf path, root first.  Keys of a run ascend, so every
  // later key is at least each held node's lower bound, and one below a
  // node's fence belongs to that node's subtree.  Fences fall or stay
  // level by level.
  using Path = std::vector<Level>;

  struct InsertResult {
    Payload* payload = nullptr;
    bool inserted = false;  // `payload` is a new default-constructed slot
  };

  static std::unique_ptr<Node> NewNode(bool leaf) {
    auto n = std::make_unique<Node>();
    n->leaf = leaf;
    return n;
  }

  // First position with keys[pos] >= key.
  static size_t LowerBound(const std::vector<CompositeKey>& keys,
                           const CompositeKey& key) {
    size_t lo = 0;
    size_t hi = keys.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (CompareKeys(keys[mid], key) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Child index to follow for `key` in an internal node: first separator
  // strictly greater than key.
  static size_t ChildIndex(const std::vector<CompositeKey>& seps,
                           const CompositeKey& key) {
    size_t lo = 0;
    size_t hi = seps.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (CompareKeys(seps[mid], key) <= 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // Returns the leaf for `key`, extending `path` to it from the lowest
  // held node whose fence covers `key` (from the root if none is held).
  // Every node whose keys are searched is metered, the node the descent
  // resumes from included; a held leaf that covers `key` reads no node.
  Node* Descend(const CompositeKey& key, Path* path, bool metered) {
    while (!path->empty() && path->back().fence != nullptr &&
           CompareKeys(key, *path->back().fence) >= 0) {
      path->pop_back();
    }
    if (path->empty()) {
      path->reserve(height_);
      path->push_back({root_.get(), nullptr});
    } else if (path->back().node->leaf) {
      return path->back().node;
    }
    while (true) {
      Level& level = path->back();
      if (metered) GlobalMetrics().index_nodes_read++;
      if (level.node->leaf) return level.node;
      level.child = ChildIndex(level.node->keys, key);
      Node* child = level.node->children[level.child].get();
      const CompositeKey* fence = level.child < level.node->keys.size()
                                      ? &level.node->keys[level.child]
                                      : level.fence;
      path->push_back({child, fence});
    }
  }

  // Removes `key` from `leaf`, returning its payload, or nullopt if absent.
  std::optional<Payload> ExtractFromLeaf(Node* leaf, const CompositeKey& key) {
    size_t pos = LowerBound(leaf->keys, key);
    if (pos >= leaf->keys.size() || CompareKeys(leaf->keys[pos], key) != 0) {
      return std::nullopt;
    }
    std::optional<Payload> removed(std::move(leaf->payloads[pos]));
    leaf->keys.erase(leaf->keys.begin() + pos);
    leaf->payloads.erase(leaf->payloads.begin() + pos);
    --size_;
    return removed;
  }

  // The slot for `key` in the leaf `path` descends to, adding a default
  // payload if absent.  A leaf that overflows splits, and the split is
  // absorbed into the held ancestors (see AbsorbSplit).
  InsertResult Insert(const CompositeKey& key, Path* path, bool metered) {
    Node* leaf = Descend(key, path, metered);
    size_t pos = LowerBound(leaf->keys, key);
    if (pos < leaf->keys.size() && CompareKeys(leaf->keys[pos], key) == 0) {
      return {&leaf->payloads[pos], false};
    }
    leaf->keys.insert(leaf->keys.begin() + pos, key);
    leaf->payloads.insert(leaf->payloads.begin() + pos, Payload());
    ++size_;
    if (leaf->keys.size() <= kMaxKeys) return {&leaf->payloads[pos], true};
    auto [sep, right] = Split(leaf);
    // Nodes never move, so the slot stays valid once the split is absorbed.
    Payload* slot = pos < leaf->keys.size()
                        ? &leaf->payloads[pos]
                        : &right->payloads[pos - leaf->keys.size()];
    AbsorbSplit(path, std::move(sep), std::move(right));
    return {slot, true};
  }

  // Absorbs a split of the path's deepest node (separator `sep`, new right
  // sibling `right`) bottom-up into the held ancestors, splitting each one
  // that overflows and growing a new root when the root splits.  The path
  // is cut back to the highest node that changed, whose own fence still
  // holds.
  void AbsorbSplit(Path* path, CompositeKey sep, std::unique_ptr<Node> right) {
    while (true) {
      path->pop_back();
      if (path->empty()) {
        auto root = NewNode(/*leaf=*/false);
        root->keys.push_back(std::move(sep));
        root->children.push_back(std::move(root_));
        root->children.push_back(std::move(right));
        root_ = std::move(root);
        ++height_;
        path->push_back({root_.get(), nullptr});
        return;
      }
      Node* parent = path->back().node;
      size_t ci = path->back().child;
      parent->keys.insert(parent->keys.begin() + ci, std::move(sep));
      parent->children.insert(parent->children.begin() + ci + 1,
                              std::move(right));
      if (parent->keys.size() <= kMaxKeys) return;
      std::tie(sep, right) = Split(parent);
    }
  }

  // Stores `payload` in the slot `res` found; returns the payload it
  // replaced, or nullopt for a new slot.
  static std::optional<Payload> Store(const InsertResult& res,
                                      Payload payload) {
    if (res.inserted) {
      *res.payload = std::move(payload);
      return std::nullopt;
    }
    return std::exchange(*res.payload, std::move(payload));
  }

  // Calls visit(begin, end) for `n` items cut into the fewest groups of at
  // most `cap`, with sizes differing by at most one.
  template <typename Visit>
  static void ForEachGroup(size_t n, size_t cap, Visit visit) {
    size_t groups = (n + cap - 1) / cap;
    size_t base = n / groups;
    size_t extra = n % groups;
    size_t begin = 0;
    for (size_t g = 0; g < groups; ++g) {
      size_t end = begin + base + (g < extra ? 1 : 0);
      visit(begin, end);
      begin = end;
    }
  }

  // Splits an overflowing node in half and returns the separator for its
  // parent and the new right sibling; a leaf also links the sibling into
  // the leaf chain.
  std::pair<CompositeKey, std::unique_ptr<Node>> Split(Node* node) {
    size_t mid = node->keys.size() / 2;
    auto right = NewNode(node->leaf);
    if (node->leaf) {
      right->keys.assign(std::make_move_iterator(node->keys.begin() + mid),
                         std::make_move_iterator(node->keys.end()));
      right->payloads.assign(
          std::make_move_iterator(node->payloads.begin() + mid),
          std::make_move_iterator(node->payloads.end()));
      node->keys.resize(mid);
      node->payloads.resize(mid);
      right->next = node->next;
      node->next = right.get();
      CompositeKey sep = right->keys.front();
      return {std::move(sep), std::move(right)};
    }
    CompositeKey sep = std::move(node->keys[mid]);
    right->keys.assign(std::make_move_iterator(node->keys.begin() + mid + 1),
                       std::make_move_iterator(node->keys.end()));
    right->children.assign(
        std::make_move_iterator(node->children.begin() + mid + 1),
        std::make_move_iterator(node->children.end()));
    node->keys.resize(mid);
    node->children.resize(mid + 1);
    return {std::move(sep), std::move(right)};
  }

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  size_t height_ = 1;
};

}  // namespace exi

#endif  // EXTIDX_INDEX_BPLUS_TREE_H_
