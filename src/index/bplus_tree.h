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

// In-memory B+-tree over composite Value keys.  Each leaf slot holds one
// `Entry`, and the tree reads the entry's key in place through `KeyFn`
// (`KeySpan operator()(const Entry&)`), so a leaf keeps no key copies.
// Its one user is the index-organized table (Iot): an entry is a full row,
// keyed by its leading columns (the paper's "index entry is the row"
// metaphor).  The built-in B-tree index is such a table too, of
// (key columns..., rowid) rows.
// Internal nodes own their separator keys, one per child after the first.
//
// Structure: classic order-`kMaxKeys` tree; leaves are chained for range
// scans.  Besides Clear, which empties it, the tree has two writers:
// BulkLoad builds an empty tree bottom-up from sorted entries, and
// MergeRun read-modify-writes a run of sorted keys (one key is a run of
// one) along one held root-to-leaf path, so each key re-descends only
// from the lowest held node that covers it.
// Deletion is lazy, the same strategy PostgreSQL uses: entries are
// removed from leaves, and underfull and empty leaves stay in the tree and
// on the leaf chain.  Scans step over empty leaves, and every node a
// lookup, write or scan visits is metered, empty leaves included.
template <typename Entry, typename KeyFn>
class BPlusTree {
 public:
  static constexpr size_t kMaxKeys = 64;
  // Entries per leaf in a bulk-loaded tree: 7/8 full, so the first later
  // inserts into a leaf neither split it nor move it into a doubled
  // buffer.  Fully packed leaves raised text_ingest's peak RSS by 8 MB
  // for no measurable change in DML latency.
  static constexpr size_t kBulkLeafKeys = kMaxKeys * 7 / 8;

  explicit BPlusTree(KeyFn key_of = KeyFn())
      : key_of_(std::move(key_of)), root_(NewNode(/*leaf=*/true)) {}

  BPlusTree(const BPlusTree&) = delete;
  BPlusTree& operator=(const BPlusTree&) = delete;

  size_t size() const { return size_; }
  size_t height() const { return height_; }

  // The key of `entry`, read in place: valid while the entry is unchanged.
  KeySpan KeyOf(const Entry& entry) const { return key_of_(entry); }

  // Returns the entry for `key`, or nullptr.
  Entry* Find(KeySpan key) {
    Path path;
    Node* leaf = Descend(key, &path);
    size_t pos = LowerBound(leaf, key);
    return Holds(leaf, pos, key) ? &leaf->entries[pos] : nullptr;
  }
  const Entry* Find(KeySpan key) const {
    return const_cast<BPlusTree*>(this)->Find(key);
  }

  // Walks a run of `n` strictly ascending keys, `key_at(i)` the i-th, along
  // one held root-to-leaf path (see Path): a key inside the held leaf's
  // fence reads no node, and any other key re-descends from the lowest held
  // node whose fence covers it, metering that node and each one below it.
  // For each key in order, `merge(i, current, &next)` sees the entry stored
  // under the key (nullptr if none) and leaves in `next` the entry the key
  // is to hold, or nullopt to hold none; it returns false to end the run
  // there, before the key changes.  The key is not read after `merge`
  // runs, so it may view the entry `merge` moves into `next`.  The tree
  // then inserts, replaces or removes the key's entry (a leaf split is
  // absorbed into the held parents without a fresh descent) and, if it
  // changed, calls `done(i, old, stored)` with the entry it replaced or
  // removed (nullopt for a new key) and the entry now stored (nullptr once
  // removed; valid only during the call).  Returns the index the run ended
  // at, or n.  No more nodes are read than the same keys looked up one at a
  // time would read.
  template <typename KeyAt, typename Merge, typename Done>
  size_t MergeRun(size_t n, KeyAt key_at, Merge merge, Done done) {
    Path path;
    for (size_t i = 0; i < n; ++i) {
      KeySpan key = key_at(i);
      Node* leaf = Descend(key, &path);
      size_t pos = LowerBound(leaf, key);
      Entry* current = Holds(leaf, pos, key) ? &leaf->entries[pos] : nullptr;
      std::optional<Entry> next;
      if (!merge(i, static_cast<const Entry*>(current), &next)) return i;
      std::optional<Entry> old;
      const Entry* stored = nullptr;
      if (current != nullptr && next.has_value()) {
        old = std::exchange(*current, std::move(*next));
        stored = current;
      } else if (current != nullptr) {
        old = std::move(*current);
        leaf->entries.erase(leaf->entries.begin() + pos);
        --size_;
      } else if (next.has_value()) {
        stored = InsertAt(leaf, pos, &path, std::move(*next));
      } else {
        continue;
      }
      done(i, std::move(old), stored);
    }
    return n;
  }

  // Builds the tree bottom-up from `n` entries, which `next()` returns one
  // at a time in strictly ascending key order: leaves are filled left to
  // right and chained, then each internal level takes its children's
  // first keys as separators.  The tree must be empty.  Leaves hold up to
  // `kBulkLeafKeys` entries and internal nodes up to `kMaxKeys` + 1
  // children, spread evenly so no node is left nearly empty.
  template <typename Next>
  void BulkLoad(size_t n, Next next) {
    assert(size_ == 0);
    if (n == 0) return;
    // (first key of the subtree, subtree root) for the level being built.
    std::vector<std::pair<CompositeKey, std::unique_ptr<Node>>> level;
    Node* prev = nullptr;
    ForEachGroup(n, kBulkLeafKeys, [&](size_t begin, size_t end) {
      auto leaf = NewNode(/*leaf=*/true);
      leaf->entries.reserve(end - begin);
      for (size_t i = begin; i < end; ++i) leaf->entries.push_back(next());
      if (prev != nullptr) prev->next = leaf.get();
      prev = leaf.get();
      CompositeKey first = CopyKey(leaf->entries.front());
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

  // Forward iterator over entries in key order.
  class Iterator {
   public:
    Iterator() = default;

    bool Valid() const {
      return leaf_ != nullptr && pos_ < leaf_->entries.size();
    }
    KeySpan key() const { return tree_->KeyOf(entry()); }
    Entry& entry() const { return leaf_->entries[pos_]; }

    void Next() {
      ++pos_;
      SkipEmpty();
    }

   private:
    friend class BPlusTree;

    // Advances across empty / exhausted leaves to the next live entry.
    void SkipEmpty() {
      while (leaf_ != nullptr && pos_ >= leaf_->entries.size()) {
        leaf_ = leaf_->next;
        pos_ = 0;
        if (leaf_ != nullptr) GlobalMetrics().index_nodes_read++;
      }
    }

    const BPlusTree* tree_ = nullptr;
    typename BPlusTree::Node* leaf_ = nullptr;
    size_t pos_ = 0;
  };

  // Iterator at the first entry with key >= `key`.
  Iterator Seek(KeySpan key) {
    Path path;
    Iterator it;
    it.tree_ = this;
    it.leaf_ = Descend(key, &path);
    it.pos_ = LowerBound(it.leaf_, key);
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
    it.tree_ = this;
    it.leaf_ = n;
    it.pos_ = 0;
    it.SkipEmpty();
    return it;
  }

 private:
  struct Node {
    bool leaf;
    std::vector<CompositeKey> keys;               // internal: separators
    std::vector<std::unique_ptr<Node>> children;  // internal nodes only
    std::vector<Entry> entries;                   // leaves only
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

  static std::unique_ptr<Node> NewNode(bool leaf) {
    auto n = std::make_unique<Node>();
    n->leaf = leaf;
    return n;
  }

  // An owned copy of `entry`'s key, for a separator.
  CompositeKey CopyKey(const Entry& entry) const {
    KeySpan key = KeyOf(entry);
    return CompositeKey(key.begin(), key.end());
  }

  // First position in `leaf` whose entry's key is >= key.
  size_t LowerBound(const Node* leaf, KeySpan key) const {
    size_t lo = 0;
    size_t hi = leaf->entries.size();
    while (lo < hi) {
      size_t mid = (lo + hi) / 2;
      if (CompareKeys(KeyOf(leaf->entries[mid]), key) < 0) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  // True if the entry at `pos` in `leaf` has exactly `key`.
  bool Holds(const Node* leaf, size_t pos, KeySpan key) const {
    return pos < leaf->entries.size() &&
           CompareKeys(KeyOf(leaf->entries[pos]), key) == 0;
  }

  // Child index to follow for `key` in an internal node: first separator
  // strictly greater than key.
  static size_t ChildIndex(const std::vector<CompositeKey>& seps,
                           KeySpan key) {
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
  Node* Descend(KeySpan key, Path* path) {
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
      GlobalMetrics().index_nodes_read++;
      if (level.node->leaf) return level.node;
      level.child = ChildIndex(level.node->keys, key);
      Node* child = level.node->children[level.child].get();
      const CompositeKey* fence = level.child < level.node->keys.size()
                                      ? &level.node->keys[level.child]
                                      : level.fence;
      path->push_back({child, fence});
    }
  }

  // Inserts `entry` at `pos` of `leaf`, the deepest node of `path`, and
  // returns it.  A leaf that overflows splits, and the split is absorbed
  // into the held ancestors (see AbsorbSplit).
  Entry* InsertAt(Node* leaf, size_t pos, Path* path, Entry entry) {
    leaf->entries.insert(leaf->entries.begin() + pos, std::move(entry));
    ++size_;
    if (leaf->entries.size() <= kMaxKeys) return &leaf->entries[pos];
    auto [sep, right] = Split(leaf);
    // Nodes never move, so the slot stays valid once the split is absorbed.
    Entry* slot = pos < leaf->entries.size()
                      ? &leaf->entries[pos]
                      : &right->entries[pos - leaf->entries.size()];
    AbsorbSplit(path, std::move(sep), std::move(right));
    return slot;
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
  // the leaf chain, and its separator copies the sibling's first key.
  std::pair<CompositeKey, std::unique_ptr<Node>> Split(Node* node) {
    auto right = NewNode(node->leaf);
    if (node->leaf) {
      size_t mid = node->entries.size() / 2;
      right->entries.assign(
          std::make_move_iterator(node->entries.begin() + mid),
          std::make_move_iterator(node->entries.end()));
      node->entries.erase(node->entries.begin() + mid, node->entries.end());
      right->next = node->next;
      node->next = right.get();
      CompositeKey sep = CopyKey(right->entries.front());
      return {std::move(sep), std::move(right)};
    }
    size_t mid = node->keys.size() / 2;
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

  [[no_unique_address]] KeyFn key_of_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  size_t height_ = 1;
};

}  // namespace exi

#endif  // EXTIDX_INDEX_BPLUS_TREE_H_
