#ifndef EXTIDX_INDEX_BPLUS_TREE_H_
#define EXTIDX_INDEX_BPLUS_TREE_H_

#include <cassert>
#include <memory>
#include <optional>
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
// (BulkLoad), and a run of sorted keys is written with one descent per
// leaf it enters (UpsertRun, ExtractRun).  Deletion is lazy (entries are
// removed from leaves, underfull leaves are tolerated and empty ones
// unlinked), the same strategy PostgreSQL uses; lookup and scan costs are
// unaffected because node reads are metered per node actually visited.
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
    Node* leaf = DescendToLeaf(key);
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
    return *Insert(key, /*metered=*/false).payload;
  }

  // Stores `payload` under `key` in one descent, metering every node it
  // visits.  Returns the payload it replaced, or nullopt for a new key.
  std::optional<Payload> Upsert(const CompositeKey& key, Payload payload) {
    return Store(Insert(key, /*metered=*/true), std::move(payload));
  }

  // Removes the entry for `key` in one descent and returns its payload, or
  // nullopt if absent.
  std::optional<Payload> Extract(const CompositeKey& key) {
    return ExtractFromLeaf(DescendToLeaf(key), key);
  }

  // Removes the entry for `key`.  Returns false if absent.
  bool Erase(const CompositeKey& key) { return Extract(key).has_value(); }

  // Writes a run: `keys[i]` gets `payloads[i]`, for keys in strictly
  // ascending order.  The walk keeps a finger on the leaf its last descent
  // reached (see Finger) and descends again only for a key at or above
  // that leaf's fence, or when the leaf is full and might split; a key
  // that lands in the fingered leaf reads no node.  `replaced(i, old)`
  // receives the payload key i replaced, or nullopt for a new key.  The
  // result is the tree the same Upserts one at a time would build, and no
  // more nodes are read than they would read.
  template <typename Replaced>
  void UpsertRun(const std::vector<CompositeKey>& keys,
                 std::vector<Payload> payloads, Replaced replaced) {
    assert(keys.size() == payloads.size());
    Finger finger;
    for (size_t i = 0; i < keys.size(); ++i) {
      InsertResult res =
          finger.Covers(keys[i]) && finger.leaf->keys.size() < kMaxKeys
              ? InsertIntoLeaf(finger.leaf, keys[i])
              : Insert(keys[i], /*metered=*/true, &finger);
      replaced(i, Store(res, std::move(payloads[i])));
    }
  }

  // Removes a run of strictly ascending keys, walking it with a finger as
  // UpsertRun does (removal never splits, so the finger only moves when a
  // key reaches its fence).  `removed(i, payload)` receives each removed
  // payload.  Stops at the first absent key and returns its index, or
  // keys.size() when every key was present.
  template <typename Removed>
  size_t ExtractRun(const std::vector<CompositeKey>& keys, Removed removed) {
    Finger finger;
    for (size_t i = 0; i < keys.size(); ++i) {
      Node* leaf = finger.Covers(keys[i]) ? finger.leaf
                                          : DescendToLeaf(keys[i], &finger);
      std::optional<Payload> payload = ExtractFromLeaf(leaf, keys[i]);
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
    Iterator it;
    it.leaf_ = DescendToLeaf(key);
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

  // The leaf a run's last descent reached, and that leaf's upper fence:
  // the smallest separator to its right on the descent path (null: the
  // rightmost leaf).  Keys of a run ascend, so every later key is at least
  // the leaf's lower bound, and one below the fence belongs to the leaf.
  // Any split may move separators, so the walk drops the finger after one.
  struct Finger {
    Node* leaf = nullptr;
    const CompositeKey* fence = nullptr;

    bool Covers(const CompositeKey& key) const {
      return leaf != nullptr &&
             (fence == nullptr || CompareKeys(key, *fence) < 0);
    }
  };

  struct InsertResult {
    Payload* payload = nullptr;
    bool inserted = false;  // `payload` is a new default-constructed slot
    Node* leaf = nullptr;   // the leaf holding `payload`, unless it split
    // Present when this child split: separator key + new right sibling.
    std::optional<std::pair<CompositeKey, std::unique_ptr<Node>>> split;
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

  // Descends to the leaf for `key`, metering every node; when `finger` is
  // given, points it at that leaf and its fence.
  Node* DescendToLeaf(const CompositeKey& key,
                      Finger* finger = nullptr) const {
    if (finger != nullptr) *finger = Finger();
    Node* n = root_.get();
    GlobalMetrics().index_nodes_read++;
    while (!n->leaf) {
      size_t ci = ChildIndex(n->keys, key);
      if (finger != nullptr && ci < n->keys.size()) {
        finger->fence = &n->keys[ci];
      }
      n = n->children[ci].get();
      GlobalMetrics().index_nodes_read++;
    }
    if (finger != nullptr) finger->leaf = n;
    return n;
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

  // Descends from the root, inserting a default payload if `key` is
  // absent and growing the tree by one level when the root splits.  When
  // `finger` is given, points it at the leaf reached, or clears it if
  // that leaf split.
  InsertResult Insert(const CompositeKey& key, bool metered,
                      Finger* finger = nullptr) {
    if (finger != nullptr) *finger = Finger();
    InsertResult res = InsertRec(root_.get(), key, metered, finger);
    if (finger != nullptr) finger->leaf = res.leaf;
    if (res.split) {
      // Root split: grow the tree by one level.  Nodes never move, so the
      // payload pointer stays valid.
      auto new_root = NewNode(/*leaf=*/false);
      new_root->keys.push_back(std::move(res.split->first));
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(res.split->second));
      root_ = std::move(new_root);
      res.split.reset();
      ++height_;
    }
    return res;
  }

  InsertResult InsertRec(Node* node, const CompositeKey& key, bool metered,
                         Finger* finger) {
    if (metered) GlobalMetrics().index_nodes_read++;
    if (node->leaf) return InsertIntoLeaf(node, key);
    size_t ci = ChildIndex(node->keys, key);
    if (finger != nullptr && ci < node->keys.size()) {
      finger->fence = &node->keys[ci];
    }
    InsertResult child_res =
        InsertRec(node->children[ci].get(), key, metered, finger);
    if (!child_res.split) return child_res;
    // Absorb the child's split into this node.
    node->keys.insert(node->keys.begin() + ci,
                      std::move(child_res.split->first));
    node->children.insert(node->children.begin() + ci + 1,
                          std::move(child_res.split->second));
    child_res.split.reset();
    if (node->keys.size() <= kMaxKeys) return child_res;
    return SplitInternal(node, child_res.payload);
  }

  // The slot for `key` in `leaf`, adding a default payload if absent and
  // splitting the leaf when that overflows it.
  InsertResult InsertIntoLeaf(Node* leaf, const CompositeKey& key) {
    size_t pos = LowerBound(leaf->keys, key);
    if (pos < leaf->keys.size() && CompareKeys(leaf->keys[pos], key) == 0) {
      return {&leaf->payloads[pos], false, leaf, std::nullopt};
    }
    leaf->keys.insert(leaf->keys.begin() + pos, key);
    leaf->payloads.insert(leaf->payloads.begin() + pos, Payload());
    ++size_;
    if (leaf->keys.size() <= kMaxKeys) {
      return {&leaf->payloads[pos], true, leaf, std::nullopt};
    }
    return SplitLeaf(leaf, pos);
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

  InsertResult SplitLeaf(Node* node, size_t inserted_pos) {
    size_t mid = node->keys.size() / 2;
    auto right = NewNode(/*leaf=*/true);
    right->keys.assign(std::make_move_iterator(node->keys.begin() + mid),
                       std::make_move_iterator(node->keys.end()));
    right->payloads.assign(
        std::make_move_iterator(node->payloads.begin() + mid),
        std::make_move_iterator(node->payloads.end()));
    node->keys.resize(mid);
    node->payloads.resize(mid);
    right->next = node->next;
    node->next = right.get();
    Payload* payload = inserted_pos < mid
                           ? &node->payloads[inserted_pos]
                           : &right->payloads[inserted_pos - mid];
    CompositeKey sep = right->keys.front();
    InsertResult res;
    res.payload = payload;
    res.inserted = true;
    res.split.emplace(std::move(sep), std::move(right));
    return res;
  }

  InsertResult SplitInternal(Node* node, Payload* payload) {
    size_t mid = node->keys.size() / 2;
    CompositeKey sep = std::move(node->keys[mid]);
    auto right = NewNode(/*leaf=*/false);
    right->keys.assign(std::make_move_iterator(node->keys.begin() + mid + 1),
                       std::make_move_iterator(node->keys.end()));
    right->children.assign(
        std::make_move_iterator(node->children.begin() + mid + 1),
        std::make_move_iterator(node->children.end()));
    node->keys.resize(mid);
    node->children.resize(mid + 1);
    InsertResult res;
    res.payload = payload;
    res.inserted = true;
    res.split.emplace(std::move(sep), std::move(right));
    return res;
  }

  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  size_t height_ = 1;
};

}  // namespace exi

#endif  // EXTIDX_INDEX_BPLUS_TREE_H_
