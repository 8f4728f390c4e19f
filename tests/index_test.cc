// Unit + property tests for src/index: B+-tree, B-tree index, IOT.  The
// property suites cross-check the B+-tree against
// std::map on random operation sequences, the bottom-up bulk loader
// against incremental inserts, and sorted runs against single-key writes.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "catalog/catalog.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/callback_guard.h"
#include "index/bplus_tree.h"
#include "index/bptree.h"
#include "index/iot.h"
#include "posting_rows.h"
#include "txn/transaction.h"

namespace exi {
namespace {

CompositeKey IntKey(int64_t v) { return {Value::Integer(v)}; }

// The B+-tree tests key a small entry, which carries its own key beside
// its value, by one INTEGER.
template <typename T>
struct KeyedEntry {
  CompositeKey key;
  T value;
};

struct KeyedEntryKey {
  template <typename T>
  KeySpan operator()(const KeyedEntry<T>& entry) const {
    return entry.key;
  }
};

template <typename T>
using Tree = BPlusTree<KeyedEntry<T>, KeyedEntryKey>;
using IntEntry = KeyedEntry<int64_t>;
using IntTree = Tree<int64_t>;

template <typename T>
KeyedEntry<T> Entry(int64_t key, T value) {
  return {IntKey(key), value};
}

// Stores `entry` as a one-key MergeRun and returns the entry it replaced,
// or nullopt for a new key.
template <typename T>
std::optional<KeyedEntry<T>> Put(Tree<T>& tree, KeyedEntry<T> entry) {
  const CompositeKey key = entry.key;
  std::optional<KeyedEntry<T>> replaced;
  tree.MergeRun(
      1, [&](size_t) { return KeySpan(key); },
      [&](size_t, const KeyedEntry<T>*, std::optional<KeyedEntry<T>>* next) {
        *next = std::move(entry);
        return true;
      },
      [&](size_t, std::optional<KeyedEntry<T>> old, const KeyedEntry<T>*) {
        replaced = std::move(old);
      });
  return replaced;
}

// Removes `key`'s entry as a one-key MergeRun and returns it, or nullopt
// if absent.
template <typename T>
std::optional<KeyedEntry<T>> Take(Tree<T>& tree, const CompositeKey& key) {
  std::optional<KeyedEntry<T>> removed;
  tree.MergeRun(
      1, [&](size_t) { return KeySpan(key); },
      [](size_t, const KeyedEntry<T>*, std::optional<KeyedEntry<T>>*) {
        return true;
      },
      [&](size_t, std::optional<KeyedEntry<T>> old, const KeyedEntry<T>*) {
        removed = std::move(old);
      });
  return removed;
}

// The value stored under `key`, or nullptr.
template <typename T>
T* FindValue(Tree<T>& tree, int64_t key) {
  KeyedEntry<T>* entry = tree.Find(IntKey(key));
  return entry == nullptr ? nullptr : &entry->value;
}

TEST(BPlusTreeTest, InsertFindErase) {
  Tree<int> tree;
  for (int64_t i = 0; i < 1000; ++i) {
    Put(tree, Entry(i, int(i * 2)));
  }
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_GT(tree.height(), 1u);
  for (int64_t i = 0; i < 1000; ++i) {
    int* v = FindValue(tree, i);
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, int(i * 2));
  }
  EXPECT_EQ(tree.Find(IntKey(5000)), nullptr);
  EXPECT_TRUE(Take(tree, IntKey(500)).has_value());
  EXPECT_FALSE(Take(tree, IntKey(500)).has_value());
  EXPECT_EQ(tree.Find(IntKey(500)), nullptr);
  EXPECT_EQ(tree.size(), 999u);
}

TEST(BPlusTreeTest, IterationIsSorted) {
  Tree<int> tree;
  Rng rng(3);
  std::set<int64_t> keys;
  for (int i = 0; i < 2000; ++i) {
    int64_t k = int64_t(rng.Uniform(100000));
    keys.insert(k);
    Put(tree, Entry(k, 0));
  }
  std::vector<int64_t> seen;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    seen.push_back(it.key()[0].AsInteger());
  }
  EXPECT_EQ(seen.size(), keys.size());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(BPlusTreeTest, SeekSemantics) {
  Tree<int> tree;
  for (int64_t i = 0; i < 100; i += 10) Put(tree, Entry(i, 1));
  auto it = tree.Seek(IntKey(25));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key()[0].AsInteger(), 30);
  it = tree.Seek(IntKey(30));
  EXPECT_EQ(it.key()[0].AsInteger(), 30);
  it = tree.Seek(IntKey(91));
  EXPECT_FALSE(it.Valid());
}

// Property test: random interleaved insert/erase vs std::map oracle.
TEST(BPlusTreeTest, PropertyMatchesStdMap) {
  IntTree tree;
  std::map<int64_t, int64_t> oracle;
  Rng rng(99);
  for (int op = 0; op < 20000; ++op) {
    int64_t key = int64_t(rng.Uniform(500));
    if (rng.Uniform(3) == 0) {
      bool tree_erased = Take(tree, IntKey(key)).has_value();
      bool oracle_erased = oracle.erase(key) > 0;
      ASSERT_EQ(tree_erased, oracle_erased) << "op " << op;
    } else {
      int64_t value = int64_t(rng.Next());
      Put(tree, Entry(key, value));
      oracle[key] = value;
    }
  }
  ASSERT_EQ(tree.size(), oracle.size());
  auto it = tree.Begin();
  for (const auto& [key, value] : oracle) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key()[0].AsInteger(), key);
    EXPECT_EQ(it.entry().value, value);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

// A bulk-loaded tree of keys 0..n-1 (value = 3 * key).
void BulkLoadInts(IntTree* tree, int64_t n) {
  int64_t next = 0;
  tree->BulkLoad(size_t(n), [&] {
    int64_t key = next++;
    return Entry(key, 3 * key);
  });
}

// Height of a bulk-loaded tree of `n` entries: `kBulkLeafKeys` per leaf
// and `kMaxKeys` + 1 children per internal node.
size_t PackedHeight(size_t n) {
  const size_t leaf = IntTree::kBulkLeafKeys;
  const size_t fanout = IntTree::kMaxKeys + 1;
  size_t nodes = (n + leaf - 1) / leaf;
  size_t height = 1;
  while (nodes > 1) {
    nodes = (nodes + fanout - 1) / fanout;
    ++height;
  }
  return height;
}

TEST(BPlusTreeBulkLoadTest, MatchesIncrementalInserts) {
  // Edge sizes: one leaf full and one over; one full internal root of
  // full leaves, and one over.
  const int64_t leaf = int64_t(IntTree::kBulkLeafKeys);
  const int64_t fanout = int64_t(IntTree::kMaxKeys) + 1;
  for (int64_t n : {int64_t(0), int64_t(1), leaf, leaf + 1, leaf * fanout,
                    leaf * fanout + 1, int64_t(50000)}) {
    SCOPED_TRACE(n);
    IntTree bulk;
    BulkLoadInts(&bulk, n);
    IntTree incremental;
    for (int64_t i = 0; i < n; ++i) Put(incremental, Entry(i, 3 * i));
    ASSERT_EQ(bulk.size(), size_t(n));
    EXPECT_EQ(bulk.height(), PackedHeight(size_t(n)));
    // Same entries in the same order.
    auto a = bulk.Begin();
    auto b = incremental.Begin();
    for (; b.Valid(); a.Next(), b.Next()) {
      ASSERT_TRUE(a.Valid());
      ASSERT_EQ(CompareKeys(a.key(), b.key()), 0);
      ASSERT_EQ(a.entry().value, b.entry().value);
    }
    EXPECT_FALSE(a.Valid());
    // Every key is found, and Seek lands on it.
    for (int64_t i = 0; i < n; ++i) {
      const int64_t* v = FindValue(bulk, i);
      ASSERT_NE(v, nullptr) << i;
      ASSERT_EQ(*v, 3 * i);
      auto it = bulk.Seek(IntKey(i));
      ASSERT_TRUE(it.Valid());
      ASSERT_EQ(it.key()[0].AsInteger(), i);
    }
    EXPECT_EQ(FindValue(bulk, -1), nullptr);
    EXPECT_FALSE(bulk.Seek(IntKey(n)).Valid());
  }
}

// Later inserts and erases split and shrink the packed nodes like any
// others: the tree stays sorted and agrees with a std::map oracle.
TEST(BPlusTreeBulkLoadTest, InterleavedWritesAfterLoadStaySorted) {
  IntTree tree;
  std::map<int64_t, int64_t> oracle;
  const int64_t n = 5000;
  // Even keys loaded; writes then hit every leaf.
  int64_t next = 0;
  tree.BulkLoad(size_t(n), [&] {
    oracle[2 * next] = next;
    ++next;
    return Entry(2 * (next - 1), next - 1);
  });
  Rng rng(17);
  for (int op = 0; op < 20000; ++op) {
    int64_t key = int64_t(rng.Uniform(2 * n + 100));
    if (rng.Uniform(3) == 0) {
      ASSERT_EQ(Take(tree, IntKey(key)).has_value(), oracle.erase(key) > 0)
          << op;
    } else {
      Put(tree, Entry<int64_t>(key, op));
      oracle[key] = op;
    }
  }
  ASSERT_EQ(tree.size(), oracle.size());
  auto it = tree.Begin();
  for (const auto& [key, value] : oracle) {
    ASSERT_TRUE(it.Valid());
    ASSERT_EQ(it.key()[0].AsInteger(), key);
    ASSERT_EQ(it.entry().value, value);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

// ---- sorted runs: one held root-to-leaf path per run ----

// index_nodes_read while `op` runs.
template <typename Op>
uint64_t NodesReadBy(Op op) {
  StorageMetrics before = GlobalMetrics().Snapshot();
  op();
  return GlobalMetrics().Snapshot().Delta(before).index_nodes_read;
}

// Writes `entries`, whose keys strictly ascend, as one MergeRun; for each
// entry `replaced(stored, old)` receives the stored entry and the one it
// replaced (nullopt for a new key).
template <typename Replaced>
void UpsertRun(IntTree& tree, std::vector<IntEntry> entries,
               Replaced replaced) {
  tree.MergeRun(
      entries.size(), [&](size_t i) { return KeySpan(entries[i].key); },
      [&](size_t i, const IntEntry*, std::optional<IntEntry>* next) {
        *next = std::move(entries[i]);
        return true;
      },
      [&](size_t, std::optional<IntEntry> old, const IntEntry* stored) {
        replaced(*stored, std::move(old));
      });
}

// Removes the strictly ascending `keys` as one MergeRun, handing each
// removed entry to `removed(i, entry)`.  Stops at the first absent key and
// returns its index, or keys.size().
template <typename Removed>
size_t ExtractRun(IntTree& tree, const std::vector<CompositeKey>& keys,
                  Removed removed) {
  return tree.MergeRun(
      keys.size(), [&](size_t i) { return KeySpan(keys[i]); },
      [](size_t, const IntEntry* current, std::optional<IntEntry>*) {
        return current != nullptr;
      },
      [&](size_t i, std::optional<IntEntry> old, const IntEntry*) {
        removed(i, std::move(*old));
      });
}

// The tree's size and its entries in leaf-chain order equal the model's.
void ExpectMatchesModel(IntTree& tree,
                        const std::map<int64_t, int64_t>& model) {
  ASSERT_EQ(tree.size(), model.size());
  auto it = tree.Begin();
  for (const auto& [key, value] : model) {
    ASSERT_TRUE(it.Valid());
    ASSERT_EQ(it.key()[0].AsInteger(), key);
    ASSERT_EQ(it.entry().value, value);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

// Random sorted upsert and delete runs, applied to one tree as runs and to
// a twin key by key: after every run both match a std::map model and have
// the same height, and the run read no more nodes than the single keys.
// The first runs land in an empty tree and split leaves and the root;
// later upsert runs mix new and replaced keys, and runs vary from a few
// keys in one leaf to hundreds spread over many.
TEST(BPlusTreeRunTest, RandomRunsMatchStdMapAndReadNoMoreThanSingleKeys) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    IntTree runs;
    IntTree singles;
    std::map<int64_t, int64_t> model;
    for (int64_t step = 0; step < 300; ++step) {
      const int64_t span = int64_t(16) << rng.Uniform(12);
      const int64_t lo = int64_t(rng.Uniform(40000));
      const bool upsert = model.empty() || rng.Uniform(3) != 0;
      std::set<int64_t> picked;
      if (upsert) {
        const uint64_t n = 1 + rng.Uniform(step < 5 ? 600 : 150);
        for (uint64_t i = 0; i < n; ++i) {
          picked.insert(lo + int64_t(rng.Uniform(uint64_t(span))));
        }
      } else {
        for (auto it = model.lower_bound(lo);
             it != model.end() && it->first < lo + span; ++it) {
          if (rng.Uniform(2) == 0) picked.insert(it->first);
        }
      }
      std::vector<CompositeKey> keys;
      std::vector<IntEntry> entries;
      for (int64_t k : picked) {
        keys.push_back(IntKey(k));
        entries.push_back(Entry(k, k * 1000 + step));
      }
      uint64_t run_reads = 0;
      uint64_t single_reads = 0;
      if (upsert) {
        run_reads = NodesReadBy([&] {
          UpsertRun(runs, entries, [&](const IntEntry& stored,
                                       std::optional<IntEntry> old) {
            auto it = model.find(stored.key[0].AsInteger());
            ASSERT_EQ(old.has_value(), it != model.end());
            if (old.has_value()) {
              ASSERT_EQ(old->value, it->second);
            }
          });
        });
        single_reads = NodesReadBy([&] {
          for (const IntEntry& entry : entries) Put(singles, entry);
        });
        for (const IntEntry& entry : entries) {
          model[entry.key[0].AsInteger()] = entry.value;
        }
      } else {
        run_reads = NodesReadBy([&] {
          EXPECT_EQ(ExtractRun(runs, keys,
                               [&](size_t i, IntEntry entry) {
                                 ASSERT_EQ(entry.value,
                                           model.at(keys[i][0].AsInteger()));
                               }),
                    keys.size());
        });
        single_reads = NodesReadBy([&] {
          for (const CompositeKey& key : keys) Take(singles, key);
        });
        for (int64_t k : picked) model.erase(k);
      }
      ASSERT_LE(run_reads, single_reads) << "step " << step;
      ExpectMatchesModel(runs, model);
      ExpectMatchesModel(singles, model);
      ASSERT_EQ(runs.height(), singles.height());
    }
    // The runs grew the tree past a split of an internal root.
    EXPECT_GE(runs.height(), 3u);
  }
}

// Keys 0, 2, 4, ... bulk-loaded: the first leaf holds 0 .. 110 with room
// for 8 more entries, and the second leaf starts at 112.  The 358 leaves
// hang under 6 parents; the first parent's 60 leaves end at key 6718.
class BPlusTreeRunMeterTest : public ::testing::Test {
 protected:
  BPlusTreeRunMeterTest() {
    int64_t next = 0;
    tree_.BulkLoad(20000, [&] {
      int64_t i = next++;
      return Entry(2 * i, i);
    });
    EXPECT_EQ(tree_.height(), 3u);
  }

  static std::vector<CompositeKey> Keys(std::initializer_list<int64_t> ks) {
    std::vector<CompositeKey> keys;
    for (int64_t k : ks) keys.push_back(IntKey(k));
    return keys;
  }

  // Entries for `ks` with values `vs`.
  static std::vector<IntEntry> Entries(std::initializer_list<int64_t> ks,
                                       std::vector<int64_t> vs) {
    std::vector<IntEntry> entries;
    for (int64_t k : ks) entries.push_back(Entry(k, vs[entries.size()]));
    return entries;
  }

  static void IgnoreReplaced(const IntEntry&, std::optional<IntEntry>) {}

  IntTree tree_;
};

// A run that stays inside one leaf reads exactly the tree's height: one
// descent, then the leaf it already holds.
TEST_F(BPlusTreeRunMeterTest, RunInsideOneLeafReadsTheHeight) {
  const uint64_t height = tree_.height();
  std::vector<CompositeKey> keys = Keys({21, 23, 30, 32, 33});  // 2 replaced
  EXPECT_EQ(NodesReadBy([&] {
              UpsertRun(tree_,
                        Entries({21, 23, 30, 32, 33}, {1, 2, 3, 4, 5}),
                        IgnoreReplaced);
            }),
            height);
  EXPECT_EQ(*FindValue(tree_, 30), 3);
  EXPECT_EQ(NodesReadBy([&] {
              EXPECT_EQ(ExtractRun(tree_, keys, [](size_t, IntEntry) {}),
                        keys.size());
            }),
            height);
  EXPECT_EQ(tree_.size(), 20000u - 2u);
}

// A run reaching the next leaf under the same parent re-descends from
// that held parent: 2 nodes, not the height.  A split is absorbed by the
// held parent with no node read, and the next key re-descends from it.
TEST_F(BPlusTreeRunMeterTest, FenceAndSplitEachCostOneDescent) {
  const uint64_t height = tree_.height();
  EXPECT_EQ(NodesReadBy([&] {
              UpsertRun(tree_, Entries({1, 113}, {0, 0}), IgnoreReplaced);
            }),
            height + 2);
  // The first leaf now has 57 entries: 7 more fill it, the 8th key splits
  // it in place, and the 9th reads the parent and the leaf it lands in.
  EXPECT_EQ(NodesReadBy([&] {
              UpsertRun(tree_,
                        Entries({3, 5, 7, 9, 11, 13, 15, 17, 19},
                                std::vector<int64_t>(9, 0)),
                        IgnoreReplaced);
            }),
            height + 2);
  EXPECT_EQ(tree_.size(), 20000u + 11u);
  int64_t prev = -1;
  for (auto it = tree_.Begin(); it.Valid(); it.Next()) {
    ASSERT_LT(prev, it.key()[0].AsInteger());
    prev = it.key()[0].AsInteger();
  }
}

// An ExtractRun crossing into the second parent re-descends from the
// root, and crossing a leaf fence under a held parent reads 2 nodes.
TEST_F(BPlusTreeRunMeterTest, ExtractRunAcrossTwoParents) {
  const uint64_t height = tree_.height();
  std::vector<int64_t> removed;
  EXPECT_EQ(NodesReadBy([&] {
              EXPECT_EQ(ExtractRun(tree_, Keys({0, 2, 112, 6720, 6832}),
                                   [&](size_t, IntEntry entry) {
                                     removed.push_back(entry.value);
                                   }),
                        5u);
            }),
            height + 2 + height + 2);
  EXPECT_EQ(removed, (std::vector<int64_t>{0, 1, 56, 3360, 3416}));
  EXPECT_EQ(tree_.size(), 20000u - 5u);
  EXPECT_EQ(FindValue(tree_, 6720), nullptr);
  EXPECT_NE(FindValue(tree_, 6722), nullptr);
}

// A run into a tree whose internal nodes are all full splits a leaf, its
// parent and the root in one key, and the tree grows a level.  The rest
// of the run re-descends from the new root.
TEST(BPlusTreeRunTest, SplitCascadesThroughHeldParentsToANewRoot) {
  const int64_t leaf = int64_t(IntTree::kBulkLeafKeys);
  const int64_t fanout = int64_t(IntTree::kMaxKeys) + 1;
  IntTree tree;
  std::map<int64_t, int64_t> model;
  int64_t next = 0;
  tree.BulkLoad(size_t(leaf * fanout * fanout), [&] {
    int64_t i = next++;
    model[2 * i] = i;
    return Entry(2 * i, i);
  });
  const size_t height = tree.height();
  ASSERT_EQ(height, 3u);
  // 9 new keys overflow the first leaf; 3 more follow in later leaves.
  std::vector<IntEntry> entries;
  for (int64_t k : std::initializer_list<int64_t>{
           1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 113, 2 * next + 1}) {
    entries.push_back(Entry(k, -k));
    model[k] = -k;
  }
  // One descent for the first key, none for the split, then one from the
  // new root for 19, one from the held parent for 113, and one from the
  // root for the last key.
  EXPECT_EQ(NodesReadBy([&] {
              UpsertRun(tree, entries,
                        [](const IntEntry&, std::optional<IntEntry> old) {
                          EXPECT_FALSE(old.has_value());
                        });
            }),
            height + (height + 1) + 2 + (height + 1));
  EXPECT_EQ(tree.height(), height + 1);
  ExpectMatchesModel(tree, model);
  for (const auto& [key, value] : model) {
    const int64_t* found = FindValue(tree, key);
    ASSERT_NE(found, nullptr) << key;
    ASSERT_EQ(*found, value);
  }
}

// ExtractRun stops at the first absent key, having removed the ones
// before it.
TEST_F(BPlusTreeRunMeterTest, ExtractRunStopsAtTheFirstAbsentKey) {
  std::vector<int64_t> removed;
  EXPECT_EQ(ExtractRun(tree_, Keys({2, 4, 5, 6}),
                       [&](size_t, IntEntry entry) {
                         removed.push_back(entry.value);
                       }),
            2u);
  EXPECT_EQ(removed, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(FindValue(tree_, 4), nullptr);
  EXPECT_NE(FindValue(tree_, 6), nullptr);
}

// One MergeRun inside one leaf replaces, inserts, removes and skips keys
// for the tree's height in node reads, reports each change with the entry
// it displaced, and ends where the merge callback says stop.
TEST_F(BPlusTreeRunMeterTest, MergeRunReplacesInsertsAndRemovesInOneWalk) {
  const uint64_t height = tree_.height();
  // 20 replaced, 21 inserted, 22 removed, 23 absent and left so, then a
  // stop before 24.
  std::vector<CompositeKey> keys = Keys({20, 21, 22, 23, 24});
  std::vector<std::pair<size_t, std::optional<int64_t>>> changes;
  size_t ended = 0;
  EXPECT_EQ(NodesReadBy([&] {
              ended = tree_.MergeRun(
                  keys.size(), [&](size_t i) { return KeySpan(keys[i]); },
                  [&](size_t i, const IntEntry* current,
                      std::optional<IntEntry>* next) {
                    const int64_t k = keys[i][0].AsInteger();
                    EXPECT_EQ(current != nullptr, k % 2 == 0);
                    if (k == 24) return false;
                    if (k == 20 || k == 21) *next = Entry(k, -k);
                    return true;
                  },
                  [&](size_t i, std::optional<IntEntry> old,
                      const IntEntry* stored) {
                    EXPECT_EQ(stored != nullptr,
                              keys[i][0].AsInteger() != 22);
                    changes.emplace_back(
                        i, old.has_value() ? std::optional(old->value)
                                           : std::nullopt);
                  });
            }),
            height);
  EXPECT_EQ(ended, 4u);
  using Change = std::pair<size_t, std::optional<int64_t>>;
  EXPECT_EQ(changes, (std::vector<Change>{{0, 10}, {1, std::nullopt},
                                          {2, 11}}));
  EXPECT_EQ(*FindValue(tree_, 20), -20);
  EXPECT_EQ(*FindValue(tree_, 21), -21);
  EXPECT_EQ(FindValue(tree_, 22), nullptr);
  EXPECT_EQ(FindValue(tree_, 23), nullptr);
  EXPECT_EQ(*FindValue(tree_, 24), 12);
  EXPECT_EQ(tree_.size(), 20000u);
}

TEST(BPlusTreeTest, UpsertAndExtractReturnTheOldPayload) {
  IntTree tree;
  EXPECT_FALSE(Put(tree, Entry<int64_t>(1, 10)).has_value());
  std::optional<IntEntry> old = Put(tree, Entry<int64_t>(1, 11));
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->value, 10);
  EXPECT_EQ(*FindValue(tree, 1), 11);
  old = Take(tree, IntKey(1));
  ASSERT_TRUE(old.has_value());
  EXPECT_EQ(old->value, 11);
  EXPECT_FALSE(Take(tree, IntKey(1)).has_value());
  EXPECT_EQ(tree.size(), 0u);
}

// A B-tree index over a table of `columns` INTEGER columns, keyed on all
// of them in order, so a key is also its table row.
BTreeIndex IntIndex(int columns = 1) {
  Schema schema;
  std::vector<size_t> positions;
  for (int c = 0; c < columns; ++c) {
    schema.AddColumn(Column{"k" + std::to_string(c), DataType::Integer()});
    positions.push_back(size_t(c));
  }
  return BTreeIndex("i", schema, std::move(positions));
}

// Adds / removes the entry of table row `key` at `rid` as a one-entry run.
Status AddEntry(BTreeIndex& index, const CompositeKey& key, RowId rid) {
  std::vector<Row> entries;
  index.AddEntry(rid, key, &entries);
  return index.Write({}, std::move(entries), nullptr);
}
Status RemoveEntry(BTreeIndex& index, const CompositeKey& key, RowId rid) {
  std::vector<Row> entries;
  index.AddEntry(rid, key, &entries);
  return index.Write(std::move(entries), {}, nullptr);
}

// Every rowid the index holds, in (key, rowid) order.
std::vector<RowId> AllRids(const BTreeIndex& index) {
  return index.ScanRange(std::nullopt, std::nullopt);
}

TEST(BTreeIndexTest, NonUniquePostings) {
  BTreeIndex index = IntIndex();
  ASSERT_TRUE(AddEntry(index, IntKey(5), 101).ok());
  ASSERT_TRUE(AddEntry(index, IntKey(5), 100).ok());
  ASSERT_TRUE(AddEntry(index, IntKey(6), 102).ok());
  EXPECT_EQ(AddEntry(index, IntKey(5), 100).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(AllRids(index), (std::vector<RowId>{100, 101, 102}));
  // Rowids of one key come in rowid order, not insertion order.
  EXPECT_EQ(index.ScanEqual(IntKey(5)), (std::vector<RowId>{100, 101}));
  ASSERT_TRUE(RemoveEntry(index, IntKey(5), 100).ok());
  EXPECT_EQ(index.ScanEqual(IntKey(5)).size(), 1u);
  EXPECT_EQ(RemoveEntry(index, IntKey(5), 999).code(), StatusCode::kNotFound);
  EXPECT_EQ(AllRids(index).size(), 2u);
  EXPECT_TRUE(index.ScanEqual(IntKey(99)).empty());
  // Deleting a key's last rowid removes the key.
  ASSERT_TRUE(RemoveEntry(index, IntKey(5), 101).ok());
  EXPECT_TRUE(index.ScanEqual(IntKey(5)).empty());
  EXPECT_EQ(AllRids(index), (std::vector<RowId>{102}));
}

// One Write is one merge run: a NULL leading key makes no entry, an entry
// in both lists is left alone, and under a transaction the whole run is
// one undo entry that puts every entry back.
TEST(BTreeIndexTest, WriteIsOneRunUndoneAsOneEntry) {
  BTreeIndex index = IntIndex();
  std::vector<Row> entries;
  for (int64_t k = 0; k < 10; ++k) {
    index.AddEntry(RowId(k + 1), IntKey(k), &entries);
  }
  index.AddEntry(99, {Value::Null()}, &entries);
  EXPECT_EQ(entries.size(), 10u);
  ASSERT_TRUE(index.BulkLoad(std::move(entries)).ok());

  Transaction txn(1);
  std::vector<Row> removed;
  std::vector<Row> added;
  for (int64_t k = 0; k < 10; ++k) {
    // Rows 1-5 keep their keys, rows 6-10 move theirs up by 100.
    index.AddEntry(RowId(k + 1), IntKey(k), &removed);
    index.AddEntry(RowId(k + 1), IntKey(k < 5 ? k : k + 100), &added);
  }
  index.AddEntry(11, IntKey(50), &added);
  StorageMetrics before = GlobalMetrics().Snapshot();
  ASSERT_TRUE(index.Write(std::move(removed), std::move(added), &txn).ok());
  // Five entries go, six come; the unchanged five are not touched.
  EXPECT_EQ(GlobalMetrics().Snapshot().Delta(before).index_entries_written,
            11u);
  EXPECT_EQ(txn.undo_depth(), 1u);
  EXPECT_EQ(AllRids(index),
            (std::vector<RowId>{1, 2, 3, 4, 5, 11, 6, 7, 8, 9, 10}));
  txn.RunUndo();
  EXPECT_EQ(AllRids(index),
            (std::vector<RowId>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
}

TEST(BTreeIndexTest, RangeScansAllBoundShapes) {
  BTreeIndex index = IntIndex();
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(AddEntry(index, IntKey(i), RowId(i + 1)).ok());
  }
  auto count = [&](std::optional<KeyBound> lo,
                   std::optional<KeyBound> hi) {
    return index.ScanRange(lo, hi).size();
  };
  EXPECT_EQ(count(KeyBound{IntKey(10), true}, KeyBound{IntKey(19), true}),
            10u);
  EXPECT_EQ(count(KeyBound{IntKey(10), false}, KeyBound{IntKey(19), false}),
            8u);
  EXPECT_EQ(count(std::nullopt, KeyBound{IntKey(4), true}), 5u);
  EXPECT_EQ(count(KeyBound{IntKey(95), true}, std::nullopt), 5u);
  EXPECT_EQ(count(std::nullopt, std::nullopt), 100u);
  EXPECT_EQ(count(KeyBound{IntKey(200), true}, std::nullopt), 0u);
}

TEST(BTreeIndexTest, ScanLeadingPrefix) {
  BTreeIndex index = IntIndex(2);
  for (int64_t a = 0; a < 10; ++a) {
    for (int64_t b = 0; b < 5; ++b) {
      ASSERT_TRUE(AddEntry(index, {Value::Integer(a), Value::Integer(b)},
                           RowId(a * 10 + b + 1))
                      .ok());
    }
  }
  auto rids = index.ScanLeadingPrefix({Value::Integer(7)});
  EXPECT_EQ(rids.size(), 5u);
  for (RowId r : rids) EXPECT_EQ((r - 1) / 10, 7u);
  EXPECT_TRUE(index.ScanLeadingPrefix({Value::Integer(99)}).empty());
  // Two-component prefix degenerates to exact match.
  rids = index.ScanLeadingPrefix({Value::Integer(3), Value::Integer(2)});
  EXPECT_EQ(rids.size(), 1u);
}

// The primary keys of posting rows: their first two values, or fewer.
std::vector<CompositeKey> KeysOf(const std::vector<Row>& rows) {
  std::vector<CompositeKey> keys;
  for (const Row& row : rows) {
    keys.emplace_back(row.begin(),
                      row.begin() + std::min<size_t>(2, row.size()));
  }
  return keys;
}

// A merge callback that stores rows[i] under the i-th key: an upsert run.
auto Store(std::vector<Row>& rows) {
  return [&rows](size_t i, const Row*) -> Result<std::optional<Row>> {
    return std::optional<Row>(std::move(rows[i]));
  };
}

// A merge callback that deletes each key and fails at an absent one: a
// delete run.
const auto Remove = [](size_t,
                        const Row* current) -> Result<std::optional<Row>> {
  if (current == nullptr) return Status::NotFound("absent posting");
  return std::optional<Row>();
};

// Upserts `rows` into `iot` as one merge run.
Status UpsertRun(Iot& iot, std::vector<Row> rows,
                 Iot::MergeUndo* undo = nullptr) {
  std::vector<CompositeKey> keys = KeysOf(rows);
  return iot.MergeSorted(keys, Store(rows), undo);
}


TEST(IotTest, PrimaryKeySemantics) {
  Schema schema;
  schema.AddColumn(Column{"token", DataType::Varchar(32), true});
  schema.AddColumn(Column{"rid", DataType::Integer(), true});
  schema.AddColumn(Column{"freq", DataType::Integer(), true});
  Iot iot("iot", schema, 2);

  ASSERT_TRUE(iot.Insert({Value::Varchar("a"), Value::Integer(1),
                          Value::Integer(3)})
                  .ok());
  // Duplicate PK rejected; an upsert replaces.
  EXPECT_EQ(iot.Insert({Value::Varchar("a"), Value::Integer(1),
                        Value::Integer(9)})
                .code(),
            StatusCode::kAlreadyExists);
  ASSERT_TRUE(UpsertRun(iot, {{Value::Varchar("a"), Value::Integer(1),
                               Value::Integer(9)}})
                  .ok());
  EXPECT_EQ((*iot.Get({Value::Varchar("a"), Value::Integer(1)}))[2]
                .AsInteger(),
            9);
  ASSERT_TRUE(iot.Delete({Value::Varchar("a"), Value::Integer(1)}).ok());
  EXPECT_FALSE(iot.Delete({Value::Varchar("a"), Value::Integer(1)}).ok());
}

TEST(IotTest, PrefixScanIsOrderedAndBounded) {
  Schema schema;
  schema.AddColumn(Column{"token", DataType::Varchar(32), true});
  schema.AddColumn(Column{"rid", DataType::Integer(), true});
  Iot iot("iot", schema, 2);
  for (int64_t r = 0; r < 50; ++r) {
    ASSERT_TRUE(
        iot.Insert({Value::Varchar(r % 2 ? "aa" : "ab"), Value::Integer(r)})
            .ok());
  }
  std::vector<int64_t> rids;
  iot.ScanPrefix({Value::Varchar("aa")}, [&rids](const Row& row) {
    rids.push_back(row[1].AsInteger());
    return true;
  });
  EXPECT_EQ(rids.size(), 25u);
  EXPECT_TRUE(std::is_sorted(rids.begin(), rids.end()));
  for (int64_t r : rids) EXPECT_EQ(r % 2, 1);
  // Early stop.
  int count = 0;
  iot.ScanPrefix({Value::Varchar("aa")}, [&count](const Row&) {
    return ++count < 5;
  });
  EXPECT_EQ(count, 5);
}

Schema PostingSchema() {
  Schema schema;
  schema.AddColumn(Column{"token", DataType::Varchar(32), true});
  schema.AddColumn(Column{"rid", DataType::Integer(), true});
  schema.AddColumn(Column{"freq", DataType::Integer(), true});
  return schema;
}

Row Posting(const std::string& token, int64_t rid, int64_t freq = 1) {
  return {Value::Varchar(token), Value::Integer(rid), Value::Integer(freq)};
}

// The IOT's rows in key order.
std::vector<Row> RowsOf(const Iot& iot) {
  std::vector<Row> rows;
  iot.ScanRange(nullptr, true, nullptr, true, [&rows](const Row& row) {
    rows.push_back(row);
    return true;
  });
  return rows;
}

CompositeKey PostingKey(const std::string& token, int64_t rid) {
  return {Value::Varchar(token), Value::Integer(rid)};
}

// A model of a text-like posting IOT: (token, rid) -> freq.
using PostingModel = std::map<std::pair<std::string, int64_t>, int64_t>;

constexpr int64_t kMinRid = std::numeric_limits<int64_t>::min();

// The model's rows in [begin, end), in key order.
std::vector<Row> ModelRows(PostingModel::const_iterator begin,
                           PostingModel::const_iterator end) {
  std::vector<Row> rows;
  for (auto it = begin; it != end; ++it) {
    rows.push_back(Posting(it->first.first, it->first.second, it->second));
  }
  return rows;
}

std::vector<Row> ModelRows(const PostingModel& model) {
  return ModelRows(model.begin(), model.end());
}

// Random writes to a (token, rid, freq) IOT keyed by (token, rid), on
// every write path: a bulk load of about 5,000 postings (three levels),
// then merge runs that upsert (add postings and change the freq of
// present ones), delete, or read-modify-write (bump a present posting's
// freq or delete it, add an absent one), and single inserts and deletes.
// The IOT's rows, the keys each run reports as added and the rows it
// reports as replaced or removed all match a std::map model.
TEST(IotTest, RandomPostingWritesMatchStdMap) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    auto token = [&rng] { return "t" + std::to_string(rng.Uniform(80)); };
    auto rid = [&rng] { return int64_t(rng.Uniform(1000)); };
    auto freq = [&rng] { return int64_t(1 + rng.Uniform(9)); };
    Iot iot("p", PostingSchema(), 2);
    PostingModel model;
    for (int i = 0; i < 5000; ++i) model[{token(), rid()}] = freq();
    ASSERT_TRUE(iot.BulkLoad(ModelRows(model)).ok());
    for (int step = 0; step < 400; ++step) {
      SCOPED_TRACE(step);
      const std::string t = token();
      switch (rng.Uniform(5)) {
        case 0: {
          std::map<int64_t, int64_t> run;  // rid -> freq
          const uint64_t n = 1 + rng.Uniform(80);
          for (uint64_t i = 0; i < n; ++i) run[rid()] = freq();
          std::vector<Row> rows;
          std::vector<CompositeKey> want_added;
          std::vector<Row> want_replaced;
          for (const auto& [r, f] : run) {
            rows.push_back(Posting(t, r, f));
            auto it = model.find({t, r});
            if (it == model.end()) {
              want_added.push_back(PostingKey(t, r));
            } else {
              want_replaced.push_back(Posting(t, r, it->second));
            }
            model[{t, r}] = f;
          }
          Iot::MergeUndo undo;
          ASSERT_TRUE(UpsertRun(iot, std::move(rows), &undo).ok());
          ExpectSameRows(undo.added, want_added);
          ExpectSameRows(undo.replaced, want_replaced);
          break;
        }
        case 1: {
          std::vector<CompositeKey> keys;
          std::vector<Row> want_removed;
          auto it = model.lower_bound({t, kMinRid});
          while (it != model.end() && it->first.first == t) {
            if (rng.Uniform(2) == 0) {
              ++it;
              continue;
            }
            keys.push_back(PostingKey(t, it->first.second));
            want_removed.push_back(Posting(t, it->first.second, it->second));
            it = model.erase(it);
          }
          Iot::MergeUndo undo;
          ASSERT_TRUE(iot.MergeSorted(keys, Remove, &undo).ok());
          EXPECT_TRUE(undo.added.empty());
          ExpectSameRows(undo.replaced, want_removed);
          break;
        }
        case 2: {
          std::set<int64_t> rids;
          const uint64_t n = 1 + rng.Uniform(80);
          for (uint64_t i = 0; i < n; ++i) rids.insert(rid());
          std::vector<CompositeKey> keys;
          for (int64_t r : rids) keys.push_back(PostingKey(t, r));
          PostingModel before = model;
          std::vector<CompositeKey> want_added;
          std::vector<Row> want_replaced;
          auto merge = [&](size_t i,
                           const Row* current) -> Result<std::optional<Row>> {
            const int64_t r = keys[i][1].AsInteger();
            auto it = model.find({t, r});
            EXPECT_EQ(current != nullptr, it != model.end());
            if (current == nullptr) {
              want_added.push_back(keys[i]);
              model[{t, r}] = 1;
              return std::optional<Row>(Posting(t, r, 1));
            }
            want_replaced.push_back(*current);
            if (r % 3 == 0) {
              model.erase(it);
              return std::optional<Row>();
            }
            it->second = (*current)[2].AsInteger() + 1;
            return std::optional<Row>(Posting(t, r, it->second));
          };
          Iot::MergeUndo undo;
          ASSERT_TRUE(iot.MergeSorted(keys, merge, &undo).ok());
          ExpectSameRows(undo.added, want_added);
          ExpectSameRows(undo.replaced, want_replaced);
          // Reverting the run, then running it again, changes nothing.
          if (step % 10 == 0) {
            iot.Revert(std::move(undo));
            ExpectSameRows(RowsOf(iot), ModelRows(before));
            model = before;
            want_added.clear();
            want_replaced.clear();
            ASSERT_TRUE(iot.MergeSorted(keys, merge, nullptr).ok());
          }
          break;
        }
        case 3: {
          const int64_t r = rid();
          const int64_t f = freq();
          const bool present = model.count({t, r}) > 0;
          ASSERT_EQ(iot.Insert(Posting(t, r, f)).code(),
                    present ? StatusCode::kAlreadyExists : StatusCode::kOk);
          if (!present) model[{t, r}] = f;
          break;
        }
        default: {
          const int64_t r = rid();
          ASSERT_EQ(iot.Delete(PostingKey(t, r)).ok(),
                    model.erase({t, r}) > 0);
          break;
        }
      }
      ASSERT_EQ(iot.row_count(), model.size());
      if (step % 25 == 0) ExpectSameRows(RowsOf(iot), ModelRows(model));
    }
    ExpectSameRows(RowsOf(iot), ModelRows(model));
    for (const auto& [key, f] : model) {
      Result<Row> row = iot.Get(PostingKey(key.first, key.second));
      ASSERT_TRUE(row.ok()) << key.first << " " << key.second;
      ASSERT_EQ((*row)[2].AsInteger(), f);
    }
  }
}

// A leaf that overflows splits at its middle entry, and a copy of the
// right half's first key becomes the parent's separator.  Here the new row
// itself lands at the split point: 64 even rids fill the root leaf, and
// rid 63 is the 33rd of 65 entries.  The split is made once by Insert and
// once by a sorted run.  Every row stays reachable, also after the row the
// separator was copied from is deleted and written again.
TEST(IotTest, SplitAtTheNewRowMakesItTheSeparator) {
  for (bool run : {false, true}) {
    SCOPED_TRACE(run);
    Iot iot("p", PostingSchema(), 2);
    PostingModel model;
    for (int64_t r = 0; r < 128; r += 2) {
      ASSERT_TRUE(iot.Insert(Posting("a", r, r)).ok());
      model[{"a", r}] = r;
    }
    // One leaf: a lookup reads one node.
    EXPECT_EQ(
        NodesReadBy([&] { ASSERT_TRUE(iot.Get(PostingKey("a", 2)).ok()); }),
        1u);
    if (run) {
      ASSERT_TRUE(UpsertRun(iot, {Posting("a", 63, 63)}).ok());
    } else {
      ASSERT_TRUE(iot.Insert(Posting("a", 63, 63)).ok());
    }
    model[{"a", 63}] = 63;
    // A root over two leaves: a lookup reads two nodes.
    EXPECT_EQ(
        NodesReadBy([&] { ASSERT_TRUE(iot.Get(PostingKey("a", 63)).ok()); }),
        2u);
    ExpectSameRows(RowsOf(iot), ModelRows(model));
    EXPECT_EQ(iot.Insert(Posting("a", 63, 1)).code(),
              StatusCode::kAlreadyExists);
    // The separator is its own copy: deleting its row leaves it valid.
    ASSERT_TRUE(iot.Delete(PostingKey("a", 63)).ok());
    model.erase({"a", 63});
    EXPECT_EQ(iot.Get(PostingKey("a", 63)).status().code(),
              StatusCode::kNotFound);
    CompositeKey split = PostingKey("a", 63);
    std::vector<Row> from_split;
    iot.ScanRange(&split, true, nullptr, true, [&](const Row& row) {
      from_split.push_back(row);
      return true;
    });
    ExpectSameRows(from_split,
                   ModelRows(model.lower_bound({"a", 63}), model.end()));
    Iot::MergeUndo undo;
    ASSERT_TRUE(
        UpsertRun(iot, {Posting("a", 61, 5), Posting("a", 63, 7)}, &undo)
            .ok());
    const std::vector<CompositeKey>& added = undo.added;
    model[{"a", 61}] = 5;
    model[{"a", 63}] = 7;
    ExpectSameRows(added, {PostingKey("a", 61), PostingKey("a", 63)});
    ExpectSameRows(RowsOf(iot), ModelRows(model));
    for (const auto& [key, f] : model) {
      Result<Row> row = iot.Get(PostingKey(key.first, key.second));
      ASSERT_TRUE(row.ok()) << key.second;
      ASSERT_EQ((*row)[2].AsInteger(), f);
    }
  }
}

// Range scans with exclusive and inclusive bounds of one and two columns,
// and prefix scans of one and two columns, over postings of the tokens
// "a", "ab" and "b" spread over nine leaves, match a std::map model.
TEST(IotTest, ScanBoundsAndPrefixesMatchStdMap) {
  Iot iot("p", PostingSchema(), 2);
  PostingModel model;
  for (const char* t : {"a", "ab", "b"}) {
    for (int64_t r = 0; r < 150; ++r) model[{t, r}] = r % 7;
  }
  ASSERT_TRUE(iot.BulkLoad(ModelRows(model)).ok());
  auto range = [&](const CompositeKey* lo, bool lo_inclusive,
                   const CompositeKey* hi, bool hi_inclusive) {
    std::vector<Row> rows;
    iot.ScanRange(lo, lo_inclusive, hi, hi_inclusive, [&](const Row& row) {
      rows.push_back(row);
      return true;
    });
    return rows;
  };
  auto prefix = [&](const CompositeKey& key) {
    std::vector<Row> rows;
    iot.ScanPrefix(key, [&](const Row& row) {
      rows.push_back(row);
      return true;
    });
    return rows;
  };
  // Two-column bounds across a leaf boundary.
  const CompositeKey lo = PostingKey("a", 140);
  const CompositeKey hi = PostingKey("ab", 10);
  ExpectSameRows(range(&lo, false, &hi, false),
                 ModelRows(model.upper_bound({"a", 140}),
                           model.lower_bound({"ab", 10})));
  ExpectSameRows(range(&lo, true, &hi, true),
                 ModelRows(model.lower_bound({"a", 140}),
                           model.upper_bound({"ab", 10})));
  ExpectSameRows(range(&lo, false, nullptr, true),
                 ModelRows(model.upper_bound({"a", 140}), model.end()));
  ExpectSameRows(range(nullptr, true, &hi, false),
                 ModelRows(model.begin(), model.lower_bound({"ab", 10})));
  // One-column bounds: a row ("ab", r) sorts after the key ("ab"), so an
  // exclusive lower bound ("ab") keeps every "ab" row and an exclusive
  // upper bound ("b") stops before every "b" row.
  const CompositeKey ab = {Value::Varchar("ab")};
  const CompositeKey b = {Value::Varchar("b")};
  ExpectSameRows(range(&ab, false, &b, false),
                 ModelRows(model.lower_bound({"ab", kMinRid}),
                           model.lower_bound({"b", kMinRid})));
  // An absent exclusive bound past the last "ab" row, and an exclusive
  // upper bound at the first row.
  const CompositeKey past = PostingKey("ab", 1000);
  const CompositeKey first = PostingKey("a", 0);
  ExpectSameRows(range(&past, false, nullptr, true),
                 ModelRows(model.lower_bound({"b", kMinRid}), model.end()));
  EXPECT_TRUE(range(nullptr, true, &first, false).empty());
  // One-column prefixes: "a" is a string prefix of "ab" but takes only its
  // own rows.
  ExpectSameRows(prefix({Value::Varchar("a")}),
                 ModelRows(model.lower_bound({"a", kMinRid}),
                           model.lower_bound({"ab", kMinRid})));
  ExpectSameRows(prefix(ab), ModelRows(model.lower_bound({"ab", kMinRid}),
                                       model.lower_bound({"b", kMinRid})));
  EXPECT_TRUE(prefix({Value::Varchar("aa")}).empty());
  // Two-column prefixes: one posting or none.
  ExpectSameRows(prefix(PostingKey("ab", 75)), {Posting("ab", 75, 75 % 7)});
  EXPECT_TRUE(prefix(PostingKey("ab", 150)).empty());
}

TEST(IotTest, BulkLoadFillsAnEmptyIot) {
  Iot iot("iot", PostingSchema(), 2);
  std::vector<Row> rows = {Posting("a", 1), Posting("a", 2), Posting("b", 1)};
  StorageMetrics before = GlobalMetrics().Snapshot();
  ASSERT_TRUE(iot.BulkLoad(rows).ok());
  EXPECT_EQ(GlobalMetrics().Snapshot().Delta(before).index_entries_written,
            3u);
  EXPECT_EQ(iot.row_count(), 3u);
  EXPECT_EQ(RowsOf(iot).size(), 3u);
  EXPECT_TRUE(iot.Get({Value::Varchar("b"), Value::Integer(1)}).ok());
}

// Every rejected load returns an error and leaves the IOT as it was.
TEST(IotTest, BulkLoadRejectsAndChangesNothing) {
  Iot iot("iot", PostingSchema(), 2);
  const std::vector<std::vector<Row>> bad = {
      {Posting("b", 1), Posting("a", 1)},  // unsorted
      {Posting("a", 1), Posting("a", 1)},  // duplicate key
      {Posting("a", 1), {Value::Varchar("b"), Value::Integer(1)}},  // short
      {Posting("a", 1), {Value::Integer(7), Value::Integer(1),
                         Value::Integer(1)}},  // wrong type
  };
  for (const std::vector<Row>& rows : bad) {
    EXPECT_FALSE(iot.BulkLoad(rows).ok());
    EXPECT_EQ(iot.row_count(), 0u);
  }
  ASSERT_TRUE(iot.Insert(Posting("a", 1)).ok());
  const std::vector<Row> before = RowsOf(iot);
  EXPECT_EQ(iot.BulkLoad({Posting("b", 1)}).code(),
            StatusCode::kNotSupported);
  ASSERT_EQ(RowsOf(iot).size(), before.size());
  EXPECT_EQ(CompareKeys(RowsOf(iot)[0], before[0]), 0);
}

class IotCallbackTest : public ::testing::Test {
 protected:
  IotCallbackTest() {
    GuardedServerContext ddl(&catalog_, nullptr, CallbackMode::kDefinition);
    EXPECT_TRUE(ddl.CreateIot("p", PostingSchema(), 2).ok());
  }

  Catalog catalog_;
};

TEST_F(IotCallbackTest, BulkLoadIsADefinitionCallback) {
  for (CallbackMode mode : {CallbackMode::kMaintenance, CallbackMode::kScan}) {
    GuardedServerContext ctx(&catalog_, nullptr, mode);
    EXPECT_EQ(ctx.IotBulkLoad("p", {Posting("a", 1)}).code(),
              StatusCode::kCallbackViolation);
  }
  GuardedServerContext ddl(&catalog_, nullptr, CallbackMode::kDefinition);
  EXPECT_TRUE(ddl.IotBulkLoad("p", {Posting("a", 1)}).ok());
  EXPECT_EQ(*ddl.IotRowCount("p"), 1u);
}

TEST_F(IotCallbackTest, BulkLoadUndoEmptiesTheIot) {
  Transaction txn(1);
  GuardedServerContext ctx(&catalog_, &txn, CallbackMode::kDefinition);
  ASSERT_TRUE(ctx.IotBulkLoad("p", {Posting("a", 1), Posting("b", 2)}).ok());
  EXPECT_EQ(txn.undo_depth(), 1u);
  txn.RunUndo();
  EXPECT_EQ(*ctx.IotRowCount("p"), 0u);
}

// A row too short for the key is a schema error, also under undo logging,
// which takes the key before the row is validated.
TEST_F(IotCallbackTest, ShortRowIsAnErrorNotACrash) {
  Transaction txn(1);
  GuardedServerContext ctx(&catalog_, &txn, CallbackMode::kMaintenance);
  EXPECT_EQ(ctx.IotUpsert("p", {Value::Varchar("a")}).code(),
            StatusCode::kTypeMismatch);
  EXPECT_EQ(ctx.IotInsert("p", {Value::Varchar("a")}).code(),
            StatusCode::kTypeMismatch);
  EXPECT_EQ(*ctx.IotRowCount("p"), 0u);
}

// IotUpsert, IotDelete and IotInsert (also one that finds its key present)
// each descend the tree once: `height` node reads.
TEST_F(IotCallbackTest, UpsertAndDeleteTakeOneDescent) {
  std::vector<Row> rows;
  for (int64_t rid = 0; rid < 20000; ++rid) rows.push_back(Posting("t", rid));
  Iot* iot = *catalog_.GetIot("p");
  ASSERT_TRUE(iot->BulkLoad(std::move(rows)).ok());
  const uint64_t height = 3;  // 20,000 rows, 56 to a leaf
  Transaction txn(1);
  GuardedServerContext ctx(&catalog_, &txn, CallbackMode::kMaintenance);
  EXPECT_EQ(NodesReadBy([&] {
              ASSERT_TRUE(ctx.IotUpsert("p", Posting("t", 5, 9)).ok());
            }),
            height);  // replaces
  EXPECT_EQ(NodesReadBy([&] {
              ASSERT_TRUE(ctx.IotUpsert("p", Posting("u", 1)).ok());
            }),
            height);  // inserts
  EXPECT_EQ(NodesReadBy([&] {
              ASSERT_TRUE(
                  ctx.IotDelete("p", {Value::Varchar("t"), Value::Integer(7)})
                      .ok());
            }),
            height);
  EXPECT_EQ(NodesReadBy([&] {
              ASSERT_TRUE(ctx.IotInsert("p", Posting("u", 2)).ok());
            }),
            height);
  EXPECT_EQ(NodesReadBy([&] {
              EXPECT_EQ(ctx.IotInsert("p", Posting("t", 8)).code(),
                        StatusCode::kAlreadyExists);
            }),
            height);
  // Undo restores the replaced row and the deleted one, and drops the new
  // ones.
  txn.RunUndo();
  EXPECT_EQ((*ctx.IotGet("p", {Value::Varchar("t"), Value::Integer(5)}))[2]
                .AsInteger(),
            1);
  EXPECT_TRUE(ctx.IotGet("p", {Value::Varchar("t"), Value::Integer(7)}).ok());
  EXPECT_FALSE(ctx.IotGet("p", {Value::Varchar("u"), Value::Integer(1)}).ok());
  EXPECT_FALSE(ctx.IotGet("p", {Value::Varchar("u"), Value::Integer(2)}).ok());
  EXPECT_EQ(*ctx.IotRowCount("p"), 20000u);
}

// Rejected runs return an error and leave the IOT as it was: unsorted
// or duplicate keys, and a first row the schema rejects or whose key is
// not its run key.  A delete run stopped by a missing key hands back what
// it removed before it.
TEST(IotTest, SortedRunsRejectBadInputAndChangeNothing) {
  Iot iot("iot", PostingSchema(), 2);
  ASSERT_TRUE(iot.BulkLoad({Posting("a", 1), Posting("b", 1)}).ok());
  const std::vector<Row> before = RowsOf(iot);
  const std::vector<std::vector<Row>> bad_rows = {
      {Posting("c", 1), Posting("a", 5)},                         // unsorted
      {Posting("c", 1), Posting("c", 1)},                         // duplicate
      {{Value::Varchar("c"), Value::Integer(1)}, Posting("d", 0)},  // short
      {{Value::Integer(7), Value::Integer(1), Value::Integer(1)},
       Posting("d", 0)},  // wrong type
  };
  for (std::vector<Row> rows : bad_rows) {
    Iot::MergeUndo undo;
    EXPECT_FALSE(UpsertRun(iot, std::move(rows), &undo).ok());
    EXPECT_TRUE(undo.empty());
    ExpectSameRows(RowsOf(iot), before);
  }
  auto key = [](const char* token, int64_t rid) {
    return CompositeKey{Value::Varchar(token), Value::Integer(rid)};
  };
  Iot::MergeUndo undo;
  EXPECT_EQ(iot.MergeSorted(
                {key("a", 0)},
                [](size_t, const Row*) -> Result<std::optional<Row>> {
                  return std::optional<Row>(Posting("a", 9));
                },
                &undo)
                .code(),
            StatusCode::kInvalidArgument);  // the row's key is not the run's
  EXPECT_TRUE(undo.empty());
  const std::vector<std::vector<CompositeKey>> bad_keys = {
      {key("b", 1), key("a", 1)},  // unsorted
      {key("a", 1), key("a", 1)},  // duplicate
  };
  for (const std::vector<CompositeKey>& keys : bad_keys) {
    EXPECT_EQ(iot.MergeSorted(keys, Remove, nullptr).code(),
              StatusCode::kInvalidArgument);
    ExpectSameRows(RowsOf(iot), before);
  }
  EXPECT_EQ(
      iot.MergeSorted({key("a", 1), key("a", 2), key("b", 1)}, Remove, &undo)
          .code(),
      StatusCode::kNotFound);
  ASSERT_EQ(undo.replaced.size(), 1u);
  EXPECT_EQ(CompareKeys(undo.replaced[0], Posting("a", 1)), 0);
  EXPECT_EQ(iot.row_count(), 1u);
}

// A row the schema rejects part way through a run ends the run there: the
// keys before it stay changed and are in the undo record, and reverting
// it restores the IOT exactly.
TEST(IotTest, SchemaErrorEndsARunAndItsUndoRestoresTheIot) {
  Iot iot("iot", PostingSchema(), 2);
  ASSERT_TRUE(iot.BulkLoad({Posting("a", 1), Posting("b", 1)}).ok());
  const std::vector<Row> before = RowsOf(iot);
  Iot::MergeUndo undo;
  EXPECT_EQ(UpsertRun(iot,
                      {Posting("a", 0), Posting("a", 1, 5),
                       {Value::Varchar("c"), Value::Integer(1)},
                       Posting("d", 1)},
                      &undo)
                .code(),
            StatusCode::kTypeMismatch);
  ExpectSameRows(undo.added, {PostingKey("a", 0)});
  ExpectSameRows(undo.replaced, {Posting("a", 1)});
  EXPECT_EQ((*iot.Get(PostingKey("a", 1)))[2].AsInteger(), 5);
  EXPECT_FALSE(iot.Get(PostingKey("d", 1)).ok());
  iot.Revert(std::move(undo));
  ExpectSameRows(RowsOf(iot), before);
}

// A delete run that empties whole leaves leaves them on the leaf chain: a
// range scan steps over them, reading each one, and returns exactly the
// rows that are left on either side.
TEST(IotTest, ScanRangeStepsOverLeavesADeleteRunEmptied) {
  Iot iot("iot", PostingSchema(), 2);
  std::vector<Row> rows;
  for (int64_t rid = 0; rid < 1000; ++rid) rows.push_back(Posting("t", rid));
  ASSERT_TRUE(iot.BulkLoad(std::move(rows)).ok());
  // 18 leaves under one root, the first ten of 56 rows: rids 56 .. 279
  // are exactly leaves 1 to 4.
  std::vector<CompositeKey> keys;
  for (int64_t rid = 56; rid < 280; ++rid) {
    keys.push_back({Value::Varchar("t"), Value::Integer(rid)});
  }
  ASSERT_TRUE(iot.MergeSorted(keys, Remove, nullptr).ok());
  const CompositeKey lo{Value::Varchar("t"), Value::Integer(40)};
  const CompositeKey hi{Value::Varchar("t"), Value::Integer(300)};
  std::vector<int64_t> rids;
  // The root, the first leaf, the four empty leaves, and the leaf holding
  // rids 280 .. 335.
  EXPECT_EQ(NodesReadBy([&] {
              iot.ScanRange(&lo, true, &hi, true, [&rids](const Row& row) {
                rids.push_back(row[1].AsInteger());
                return true;
              });
            }),
            2u + 4u + 1u);
  std::vector<int64_t> expected;
  for (int64_t rid = 40; rid < 56; ++rid) expected.push_back(rid);
  for (int64_t rid = 280; rid <= 300; ++rid) expected.push_back(rid);
  EXPECT_EQ(rids, expected);
  EXPECT_EQ(RowsOf(iot).size(), 1000u - keys.size());
}

// A run is one mode check, one fail-point hit and one undo entry, and
// undoing it restores the IOT exactly, also after a delete run that a
// missing key stopped part way.
TEST_F(IotCallbackTest, SortedRunsLogOneUndoEntryAndFireOnce) {
  Iot* iot = *catalog_.GetIot("p");
  ASSERT_TRUE(
      iot->BulkLoad({Posting("a", 1), Posting("b", 1), Posting("c", 1)})
          .ok());
  const std::vector<Row> before = RowsOf(*iot);
  FailPointRegistry& failpoints = FailPointRegistry::Global();
  Transaction txn(1);
  GuardedServerContext ctx(&catalog_, &txn, CallbackMode::kMaintenance);
  const uint64_t merges = failpoints.Hits("callback/iot_merge");
  std::vector<Row> rows = {Posting("a", 2), Posting("b", 1, 7),
                           Posting("d", 1)};
  ASSERT_TRUE(ctx.IotMergeSorted("p", KeysOf(rows), Store(rows)).ok());
  EXPECT_EQ(failpoints.Hits("callback/iot_merge") - merges, 1u);
  EXPECT_EQ(txn.undo_depth(), 1u);
  EXPECT_EQ((*ctx.IotGet("p", {Value::Varchar("b"), Value::Integer(1)}))[2]
                .AsInteger(),
            7);
  EXPECT_EQ(ctx.IotMergeSorted("p",
                               {{Value::Varchar("a"), Value::Integer(1)},
                                {Value::Varchar("a"), Value::Integer(2)},
                                {Value::Varchar("z"), Value::Integer(1)}},
                               Remove)
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(failpoints.Hits("callback/iot_merge") - merges, 2u);
  EXPECT_EQ(txn.undo_depth(), 2u);
  EXPECT_EQ(*ctx.IotRowCount("p"), 3u);  // b, c, d
  txn.RunUndo();
  ExpectSameRows(RowsOf(*iot), before);
}

TEST_F(IotCallbackTest, SortedRunsAreDmlCallbacks) {
  const CompositeKey a1 = {Value::Varchar("a"), Value::Integer(1)};
  std::vector<Row> rows = {Posting("a", 1)};
  GuardedServerContext scan(&catalog_, nullptr, CallbackMode::kScan);
  EXPECT_EQ(scan.IotMergeSorted("p", {a1}, Store(rows)).code(),
            StatusCode::kCallbackViolation);
  for (CallbackMode mode :
       {CallbackMode::kDefinition, CallbackMode::kMaintenance}) {
    GuardedServerContext ctx(&catalog_, nullptr, mode);
    rows = {Posting("a", 1)};
    EXPECT_TRUE(ctx.IotMergeSorted("p", {a1}, Store(rows)).ok());
    EXPECT_TRUE(ctx.IotMergeSorted("p", {a1}, Remove).ok());
  }
}

// The guard with ServerContext's default IotMergeSorted, which loops
// IotGet / IotUpsert / IotDelete, as a decorating context gets it.
class PerKeyMergeContext : public GuardedServerContext {
 public:
  using GuardedServerContext::GuardedServerContext;
  Status IotMergeSorted(const std::string& name,
                        const std::vector<CompositeKey>& keys,
                        RowMerge merge) override {
    return ServerContext::IotMergeSorted(name, keys, merge);
  }
};

// The default IotMergeSorted leaves the rows the guard's one-walk run
// leaves, and its per-key undo entries restore them as the run's one
// entry does.
TEST(IotCallbackDefaultTest, DefaultMergeMatchesTheGuardsRun) {
  std::vector<Row> after[2];
  for (int per_key = 0; per_key < 2; ++per_key) {
    Catalog catalog;
    GuardedServerContext ddl(&catalog, nullptr, CallbackMode::kDefinition);
    ASSERT_TRUE(ddl.CreateIot("p", PostingSchema(), 2).ok());
    std::vector<Row> rows;
    for (int64_t rid = 0; rid < 300; rid += 2) {
      rows.push_back(Posting("t", rid));
    }
    ASSERT_TRUE(ddl.IotBulkLoad("p", std::move(rows)).ok());
    const std::vector<Row> before = RowsOf(**catalog.GetIot("p"));
    Transaction txn(1);
    std::unique_ptr<GuardedServerContext> ctx =
        per_key ? std::make_unique<PerKeyMergeContext>(
                      &catalog, &txn, CallbackMode::kMaintenance)
                : std::make_unique<GuardedServerContext>(
                      &catalog, &txn, CallbackMode::kMaintenance);
    // Every third rid: present rids divisible by 12 get freq 2, the other
    // present ones are deleted, and absent ones are added.
    std::vector<CompositeKey> keys;
    for (int64_t rid = 0; rid < 300; rid += 3) {
      keys.push_back(PostingKey("t", rid));
    }
    ASSERT_TRUE(
        ctx->IotMergeSorted(
               "p", keys,
               [&](size_t i, const Row* current) -> Result<std::optional<Row>> {
                 const int64_t rid = keys[i][1].AsInteger();
                 if (current == nullptr) {
                   return std::optional<Row>(Posting("t", rid, 3));
                 }
                 if (rid % 12 == 0) {
                   return std::optional<Row>(Posting("t", rid, 2));
                 }
                 return std::optional<Row>();
               })
            .ok());
    after[per_key] = RowsOf(**catalog.GetIot("p"));
    txn.RunUndo();
    ExpectSameRows(RowsOf(**catalog.GetIot("p")), before);
  }
  EXPECT_EQ(after[0].size(), 150u - 25u + 50u);
  ExpectSameRows(after[1], after[0]);
}

TEST(IotTest, RangeScanBounds) {
  Schema schema;
  schema.AddColumn(Column{"k", DataType::Integer(), true});
  Iot iot("iot", schema, 1);
  for (int64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(iot.Insert({Value::Integer(i)}).ok());
  }
  CompositeKey lo = IntKey(5);
  CompositeKey hi = IntKey(10);
  int count = 0;
  iot.ScanRange(&lo, false, &hi, true, [&count](const Row&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 5);  // (5, 10]
  count = 0;
  iot.ScanRange(nullptr, true, &lo, false, [&count](const Row&) {
    ++count;
    return true;
  });
  EXPECT_EQ(count, 5);  // [0, 5)
}

}  // namespace
}  // namespace exi
