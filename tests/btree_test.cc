// Structural tests for the B+-tree backing the transactional store:
// split/merge/underflow invariants, ordered iteration under random
// interleaved insert/erase (cross-checked against std::map), leaf reuse
// under the shape_version() contract, and the NIC-resident node cache
// (LRU, invalidation, capacity-0 baseline, and a differential check
// against a list + hash-map reference LRU).
#include <gtest/gtest.h>

#include <list>
#include <map>
#include <set>
#include <unordered_map>

#include "common/rng.h"
#include "kvstore/btree.h"

namespace lnic::kvstore {
namespace {

void expect_invariants(const BPlusTree& tree) {
  std::string why;
  EXPECT_TRUE(tree.check_invariants(&why)) << why;
}

TEST(BTreeTest, EmptyTree) {
  BPlusTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);
  EXPECT_FALSE(tree.contains(7));
  EXPECT_FALSE(tree.erase(7));
  expect_invariants(tree);
}

TEST(BTreeTest, InsertLookupUpdate) {
  BPlusTree tree(BTreeConfig{4});
  EXPECT_TRUE(tree.put(10, 100));
  EXPECT_TRUE(tree.put(20, 200));
  EXPECT_FALSE(tree.put(10, 111));  // update, not insert
  Value v = 0;
  ASSERT_TRUE(tree.get(10, &v));
  EXPECT_EQ(v, 111u);
  ASSERT_TRUE(tree.get(20, &v));
  EXPECT_EQ(v, 200u);
  EXPECT_EQ(tree.size(), 2u);
  expect_invariants(tree);
}

TEST(BTreeTest, SequentialInsertSplitsAndStaysBalanced) {
  BPlusTree tree(BTreeConfig{4});
  for (Key k = 0; k < 1000; ++k) {
    ASSERT_TRUE(tree.put(k, k * 3));
    if (k % 97 == 0) expect_invariants(tree);
  }
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_GT(tree.height(), 3u);  // order 4 must have split many times
  expect_invariants(tree);
  for (Key k = 0; k < 1000; ++k) {
    Value v = 0;
    ASSERT_TRUE(tree.get(k, &v)) << "key " << k;
    EXPECT_EQ(v, k * 3);
  }
}

TEST(BTreeTest, EraseUnderflowMergesBackToSingleLeaf) {
  BPlusTree tree(BTreeConfig{4});
  for (Key k = 0; k < 300; ++k) tree.put(k, k);
  for (Key k = 0; k < 300; ++k) {
    ASSERT_TRUE(tree.erase(k)) << "key " << k;
    if (k % 37 == 0) expect_invariants(tree);
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1u);  // root collapsed all the way down
  EXPECT_EQ(tree.node_count(), 1u);
  expect_invariants(tree);
}

TEST(BTreeTest, RandomInterleavedAgainstStdMap) {
  BPlusTree tree(BTreeConfig{8});
  std::map<Key, Value> model;
  Rng rng(42);
  for (int step = 0; step < 20000; ++step) {
    const Key k = rng.next_below(512);  // small space forces collisions
    if (rng.next_bool(0.4) && !model.empty()) {
      EXPECT_EQ(tree.erase(k), model.erase(k) > 0);
    } else {
      const Value v = rng.next_u64();
      EXPECT_EQ(tree.put(k, v), model.emplace(k, v).second);
      model[k] = v;
    }
    if (step % 1999 == 0) expect_invariants(tree);
  }
  expect_invariants(tree);
  ASSERT_EQ(tree.size(), model.size());
  // Ordered iteration must match the model exactly.
  std::vector<std::pair<Key, Value>> out;
  tree.scan(0, model.size() + 10, &out);
  ASSERT_EQ(out.size(), model.size());
  auto it = model.begin();
  for (const auto& [k, v] : out) {
    EXPECT_EQ(k, it->first);
    EXPECT_EQ(v, it->second);
    ++it;
  }
}

TEST(BTreeTest, ScanStartsAtLowerBoundAndCrossesLeaves) {
  BPlusTree tree(BTreeConfig{4});
  for (Key k = 0; k < 100; k += 2) tree.put(k, k + 1);
  std::vector<std::pair<Key, Value>> out;
  EXPECT_EQ(tree.scan(11, 5, &out), 5u);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.front().first, 12u);  // first key >= 11
  EXPECT_EQ(out.back().first, 20u);
  out.clear();
  EXPECT_EQ(tree.scan(95, 100, &out), 2u);  // clipped at the end
}

TEST(BTreeTest, PathForReportsRootToLeafOfCurrentHeight) {
  BPlusTree tree(BTreeConfig{4});
  for (Key k = 0; k < 500; ++k) tree.put(k, k);
  std::vector<PageId> path;
  tree.path_for(250, &path);
  EXPECT_EQ(path.size(), tree.height());
  // Scans that span leaves touch strictly more pages.
  std::vector<PageId> spath;
  tree.scan_path(250, 50, &spath);
  EXPECT_GT(spath.size(), path.size());
}

TEST(BTreeTest, DirtyAndFreedPagesAreReported) {
  BPlusTree tree(BTreeConfig{4});
  tree.put(1, 1);
  EXPECT_FALSE(tree.last_dirty().empty());
  // Fill until a split happens: the dirty set must then cover >1 page.
  const std::size_t before = tree.node_count();
  Key next = 2;
  while (tree.node_count() == before) tree.put(next++, next);
  EXPECT_GE(tree.last_dirty().size(), 2u);
  // Drain everything again: merges must report freed pages.
  bool saw_freed = false;
  for (Key k = 1; k < next; ++k) {
    tree.erase(k);
    if (!tree.last_freed().empty()) saw_freed = true;
  }
  EXPECT_TRUE(saw_freed);
  EXPECT_EQ(tree.size(), 0u);
  expect_invariants(tree);
}

// Two trees fed the same puts and erases; `fast` reads and updates
// through captured leaves (get_at/update_at) whenever shape_version()
// says the capture still holds, `slow` always descends (get/put). They
// must agree on every result, every dirty/freed page report and the
// final contents.
TEST(BTreeTest, LeafAccessAgreesWithDescentWhileShapeHolds) {
  BPlusTree fast(BTreeConfig{4});
  BPlusTree slow(BTreeConfig{4});
  struct Capture {
    Key key;
    PageId leaf;
    std::uint64_t version;
  };
  std::vector<Capture> captures;
  Rng rng(2027);
  int reused = 0, stale = 0;
  for (int step = 0; step < 20000; ++step) {
    const Key k = rng.next_below(300);
    const std::uint64_t before = fast.shape_version();
    switch (rng.next_below(4)) {
      case 0: {  // capture: lookups never move the version
        std::vector<PageId> path;
        const PageId leaf = fast.path_for(k, &path);
        ASSERT_EQ(leaf, path.back());
        fast.scan_path(k, 5, &path);
        fast.scan(k, 5, nullptr);
        EXPECT_EQ(fast.get(k, nullptr), fast.get_at(leaf, k, nullptr));
        ASSERT_EQ(fast.shape_version(), before);
        captures.push_back({k, leaf, before});
        if (captures.size() > 8) captures.erase(captures.begin());
        break;
      }
      case 1: {  // put: moves the version only when it inserts
        const Value v = rng.next_u64();
        const bool inserted = fast.put(k, v);
        ASSERT_EQ(slow.put(k, v), inserted);
        ASSERT_EQ(fast.shape_version(), before + (inserted ? 1 : 0));
        break;
      }
      case 2: {  // erase: moves the version only when it removes
        const bool erased = fast.erase(k);
        ASSERT_EQ(slow.erase(k), erased);
        ASSERT_EQ(fast.shape_version(), before + (erased ? 1 : 0));
        break;
      }
      case 3: {  // reuse a capture, the way the store does
        if (captures.empty()) break;
        const Capture c = captures[rng.next_below(captures.size())];
        if (c.version != before) {
          ++stale;
          break;
        }
        ++reused;
        Value got = 0, want = 0;
        ASSERT_EQ(fast.get_at(c.leaf, c.key, &got), slow.get(c.key, &want));
        ASSERT_EQ(got, want);
        const Value v = rng.next_u64();
        if (fast.update_at(c.leaf, c.key, v)) {
          ASSERT_FALSE(slow.put(c.key, v));  // an update, not an insert
          EXPECT_EQ(fast.last_dirty(), std::vector<PageId>{c.leaf});
          EXPECT_EQ(fast.last_dirty(), slow.last_dirty());
          EXPECT_TRUE(fast.last_freed().empty());
        } else {
          ASSERT_FALSE(slow.contains(c.key));
        }
        ASSERT_EQ(fast.shape_version(), before);
        break;
      }
    }
  }
  EXPECT_GT(reused, 100);
  EXPECT_GT(stale, 100);
  expect_invariants(fast);
  std::vector<std::pair<Key, Value>> a, b;
  fast.scan(0, fast.size() + 1, &a);
  slow.scan(0, slow.size() + 1, &b);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------- NodeCache

TEST(NodeCacheTest, HitMissAndLruEviction) {
  NodeCache cache(2);
  EXPECT_FALSE(cache.access(1));  // miss
  cache.insert(1);
  EXPECT_TRUE(cache.access(1));  // hit
  cache.insert(2);
  EXPECT_TRUE(cache.access(1));  // 1 is now MRU
  cache.insert(3);               // evicts 2 (LRU)
  EXPECT_FALSE(cache.resident(2));
  EXPECT_TRUE(cache.resident(1));
  EXPECT_TRUE(cache.resident(3));
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(NodeCacheTest, InvalidateDropsResidentPage) {
  NodeCache cache(4);
  cache.insert(7);
  EXPECT_TRUE(cache.invalidate(7));
  EXPECT_FALSE(cache.resident(7));
  EXPECT_FALSE(cache.invalidate(7));  // second invalidate is a no-op
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(NodeCacheTest, CapacityZeroIsHostBaseline) {
  NodeCache cache(0);
  cache.insert(1);
  EXPECT_FALSE(cache.access(1));  // never resident, always a miss
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_ratio(), 0.0);
}

// A list + hash-map LRU: the reference behaviour the index-array
// NodeCache must reproduce operation for operation.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool access(PageId id) {
    const auto it = map_.find(id);
    if (it == map_.end()) {
      ++stats_.misses;
      return false;
    }
    ++stats_.hits;
    lru_.erase(it->second);
    lru_.push_front(id);
    it->second = lru_.begin();
    return true;
  }
  void insert(PageId id) {
    if (capacity_ == 0 || map_.count(id) != 0) return;
    if (map_.size() >= capacity_) {
      map_.erase(lru_.back());
      lru_.pop_back();
      ++stats_.evictions;
    }
    lru_.push_front(id);
    map_.emplace(id, lru_.begin());
  }
  bool invalidate(PageId id) {
    const auto it = map_.find(id);
    if (it == map_.end()) return false;
    lru_.erase(it->second);
    map_.erase(it);
    ++stats_.invalidations;
    return true;
  }
  bool resident(PageId id) const { return map_.count(id) != 0; }
  std::size_t size() const { return map_.size(); }
  const NodeCacheStats& stats() const { return stats_; }

 private:
  std::size_t capacity_;
  std::list<PageId> lru_;
  std::unordered_map<PageId, std::list<PageId>::iterator> map_;
  NodeCacheStats stats_;
};

TEST(NodeCacheTest, MatchesReferenceLru) {
  for (const std::size_t capacity : {0, 1, 2, 7, 256}) {
    NodeCache cache(capacity);
    ReferenceLru ref(capacity);
    Rng rng(capacity + 1);
    const std::uint64_t pages = 2 * capacity + 8;
    for (int step = 0; step < 30000; ++step) {
      // Mostly a working set around the capacity; now and then a far
      // page, so the index arrays grow mid-trace.
      const PageId id = rng.next_bool(0.01)
                            ? static_cast<PageId>(rng.next_below(5000))
                            : static_cast<PageId>(rng.next_below(pages));
      const std::uint64_t op = rng.next_below(10);
      if (op < 6) {
        const bool hit = cache.access(id);
        ASSERT_EQ(hit, ref.access(id)) << "capacity " << capacity;
        if (!hit) {  // the store's miss path: fetch, then install
          cache.insert(id);
          ref.insert(id);
        }
      } else if (op < 8) {
        cache.insert(id);
        ref.insert(id);
      } else {
        ASSERT_EQ(cache.invalidate(id), ref.invalidate(id));
      }
      ASSERT_EQ(cache.size(), ref.size());
      if (step % 1000 == 0) {
        for (PageId p = 0; p < 5000; ++p) {
          ASSERT_EQ(cache.resident(p), ref.resident(p)) << "page " << p;
        }
      }
    }
    for (PageId p = 0; p < 5000; ++p) {
      ASSERT_EQ(cache.resident(p), ref.resident(p)) << "page " << p;
    }
    EXPECT_EQ(cache.stats().hits, ref.stats().hits);
    EXPECT_EQ(cache.stats().misses, ref.stats().misses);
    EXPECT_EQ(cache.stats().evictions, ref.stats().evictions);
    EXPECT_EQ(cache.stats().invalidations, ref.stats().invalidations);
    if (capacity > 0) {
      EXPECT_GT(cache.stats().evictions, 0u);
    }
  }
}

}  // namespace
}  // namespace lnic::kvstore
