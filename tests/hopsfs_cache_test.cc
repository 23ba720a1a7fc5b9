// The inode hint cache, keyed by inode primary key (parent id, name): chain
// lookups that follow ids from the root, hit/miss accounting, CLOCK
// eviction edges, single-entry invalidation, and concurrent use.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "hopsfs/inode_cache.h"
#include "hopsfs/types.h"

namespace hops::fs {
namespace {

std::vector<std::string> P(std::initializer_list<const char*> parts) {
  return std::vector<std::string>(parts.begin(), parts.end());
}

TEST(InodeCacheTest, ChainLookupStopsAtGap) {
  InodeHintCache cache(128);
  cache.Put(kRootInode, "a", 10);
  cache.Put(10, "b", 20);
  cache.Put(99, "c", 30);  // under an inode the chain never reaches
  auto chain = cache.LookupChain(P({"a", "b", "c"}));
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].inode_id, 10);
  EXPECT_EQ(chain[1].inode_id, 20);
}

TEST(InodeCacheTest, FullChainCountsAsHit) {
  InodeHintCache cache(128);
  cache.Put(kRootInode, "a", 10);
  cache.Put(10, "b", 20);
  ASSERT_EQ(cache.LookupChain(P({"a", "b"})).size(), 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.LookupChain(P({"a", "z"})).size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(InodeCacheTest, PeekChainDoesNotCountOrRefresh) {
  InodeHintCache cache(2);
  cache.Put(kRootInode, "a", 10);
  cache.Put(kRootInode, "b", 11);
  ASSERT_EQ(cache.PeekChain(P({"a"})).size(), 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  // The peek did not refresh /a's recency: /a is still the LRU victim.
  cache.Put(kRootInode, "c", 12);
  EXPECT_TRUE(cache.PeekChain(P({"a"})).empty());
  EXPECT_EQ(cache.PeekChain(P({"b"})).size(), 1u);
}

TEST(InodeCacheTest, EraseStalesOnlyThatKey) {
  // A rename of /a to /a2 keeps the directory's id, so /a's entry is the
  // only stale one: its child's entry, keyed by that id, stays valid.
  InodeHintCache cache(128);
  cache.Put(kRootInode, "a", 10);
  cache.Put(10, "b", 20);
  cache.Erase(kRootInode, "a");
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_TRUE(cache.LookupChain(P({"a", "b"})).empty());
  EXPECT_EQ(cache.size(), 1u);
  cache.Put(kRootInode, "a2", 10);
  auto chain = cache.LookupChain(P({"a2", "b"}));
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[1].inode_id, 20);
  // Erasing an absent entry is not an invalidation.
  cache.Erase(kRootInode, "a");
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(InodeCacheTest, RefreshWithoutKindKeepsAKnownKind) {
  InodeHintCache cache(128);
  cache.Put(kRootInode, "d", 10, /*is_dir=*/true);
  cache.Put(kRootInode, "d", 10);  // same inode, kind unknown to the producer
  auto chain = cache.PeekChain(P({"d"}));
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_TRUE(chain[0].is_dir_known);
  EXPECT_TRUE(chain[0].is_dir);
  cache.Put(kRootInode, "d", 11);  // a different inode: the kind is unknown
  chain = cache.PeekChain(P({"d"}));
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_FALSE(chain[0].is_dir_known);
}

TEST(InodeCacheTest, LruEviction) {
  InodeHintCache cache(2);
  cache.Put(kRootInode, "a", 10);
  cache.Put(kRootInode, "b", 11);
  ASSERT_EQ(cache.LookupChain(P({"a"})).size(), 1u);  // touch /a
  cache.Put(kRootInode, "c", 12);                     // evicts /b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.LookupChain(P({"b"})).size(), 0u);
  EXPECT_EQ(cache.LookupChain(P({"a"})).size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(InodeCacheTest, EvictingInteriorKeepsDescendantsAddressable) {
  // Evicting an interior entry only removes that entry; descendants keep
  // theirs and become reachable again once the interior is re-put.
  InodeHintCache cache(3);
  auto deep = P({"a", "b", "c"});
  cache.Put(kRootInode, "a", 10);
  cache.Put(10, "b", 20);
  cache.Put(20, "c", 30);
  // The lookup refreshes a, then b, then c: /a is the least recent.
  ASSERT_EQ(cache.LookupChain(deep).size(), 3u);
  cache.Put(kRootInode, "z", 40);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_TRUE(cache.LookupChain(deep).empty()) << "chain breaks at evicted /a";
  cache.Erase(kRootInode, "z");  // make room so re-putting /a evicts nothing
  cache.Put(kRootInode, "a", 10);
  EXPECT_EQ(cache.LookupChain(deep).size(), 3u);
}

TEST(InodeCacheTest, ZeroCapacityDisables) {
  InodeHintCache cache(0);
  cache.Put(kRootInode, "a", 10);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.LookupChain(P({"a"})).empty());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(InodeCacheTest, ClearDropsEverything) {
  InodeHintCache cache(128);
  cache.Put(kRootInode, "a", 10);
  cache.Put(10, "b", 20);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.LookupChain(P({"a"})).empty());
  cache.Put(kRootInode, "a", 10);
  EXPECT_EQ(cache.LookupChain(P({"a"})).size(), 1u);
}

TEST(InodeCacheTest, UpdateOfExistingHintRefreshesValueAndRecency) {
  InodeHintCache cache(2);
  cache.Put(kRootInode, "a", 10);
  cache.Put(kRootInode, "b", 11);
  cache.Put(kRootInode, "a", 99);  // update + refresh
  cache.Put(kRootInode, "c", 12);  // evicts /b, not /a
  auto chain = cache.LookupChain(P({"a"}));
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0].inode_id, 99);
  EXPECT_TRUE(cache.LookupChain(P({"b"})).empty());
}

TEST(InodeCacheTest, ClockGivesReferencedEntriesASecondChance) {
  InodeHintCache cache(3);
  cache.Put(kRootInode, "a", 10);
  cache.Put(kRootInode, "b", 11);
  cache.Put(kRootInode, "c", 12);
  ASSERT_EQ(cache.LookupChain(P({"a"})).size(), 1u);  // sets /a's bit
  ASSERT_EQ(cache.PeekChain(P({"b"})).size(), 1u);    // leaves /b's bit clear
  cache.Put(kRootInode, "c", 12);                     // unchanged: sets /c's bit
  // The hand clears /a's bit and evicts /b, the first entry left untouched.
  cache.Put(kRootInode, "d", 13);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.PeekChain(P({"b"})).empty());
  EXPECT_EQ(cache.PeekChain(P({"a"})).size(), 1u);
  // The hand resumes at /c: its bit (from the unchanged Put) buys it a
  // second chance, while /a spent its own in the first sweep.
  cache.Put(kRootInode, "e", 14);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_TRUE(cache.PeekChain(P({"a"})).empty());
  EXPECT_EQ(cache.PeekChain(P({"c"})).size(), 1u);
  EXPECT_EQ(cache.PeekChain(P({"d"})).size(), 1u);
  EXPECT_EQ(cache.PeekChain(P({"e"})).size(), 1u);
}

TEST(InodeCacheTest, ConcurrentMixedOpsKeepCapacityAndCounts) {
  // 16 directories x 16 files under the root: 272 keys through a 64-entry
  // cache, so lookups, peeks and unchanged Puts (shared lock) race new
  // keys, changed hints, evictions and erases (exclusive lock).
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  constexpr size_t kCapacity = 64;
  InodeHintCache cache(kCapacity);
  auto dir_id = [](int d) { return InodeId{100} + d; };
  auto file_id = [](int d, int f) { return InodeId{1000} + d * 16 + f; };
  std::atomic<uint64_t> lookups{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(t + 1);
      uint64_t mine = 0;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int d = static_cast<int>(rng() % 16);
        const int f = static_cast<int>(rng() % 16);
        const std::vector<std::string> path = {"d" + std::to_string(d), "f" + std::to_string(f)};
        switch (rng() % 4) {
          case 0:
            cache.LookupChain(path);
            ++mine;
            break;
          case 1:
            cache.PeekChain(path);
            break;
          case 2: {
            cache.Put(kRootInode, path[0], dir_id(d), /*is_dir=*/true);
            // A kind the producer may or may not know: flips some hints.
            std::optional<bool> kind;
            if (rng() % 2 == 0) kind = false;
            cache.Put(dir_id(d), path[1], file_id(d, f), kind);
            break;
          }
          default:
            cache.Erase(dir_id(d), path[1]);
            break;
        }
      }
      lookups.fetch_add(mine);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_LE(cache.size(), kCapacity);
  const InodeHintCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, lookups.load());
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.evictions, 0u);
  // Every surviving hint is one some thread put.
  for (int d = 0; d < 16; ++d) {
    for (int f = 0; f < 16; ++f) {
      auto chain = cache.PeekChain({"d" + std::to_string(d), "f" + std::to_string(f)});
      if (!chain.empty()) {
        EXPECT_EQ(chain[0].inode_id, dir_id(d));
      }
      if (chain.size() == 2) {
        EXPECT_EQ(chain[1].inode_id, file_id(d, f));
        EXPECT_FALSE(chain[1].is_dir);
      }
    }
  }
}

}  // namespace
}  // namespace hops::fs
