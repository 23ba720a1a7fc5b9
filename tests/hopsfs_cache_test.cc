// The inode hint cache, keyed by inode primary key (parent id, name): chain
// lookups that follow ids from the root, hit/miss accounting, LRU eviction
// edges, and single-entry invalidation.
#include <gtest/gtest.h>

#include <string>
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

}  // namespace
}  // namespace hops::fs
