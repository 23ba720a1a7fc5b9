// Path parsing, lock-order comparator, and partition placement rules.
#include <gtest/gtest.h>

#include "hopsfs/partition.h"
#include "hopsfs/path.h"

namespace hops::fs {
namespace {

TEST(PathTest, SplitBasics) {
  auto r = SplitPath("/a/b/c");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitPath("/")->empty());
  auto trailing = SplitPath("/a/b/");
  ASSERT_TRUE(trailing.ok());
  EXPECT_EQ(trailing->size(), 2u);
}

TEST(PathTest, RejectsBadPaths) {
  EXPECT_FALSE(SplitPath("").ok());
  EXPECT_FALSE(SplitPath("a/b").ok());
  EXPECT_FALSE(SplitPath("/a//b").ok());
  EXPECT_FALSE(SplitPath("/a/./b").ok());
  EXPECT_FALSE(SplitPath("/a/../b").ok());
}

TEST(PathTest, JoinRoundTrips) {
  EXPECT_EQ(JoinPath({}), "/");
  EXPECT_EQ(JoinPath({"a"}), "/a");
  EXPECT_EQ(JoinPath({"a", "b"}), "/a/b");
}

TEST(PathTest, PrefixOnComponentBoundaries) {
  EXPECT_TRUE(IsPrefixPath("/a/b", "/a/b/c"));
  EXPECT_TRUE(IsPrefixPath("/a/b", "/a/b"));
  EXPECT_FALSE(IsPrefixPath("/a/b", "/a/bc"));
  EXPECT_TRUE(IsPrefixPath("/", "/anything"));
  EXPECT_FALSE(IsPrefixPath("/a/b/c", "/a/b"));
}

TEST(PathTest, LockOrderIsLeftOrderedDfs) {
  std::vector<std::string> a{"a"};
  std::vector<std::string> ab{"a", "b"};
  std::vector<std::string> ac{"a", "c"};
  std::vector<std::string> b{"b"};
  EXPECT_TRUE(LockOrderLess(a, ab)) << "ancestor before descendant";
  EXPECT_TRUE(LockOrderLess(ab, ac)) << "left sibling first";
  EXPECT_TRUE(LockOrderLess(ac, b)) << "whole left subtree before right sibling";
  EXPECT_FALSE(LockOrderLess(ab, a));
  EXPECT_FALSE(LockOrderLess(a, a));
}

TEST(PartitionTest, DeepInodesPartitionByParent) {
  // depth > random_partition_depth: pv = parent id (co-locates siblings).
  uint64_t pv1 = InodePartitionValue(3, 42, "x", 1);
  uint64_t pv2 = InodePartitionValue(3, 42, "y", 1);
  EXPECT_EQ(pv1, pv2);
  EXPECT_EQ(pv1, 42u);
}

TEST(PartitionTest, TopLevelsPartitionByName) {
  // depth <= random_partition_depth: pv = hash(name) (spreads the hotspot).
  uint64_t pv1 = InodePartitionValue(1, kRootInode, "home", 1);
  uint64_t pv2 = InodePartitionValue(1, kRootInode, "tmp", 1);
  EXPECT_NE(pv1, pv2) << "siblings of the root must scatter";
  EXPECT_EQ(pv1, HashBytes("home"));
}

TEST(PartitionTest, DepthKnobExtendsHashing) {
  EXPECT_EQ(InodePartitionValue(2, 9, "x", 1), 9u);
  EXPECT_EQ(InodePartitionValue(2, 9, "x", 2), HashBytes("x"));
}

TEST(PartitionTest, ChildrenPruning) {
  // random depth 1: children of depth>=1 dirs are pruned, root's are not.
  EXPECT_FALSE(ChildrenArePruned(0, 1));
  EXPECT_TRUE(ChildrenArePruned(1, 1));
  EXPECT_TRUE(ChildrenArePruned(5, 1));
  // random depth 0 disables scattering entirely (ablation).
  EXPECT_TRUE(ChildrenArePruned(0, 0));
}

// The inode hint cache's own suite (chain lookups, LRU, invalidation)
// lives in hopsfs_cache_test.cc.

}  // namespace
}  // namespace hops::fs
