// Order-preserving key encoding: the per-partition primary index depends on
// byte order == tuple order and on prefix containment. Also the shared,
// immutable row type the stores hand out.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "ndb/value.h"

namespace hops::ndb {
namespace {

std::string Enc(const Key& k) { return EncodeKey(k); }

TEST(EncodingTest, IntOrderPreserved) {
  EXPECT_LT(Enc({int64_t{-5}}), Enc({int64_t{-1}}));
  EXPECT_LT(Enc({int64_t{-1}}), Enc({int64_t{0}}));
  EXPECT_LT(Enc({int64_t{0}}), Enc({int64_t{1}}));
  EXPECT_LT(Enc({int64_t{1}}), Enc({int64_t{1000000}}));
  EXPECT_LT(Enc({int64_t{1000000}}), Enc({INT64_MAX}));
  EXPECT_LT(Enc({INT64_MIN}), Enc({int64_t{-1000000}}));
}

TEST(EncodingTest, StringOrderPreserved) {
  EXPECT_LT(Enc({"a"}), Enc({"b"}));
  EXPECT_LT(Enc({"a"}), Enc({"aa"}));
  EXPECT_LT(Enc({"abc"}), Enc({"abd"}));
  EXPECT_LT(Enc({""}), Enc({"a"}));
}

TEST(EncodingTest, EmbeddedNulHandled) {
  std::string with_nul("a\0b", 3);
  EXPECT_LT(Enc({"a"}), Enc({Value(with_nul)}));
  EXPECT_LT(Enc({Value(with_nul)}), Enc({"ab"}));
  EXPECT_NE(Enc({Value(with_nul)}), Enc({"ab"}));
}

TEST(EncodingTest, TupleOrderIsComponentwise) {
  EXPECT_LT(Enc({int64_t{1}, "zzz"}), Enc({int64_t{2}, "aaa"}));
  EXPECT_LT(Enc({int64_t{2}, "aaa"}), Enc({int64_t{2}, "aab"}));
}

TEST(EncodingTest, PrefixContainment) {
  // Encoding of (a) must be a byte prefix of (a, b): prefix scans rely on it.
  std::string parent = Enc({int64_t{42}});
  std::string child1 = Enc({int64_t{42}, "foo"});
  std::string child2 = Enc({int64_t{42}, ""});
  EXPECT_EQ(child1.compare(0, parent.size(), parent), 0);
  EXPECT_EQ(child2.compare(0, parent.size(), parent), 0);
  // A different parent id must not share the prefix.
  std::string other = Enc({int64_t{43}, "foo"});
  EXPECT_NE(other.compare(0, parent.size(), parent), 0);
}

TEST(EncodingTest, DistinctKeysDistinctEncodings) {
  EXPECT_NE(Enc({int64_t{1}, "ab"}), Enc({int64_t{1}, "a"}));
  EXPECT_NE(Enc({"1"}), Enc({int64_t{1}}));
}

TEST(ValueTest, TypeAccessors) {
  Value i(int64_t{7});
  Value s("hello");
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.i64(), 7);
  EXPECT_EQ(s.str(), "hello");
  EXPECT_EQ(i.type(), ColumnType::kInt64);
  EXPECT_EQ(s.type(), ColumnType::kString);
}

TEST(ValueTest, DebugString) {
  Row r{int64_t{1}, "x"};
  EXPECT_EQ(ToDebugString(r), "(1, \"x\")");
}

TEST(RowTest, CopiesShareOneBuffer) {
  Row r{int64_t{1}, "x"};
  Row copy = r;
  Row assigned;
  assigned = copy;
  EXPECT_EQ(&copy[0], &r[0]);
  EXPECT_EQ(&assigned[0], &r[0]);
  EXPECT_TRUE(copy == r);
  EXPECT_EQ(copy[1].str(), "x");
}

TEST(RowTest, MoveEmptiesItsSource) {
  Row r{int64_t{1}, "x"};
  const Value* buffer = &r[0];
  Row moved = std::move(r);
  EXPECT_TRUE(r.empty());  // NOLINT(bugprone-use-after-move): the moved-from state is the point
  EXPECT_EQ(&moved[0], buffer);
  Row assigned;
  assigned = std::move(moved);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(&assigned[0], buffer);
  EXPECT_EQ(assigned.size(), 2u);
}

TEST(RowTest, EmptyRowsAndEquality) {
  Row empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.begin(), empty.end());
  EXPECT_EQ(empty.FootprintBytes(), 0u);
  EXPECT_TRUE(empty == Row{});
  EXPECT_TRUE(Row(std::vector<Value>{}).empty());

  Row a{int64_t{1}, "x"};
  Row b(std::vector<Value>{int64_t{1}, "x"});
  EXPECT_NE(&a[0], &b[0]);
  EXPECT_TRUE(a == b);  // equal values in distinct buffers
  EXPECT_FALSE(a == (Row{int64_t{1}, "y"}));
  EXPECT_FALSE(a == Row{int64_t{1}});
  EXPECT_FALSE(a == empty);
  // The cached footprint is the values' sum: 8 for the int, 1 + 2 for "x".
  EXPECT_EQ(a.FootprintBytes(), 11u);
  EXPECT_EQ(b.FootprintBytes(), a[0].FootprintBytes() + a[1].FootprintBytes());
}

TEST(RowTest, ConcurrentCopiesAndDestructionsOfOneRow) {
  const Row shared{int64_t{7}, std::string(64, 'v')};
  constexpr int kThreads = 4;
  constexpr int kIterations = 100'000;
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        Row copy = shared;
        Row moved = std::move(copy);
        if (moved[0].i64() != 7 || &moved[0] != &shared[0]) bad.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(shared[1].str(), std::string(64, 'v'));
}

}  // namespace
}  // namespace hops::ndb
