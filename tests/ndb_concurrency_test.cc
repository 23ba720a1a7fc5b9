// Concurrent locking semantics: shared/exclusive compatibility, blocking,
// lock-wait timeout as deadlock resolution, take-and-release quiesce scans,
// and a multi-threaded increment race that only row locks can make correct.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "ndb/cluster.h"
#include "util/thread_pool.h"

namespace hops::ndb {
namespace {

class NdbConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(ClusterConfig{
        .num_datanodes = 4,
        .replication = 2,
        .lock_wait_timeout = std::chrono::milliseconds(150),
    });
    Schema s;
    s.table_name = "t";
    s.columns = {{"k", ColumnType::kInt64}, {"v", ColumnType::kInt64}};
    s.primary_key = {0};
    s.partition_key = {0};
    table_ = *cluster_->CreateTable(s);
    auto tx = cluster_->Begin();
    for (int64_t k = 0; k < 8; ++k) ASSERT_TRUE(tx->Insert(table_, Row{k, int64_t{0}}).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }

  std::unique_ptr<Cluster> cluster_;
  TableId table_ = 0;
};

TEST_F(NdbConcurrencyTest, SharedLocksAreCompatible) {
  auto tx1 = cluster_->Begin();
  auto tx2 = cluster_->Begin();
  EXPECT_TRUE(tx1->Read(table_, {int64_t{0}}, LockMode::kShared).ok());
  EXPECT_TRUE(tx2->Read(table_, {int64_t{0}}, LockMode::kShared).ok());
}

TEST_F(NdbConcurrencyTest, ExclusiveBlocksShared) {
  auto tx1 = cluster_->Begin();
  ASSERT_TRUE(tx1->Read(table_, {int64_t{0}}, LockMode::kExclusive).ok());
  auto tx2 = cluster_->Begin();
  auto st = tx2->Read(table_, {int64_t{0}}, LockMode::kShared);
  EXPECT_EQ(st.status().code(), hops::StatusCode::kLockTimeout);
}

TEST_F(NdbConcurrencyTest, SharedBlocksExclusive) {
  auto tx1 = cluster_->Begin();
  ASSERT_TRUE(tx1->Read(table_, {int64_t{0}}, LockMode::kShared).ok());
  auto tx2 = cluster_->Begin();
  auto st = tx2->Read(table_, {int64_t{0}}, LockMode::kExclusive);
  EXPECT_EQ(st.status().code(), hops::StatusCode::kLockTimeout);
}

TEST_F(NdbConcurrencyTest, ExclusiveReleasedOnCommitUnblocksWaiter) {
  auto tx1 = cluster_->Begin();
  ASSERT_TRUE(tx1->Read(table_, {int64_t{0}}, LockMode::kExclusive).ok());
  ASSERT_TRUE(tx1->Update(table_, Row{int64_t{0}, int64_t{42}}).ok());

  std::atomic<bool> got_lock{false};
  std::thread waiter([&] {
    auto tx2 = cluster_->Begin();
    auto row = tx2->Read(table_, {int64_t{0}}, LockMode::kShared);
    if (row.ok() && (*row)[1].i64() == 42) got_lock.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(tx1->Commit().ok());
  waiter.join();
  EXPECT_TRUE(got_lock.load()) << "waiter must proceed after commit and see the new value";
}

TEST_F(NdbConcurrencyTest, SoleHolderCanUpgrade) {
  auto tx = cluster_->Begin();
  ASSERT_TRUE(tx->Read(table_, {int64_t{0}}, LockMode::kShared).ok());
  EXPECT_TRUE(tx->Read(table_, {int64_t{0}}, LockMode::kExclusive).ok());
  EXPECT_TRUE(tx->Update(table_, Row{int64_t{0}, int64_t{1}}).ok());
}

TEST_F(NdbConcurrencyTest, ContendedUpgradeTimesOut) {
  // Two shared holders both trying to upgrade is the classic lock-upgrade
  // deadlock the paper re-engineered HDFS operations to avoid (§5); the
  // engine resolves it by timeout.
  auto tx1 = cluster_->Begin();
  auto tx2 = cluster_->Begin();
  ASSERT_TRUE(tx1->Read(table_, {int64_t{0}}, LockMode::kShared).ok());
  ASSERT_TRUE(tx2->Read(table_, {int64_t{0}}, LockMode::kShared).ok());
  auto st = tx1->Read(table_, {int64_t{0}}, LockMode::kExclusive);
  EXPECT_EQ(st.status().code(), hops::StatusCode::kLockTimeout);
  EXPECT_FALSE(tx1->active());
}

TEST_F(NdbConcurrencyTest, CyclicDeadlockResolvedByTimeout) {
  auto tx1 = cluster_->Begin();
  auto tx2 = cluster_->Begin();
  ASSERT_TRUE(tx1->Read(table_, {int64_t{0}}, LockMode::kExclusive).ok());
  ASSERT_TRUE(tx2->Read(table_, {int64_t{1}}, LockMode::kExclusive).ok());

  std::atomic<int> timeouts{0};
  std::thread t1([&] {
    auto st = tx1->Read(table_, {int64_t{1}}, LockMode::kExclusive);
    if (st.status().code() == hops::StatusCode::kLockTimeout) timeouts.fetch_add(1);
  });
  std::thread t2([&] {
    auto st = tx2->Read(table_, {int64_t{0}}, LockMode::kExclusive);
    if (st.status().code() == hops::StatusCode::kLockTimeout) timeouts.fetch_add(1);
  });
  t1.join();
  t2.join();
  EXPECT_GE(timeouts.load(), 1) << "at least one side of the cycle must time out";
  auto stats = cluster_->StatsSnapshot();
  EXPECT_GE(stats.lock_timeouts, 1u);
}

TEST_F(NdbConcurrencyTest, LostUpdatePreventedByExclusiveLocks) {
  // 4 threads x 50 read-modify-write increments on one row. With X locks and
  // retry-on-timeout, all 200 increments must survive.
  constexpr int kThreads = 4;
  constexpr int kIncrements = 50;
  hops::ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&] {
      for (int i = 0; i < kIncrements; ++i) {
        for (;;) {
          auto tx = cluster_->Begin();
          auto row = tx->Read(table_, {int64_t{5}}, LockMode::kExclusive);
          if (!row.ok()) continue;  // timed out: retry
          Row updated = *row;
          updated[1] = updated[1].i64() + 1;
          if (!tx->Update(table_, std::move(updated)).ok()) continue;
          if (tx->Commit().ok()) break;
        }
      }
    });
  }
  pool.Wait();
  auto tx = cluster_->Begin();
  auto row = tx->Read(table_, {int64_t{5}}, LockMode::kReadCommitted);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].i64(), kThreads * kIncrements);
}

TEST_F(NdbConcurrencyTest, TakeAndReleaseWaitsOutWriters) {
  // The subtree-quiesce primitive: a take-and-release X scan must block until
  // the in-flight writer commits, and must leave no locks behind.
  auto writer = cluster_->Begin();
  ASSERT_TRUE(writer->Read(table_, {int64_t{2}}, LockMode::kExclusive).ok());
  ASSERT_TRUE(writer->Update(table_, Row{int64_t{2}, int64_t{7}}).ok());

  std::atomic<bool> scan_done{false};
  std::thread scanner([&] {
    auto tx = cluster_->Begin();
    ScanOptions opts;
    opts.lock = LockMode::kExclusive;
    opts.take_and_release = true;
    auto rows = tx->FullTableScan(table_, opts);
    if (rows.ok()) scan_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(scan_done.load()) << "scan must wait for the writer's X lock";
  ASSERT_TRUE(writer->Commit().ok());
  scanner.join();
  EXPECT_TRUE(scan_done.load());

  // No lock residue: another transaction can take X on everything at once.
  auto tx = cluster_->Begin();
  for (int64_t k = 0; k < 8; ++k) {
    EXPECT_TRUE(tx->Read(table_, {k}, LockMode::kExclusive).ok());
  }
}

TEST_F(NdbConcurrencyTest, LockedScanRereadsRowsChangedWhileWaiting) {
  auto writer = cluster_->Begin();
  ASSERT_TRUE(writer->Read(table_, {int64_t{3}}, LockMode::kExclusive).ok());
  ASSERT_TRUE(writer->Update(table_, Row{int64_t{3}, int64_t{77}}).ok());

  std::atomic<int64_t> seen{-1};
  std::thread scanner([&] {
    auto tx = cluster_->Begin();
    ScanOptions opts;
    opts.lock = LockMode::kShared;
    opts.predicate = [](const Row& r) { return r[0].i64() == 3; };
    auto rows = tx->FullTableScan(table_, opts);
    if (rows.ok() && rows->size() == 1) seen.store((*rows)[0][1].i64());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ASSERT_TRUE(writer->Commit().ok());
  scanner.join();
  EXPECT_EQ(seen.load(), 77) << "locked scan must observe the committed update";
}

TEST_F(NdbConcurrencyTest, ParallelDisjointWritersDontConflict) {
  constexpr int kThreads = 4;
  hops::ThreadPool pool(kThreads);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&, t] {
      for (int i = 0; i < 100; ++i) {
        auto tx = cluster_->Begin();
        int64_t key = 1000 + t * 1000 + i;
        if (!tx->Insert(table_, Row{key, int64_t{t}}).ok() || !tx->Commit().ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(failures.load(), 0);
  auto tx = cluster_->Begin();
  auto rows = tx->FullTableScan(table_);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 8u + 400u);
}

}  // namespace
}  // namespace hops::ndb
