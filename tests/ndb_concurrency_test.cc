// Concurrent locking semantics: shared/exclusive compatibility, blocking,
// lock-wait timeout as deadlock resolution, take-and-release quiesce scans,
// and a multi-threaded increment race that only row locks can make correct.
// PartitionReadWriteTest runs on both engines: read-committed readers
// racing one committing writer on the partitions' shared-lock read paths.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "kv/kv.h"
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
          if (!tx->Update(table_, Row{(*row)[0], (*row)[1].i64() + 1}).ok()) continue;
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

// One writer commits updates, deletes and re-inserts while readers run
// read-committed point reads and partition-pruned scans. Each commit writes
// every column of a row from its own version v, so a row assembled from
// two versions (or from a half-applied install) fails RowIsOneVersion.
class PartitionReadWriteTest : public ::testing::TestWithParam<kv::EngineKind> {
 protected:
  static constexpr int64_t kParents = 4;
  static constexpr int64_t kChildren = 8;

  static std::unique_ptr<kv::Engine> NewEngine(kv::EngineKind kind, TableId* table) {
    auto engine = kv::MakeEngine(kind, ClusterConfig{
                                           .num_datanodes = 4,
                                           .replication = 2,
                                           .lock_wait_timeout = std::chrono::milliseconds(500),
                                       });
    Schema s;
    s.table_name = "t";
    s.columns = {{"p", ColumnType::kInt64},
                 {"k", ColumnType::kInt64},
                 {"a", ColumnType::kInt64},
                 {"b", ColumnType::kInt64},
                 {"c", ColumnType::kString}};
    s.primary_key = {0, 1};
    s.partition_key = {0};
    *table = *engine->CreateTable(s);
    return engine;
  }

  // The payload varies in length with v, so updates move data_bytes.
  static std::string Payload(int64_t v) {
    return "v" + std::to_string(v) + std::string(static_cast<size_t>(v % 5), '.');
  }
  static Row MakeRow(int64_t p, int64_t k, int64_t v) {
    return Row{p, k, v, -v, Payload(v)};
  }
  static bool RowIsOneVersion(const Row& row) {
    if (row.size() != 5) return false;
    const int64_t v = row[2].i64();
    return row[3].i64() == -v && row[4].str() == Payload(v);
  }
};

TEST_P(PartitionReadWriteTest, ReadersSeeWholeCommittedRows) {
  TableId table = 0;
  auto engine = NewEngine(GetParam(), &table);
  constexpr int kReaders = 3;
  constexpr int kCommits = 1500;

  // The writer's model of the committed contents: (p, k) -> version.
  std::map<std::pair<int64_t, int64_t>, int64_t> model;
  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::atomic<int> backwards{0};
  std::atomic<int> read_errors{0};
  std::atomic<uint64_t> rows_checked{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937 rng(r + 1);
      // Committed versions never go back: a row's next read carries the
      // same or a newer v (a delete and re-insert writes a newer one).
      std::map<std::pair<int64_t, int64_t>, int64_t> last_seen;
      auto check = [&](const Row& row) {
        if (!RowIsOneVersion(row)) {
          torn.fetch_add(1);
          return;
        }
        int64_t& last = last_seen[{row[0].i64(), row[1].i64()}];
        if (row[2].i64() < last) backwards.fetch_add(1);
        last = row[2].i64();
        rows_checked.fetch_add(1, std::memory_order_relaxed);
      };
      while (!done.load()) {
        auto tx = engine->Begin();
        const int64_t p = static_cast<int64_t>(rng() % kParents);
        const int64_t k = static_cast<int64_t>(rng() % kChildren);
        auto row = tx->Read(table, {p, k}, LockMode::kReadCommitted);
        if (row.ok()) {
          check(*row);
        } else if (row.status().code() != hops::StatusCode::kNotFound) {
          read_errors.fetch_add(1);
        }
        auto scan = tx->Ppis(table, {p});
        if (scan.ok()) {
          for (const Row& scanned : *scan) check(scanned);
        } else {
          read_errors.fetch_add(1);
        }
        if (!tx->Commit().ok()) read_errors.fetch_add(1);
      }
    });
  }

  std::mt19937 rng(99);
  int write_failures = 0;
  for (int64_t v = 1; v <= kCommits; ++v) {
    auto tx = engine->Begin();
    std::map<std::pair<int64_t, int64_t>, int64_t> next = model;
    bool ok = true;
    for (int i = 0; i < 3 && ok; ++i) {
      const int64_t p = static_cast<int64_t>(rng() % kParents);
      const int64_t k = static_cast<int64_t>(rng() % kChildren);
      if (next.count({p, k}) > 0 && next[{p, k}] == v) continue;  // already written by v
      if (next.count({p, k}) == 0) {
        ok = tx->Insert(table, MakeRow(p, k, v)).ok();
        next[{p, k}] = v;
      } else if (rng() % 8 == 0) {
        ok = tx->Delete(table, {p, k}).ok();
        next.erase({p, k});
      } else {
        ok = tx->Update(table, MakeRow(p, k, v)).ok();
        next[{p, k}] = v;
      }
    }
    if (ok && tx->Commit().ok()) {
      model = std::move(next);
    } else {
      ++write_failures;
    }
  }
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(write_failures, 0);
  EXPECT_EQ(torn.load(), 0) << "a read returned a row mixing two versions";
  EXPECT_EQ(backwards.load(), 0) << "a read returned an older version than an earlier one";
  EXPECT_EQ(read_errors.load(), 0);
  EXPECT_GT(rows_checked.load(), 0u);

  // The final contents are exactly the model.
  auto tx = engine->Begin();
  auto all = tx->FullTableScan(table);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), model.size());
  for (const Row& row : *all) {
    auto it = model.find({row[0].i64(), row[1].i64()});
    ASSERT_NE(it, model.end());
    EXPECT_EQ(row, MakeRow(it->first.first, it->first.second, it->second));
  }
  // row_count() and data_bytes() after all that churn match an engine
  // loaded with the final contents in one transaction.
  TableId fresh_table = 0;
  auto fresh = NewEngine(GetParam(), &fresh_table);
  auto load = fresh->Begin();
  for (const auto& [pk, v] : model) {
    ASSERT_TRUE(load->Insert(fresh_table, MakeRow(pk.first, pk.second, v)).ok());
  }
  ASSERT_TRUE(load->Commit().ok());
  EXPECT_EQ(engine->TableRowCount(table), model.size());
  EXPECT_EQ(engine->TableRowCount(table), fresh->TableRowCount(fresh_table));
  EXPECT_EQ(engine->TableMemoryBytes(table), fresh->TableMemoryBytes(fresh_table));
}

std::string EngineName(const ::testing::TestParamInfo<kv::EngineKind>& info) {
  return std::string(kv::EngineKindName(info.param));
}

INSTANTIATE_TEST_SUITE_P(Engines, PartitionReadWriteTest,
                         ::testing::Values(kv::EngineKind::kNdb, kv::EngineKind::kOcc),
                         EngineName);

}  // namespace
}  // namespace hops::ndb
