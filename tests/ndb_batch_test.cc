// The batched read/write path: partition grouping and single-round-trip
// cost accounting, read-your-writes inside a batch, global lock ordering
// (deadlock freedom under concurrent batches), failure behavior when a
// partition's whole node group is down, and concurrent transactions each
// flushing their own pipelined windows: isolation between them, errors and
// lock-wait timeouts that stay with their own transaction, and exact trip
// accounting across many threads. Every case but the lock-wait timeout runs
// on both engines.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "kv/kv.h"

namespace hops::kv {
namespace {

class NdbBatchTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    EngineConfig config;
    config.num_datanodes = 4;
    config.replication = 2;
    config.partitions_per_table = 8;
    config.lock_wait_timeout = std::chrono::milliseconds(400);
    cluster_ = MakeEngine(GetParam(), config);
    Schema s;
    s.table_name = "inodes";
    s.columns = {{"parent", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"id", ColumnType::kInt64}};
    s.primary_key = {0, 1};
    s.partition_key = {0};
    table_ = *cluster_->CreateTable(s);
    Schema s2;
    s2.table_name = "blocks";
    s2.columns = {{"inode", ColumnType::kInt64}, {"block", ColumnType::kInt64}};
    s2.primary_key = {0, 1};
    s2.partition_key = {0};
    blocks_ = *cluster_->CreateTable(s2);
  }

  void MustInsert(int64_t parent, const std::string& name, int64_t id) {
    auto tx = cluster_->Begin();
    ASSERT_TRUE(tx->Insert(table_, Row{parent, name, id}).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }

  std::unique_ptr<Engine> cluster_;
  TableId table_ = 0;
  TableId blocks_ = 0;
};

TEST_P(NdbBatchTest, GroupsKeysByPartitionInOneRoundTrip) {
  for (int64_t p = 0; p < 16; ++p) MustInsert(p, "f", p * 10);
  auto tx = cluster_->Begin();
  tx->EnableTrace();
  std::vector<Key> keys;
  for (int64_t p = 0; p < 16; ++p) keys.push_back({p, "f"});
  auto before = cluster_->StatsSnapshot();
  auto res = tx->BatchRead(table_, keys, LockMode::kReadCommitted);
  ASSERT_TRUE(res.ok());
  auto after = cluster_->StatsSnapshot();

  // One batch, one simulated round trip, however many keys.
  EXPECT_EQ(after.batch_reads - before.batch_reads, 1u);
  EXPECT_EQ(after.round_trips - before.round_trips, 1u);
  EXPECT_EQ(tx->trace().TotalRoundTrips(), 1u);
  EXPECT_EQ(tx->trace().TotalRows(), 16u);
  // Keys collapse onto their partitions: at most one PartTouch per partition
  // and at most partitions_per_table of them for 16 distinct parents.
  ASSERT_EQ(tx->trace().accesses.size(), 1u);
  const Access& a = tx->trace().accesses[0];
  EXPECT_EQ(a.kind, AccessKind::kBatchRead);
  EXPECT_LE(a.parts.size(), 8u);
  std::set<uint32_t> parts;
  uint32_t rows = 0;
  for (const auto& pt : a.parts) {
    EXPECT_TRUE(parts.insert(pt.partition).second) << "partition listed twice";
    rows += pt.rows;
  }
  EXPECT_EQ(rows, 16u);
}

TEST_P(NdbBatchTest, MixedGetAndScanBatchIsOneRoundTrip) {
  MustInsert(1, "a", 10);
  {
    auto tx = cluster_->Begin();
    ASSERT_TRUE(tx->Insert(blocks_, Row{int64_t{10}, int64_t{1}}).ok());
    ASSERT_TRUE(tx->Insert(blocks_, Row{int64_t{10}, int64_t{2}}).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  auto tx = cluster_->Begin();
  tx->EnableTrace();
  ReadBatch batch;
  size_t get_slot = batch.Get(table_, {int64_t{1}, "a"});
  size_t scan_slot = batch.Scan(blocks_, {int64_t{10}});
  ASSERT_TRUE(tx->Execute(batch).ok());
  ASSERT_TRUE(batch.row(get_slot).has_value());
  EXPECT_EQ((*batch.row(get_slot))[2].i64(), 10);
  EXPECT_EQ(batch.rows(scan_slot).size(), 2u);
  EXPECT_EQ(tx->trace().TotalRoundTrips(), 1u)
      << "a cross-table batch still costs one round trip";
}

// A background (intent-apply) transaction's batched accesses are marked
// background in the cost trace like its per-row ones: the replay splits an
// op's latency at the first background access.
TEST_P(NdbBatchTest, BackgroundFlagReachesBatchedAccesses) {
  MustInsert(1, "a", 10);
  auto tx = cluster_->Begin();
  tx->EnableTrace();
  tx->SetBackground(true);
  ReadBatch rb;
  rb.Get(table_, {int64_t{1}, "a"});
  rb.Scan(table_, {int64_t{1}});
  ASSERT_TRUE(tx->Execute(rb).ok());
  WriteBatch wb;
  wb.Write(table_, Row{int64_t{2}, "b", int64_t{20}});
  ASSERT_TRUE(tx->Execute(wb).ok());
  ASSERT_TRUE(tx->Commit().ok());
  ASSERT_GE(tx->trace().accesses.size(), 3u);
  for (const Access& a : tx->trace().accesses) {
    EXPECT_TRUE(a.background) << "access kind " << static_cast<int>(a.kind);
  }
}

TEST_P(NdbBatchTest, BatchSeesOwnStagedWrites) {
  MustInsert(1, "keep", 1);
  MustInsert(1, "gone", 2);
  auto tx = cluster_->Begin();
  ASSERT_TRUE(tx->Insert(table_, Row{int64_t{1}, "new", int64_t{3}}).ok());
  ASSERT_TRUE(tx->Delete(table_, {int64_t{1}, "gone"}).ok());
  ReadBatch batch;
  size_t keep = batch.Get(table_, {int64_t{1}, "keep"});
  size_t gone = batch.Get(table_, {int64_t{1}, "gone"});
  size_t fresh = batch.Get(table_, {int64_t{1}, "new"});
  size_t scan = batch.Scan(table_, {int64_t{1}});
  ASSERT_TRUE(tx->Execute(batch).ok());
  EXPECT_TRUE(batch.row(keep).has_value());
  EXPECT_FALSE(batch.row(gone).has_value()) << "own staged delete must hide the row";
  ASSERT_TRUE(batch.row(fresh).has_value()) << "own staged insert must be visible";
  EXPECT_EQ((*batch.row(fresh))[2].i64(), 3);
  EXPECT_EQ(batch.rows(scan).size(), 2u) << "scan overlays the staged writes";
}

TEST_P(NdbBatchTest, ExecuteTwiceIsRejected) {
  MustInsert(1, "a", 10);
  auto tx = cluster_->Begin();
  ReadBatch batch;
  batch.Get(table_, {int64_t{1}, "a"});
  ASSERT_TRUE(tx->Execute(batch).ok());
  EXPECT_EQ(tx->Execute(batch).code(), hops::StatusCode::kInvalidArgument);
}

TEST_P(NdbBatchTest, ConcurrentOpposedBatchesDoNotDeadlock) {
  // Two transactions lock the same 8 rows, staged in opposite orders. With
  // per-op acquisition this interleaving deadlocks (resolved only by the
  // lock-wait timeout); the batch's global (table, partition, key) order
  // makes one batch simply queue behind the other.
  constexpr int kRows = 8;
  constexpr int kIters = 25;
  for (int64_t i = 0; i < kRows; ++i) MustInsert(i, "r", i);
  std::atomic<int> failures{0};
  auto worker = [&](bool reversed) {
    for (int it = 0; it < kIters; ++it) {
      auto tx = cluster_->Begin();
      std::vector<Key> keys;
      for (int64_t i = 0; i < kRows; ++i) {
        int64_t p = reversed ? kRows - 1 - i : i;
        keys.push_back({p, "r"});
      }
      auto res = tx->BatchRead(table_, keys, LockMode::kExclusive);
      if (!res.ok() || !tx->Commit().ok()) failures++;
    }
  };
  std::thread t1(worker, false);
  std::thread t2(worker, true);
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0) << "opposed batches should serialize, not time out";
  EXPECT_EQ(cluster_->StatsSnapshot().lock_timeouts, 0u);
}

TEST_P(NdbBatchTest, UnlockRowReleasesADiscardedBatchLock) {
  MustInsert(1, "a", 10);
  auto tx = cluster_->Begin();
  ReadBatch batch;
  batch.Get(table_, {int64_t{1}, "a"}, LockMode::kExclusive);
  ASSERT_TRUE(tx->Execute(batch).ok());
  // Caller decides the value is stale and discards it.
  tx->UnlockRow(table_, {int64_t{1}, "a"});
  // Another transaction can now lock the row without waiting out the first.
  auto other = cluster_->Begin();
  auto row = other->Read(table_, {int64_t{1}, "a"}, LockMode::kExclusive);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(cluster_->StatsSnapshot().lock_timeouts, 0u);
  // Unlocking a row with a staged write is refused.
  ASSERT_TRUE(tx->Insert(table_, Row{int64_t{2}, "w", int64_t{1}}).ok());
  tx->UnlockRow(table_, {int64_t{2}, "w"});
  auto blocked = cluster_->Begin();
  auto res = blocked->Read(table_, {int64_t{2}, "w"}, LockMode::kExclusive);
  EXPECT_FALSE(res.ok()) << "the staged write's lock must survive UnlockRow";
}

TEST_P(NdbBatchTest, WriteBatchStagesAtomicallyAndCountsOneRoundTrip) {
  MustInsert(1, "old", 1);
  MustInsert(1, "dead", 2);
  auto tx = cluster_->Begin();
  tx->EnableTrace();
  WriteBatch writes;
  writes.Insert(table_, Row{int64_t{2}, "new", int64_t{3}});
  writes.Update(table_, Row{int64_t{1}, "old", int64_t{11}});
  writes.Delete(table_, {int64_t{1}, "dead"});
  writes.DeleteIfExists(table_, {int64_t{9}, "absent"});
  ASSERT_TRUE(tx->Execute(writes).ok());
  EXPECT_EQ(tx->trace().TotalRoundTrips(), 1u)
      << "the whole write batch acquires its locks in one trip";

  // Nothing visible to others until commit.
  {
    auto peek = cluster_->Begin();
    EXPECT_FALSE(peek->Read(table_, {int64_t{2}, "new"}, LockMode::kReadCommitted).ok());
  }
  ASSERT_TRUE(tx->Commit().ok());
  auto check = cluster_->Begin();
  ASSERT_TRUE(check->Read(table_, {int64_t{2}, "new"}, LockMode::kReadCommitted).ok());
  auto updated = check->Read(table_, {int64_t{1}, "old"}, LockMode::kReadCommitted);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ((*updated)[2].i64(), 11);
  EXPECT_FALSE(check->Read(table_, {int64_t{1}, "dead"}, LockMode::kReadCommitted).ok());
}

TEST_P(NdbBatchTest, WriteBatchValidatesLikeIndividualOps) {
  MustInsert(1, "a", 1);
  {
    auto tx = cluster_->Begin();
    WriteBatch writes;
    writes.Insert(table_, Row{int64_t{1}, "a", int64_t{9}});
    EXPECT_EQ(tx->Execute(writes).code(), hops::StatusCode::kAlreadyExists);
  }
  {
    auto tx = cluster_->Begin();
    WriteBatch writes;
    writes.Update(table_, Row{int64_t{7}, "missing", int64_t{9}});
    EXPECT_EQ(tx->Execute(writes).code(), hops::StatusCode::kNotFound);
  }
  {
    auto tx = cluster_->Begin();
    WriteBatch writes;
    writes.Delete(table_, {int64_t{7}, "missing"});
    EXPECT_EQ(tx->Execute(writes).code(), hops::StatusCode::kNotFound);
  }
}

TEST_P(NdbBatchTest, BatchFailsWhenNodeGroupIsDown) {
  for (int64_t p = 0; p < 32; ++p) MustInsert(p, "f", p);
  // 4 datanodes, replication 2 => groups {0,1} and {2,3}. Killing both
  // members of group 0 takes down every even-numbered partition.
  cluster_->KillDatanode(0);
  cluster_->KillDatanode(1);
  ASSERT_FALSE(cluster_->Available());
  auto tx = cluster_->Begin();
  std::vector<Key> keys;
  for (int64_t p = 0; p < 32; ++p) keys.push_back({p, "f"});
  auto res = tx->BatchRead(table_, keys, LockMode::kReadCommitted);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), hops::StatusCode::kUnavailable);
  EXPECT_FALSE(tx->active()) << "an unusable partition aborts the transaction";

  // Restoring the group restores batched reads (a fresh transaction).
  cluster_->RestartDatanode(0);
  auto tx2 = cluster_->Begin();
  auto res2 = tx2->BatchRead(table_, keys, LockMode::kReadCommitted);
  ASSERT_TRUE(res2.ok());
  for (const auto& slot : *res2) EXPECT_TRUE(slot.has_value());
}

// Two transactions with windows in flight at once stay isolated: the
// reader's window sees the committed value, never the writer's staged row,
// while the writer reads its own write through a later window.
TEST_P(NdbBatchTest, ReadYourWritesStaysWithinEachConcurrentTransaction) {
  MustInsert(7, "shared", 1);
  auto writer = cluster_->Begin();
  auto reader = cluster_->Begin();
  WriteBatch wb;
  wb.Write(table_, Row{int64_t{7}, "shared", int64_t{99}});
  ReadBatch rb;
  rb.Get(table_, {int64_t{7}, "shared"});
  auto pw = writer->ExecuteAsync(wb);
  auto pr = reader->ExecuteAsync(rb);
  ASSERT_TRUE(pw.Wait().ok());
  ASSERT_TRUE(pr.Wait().ok());
  ASSERT_TRUE(rb.row(0).has_value());
  EXPECT_EQ((*rb.row(0))[2].i64(), 1)
      << "the reader must see the committed value, not the writer's staged row";

  ReadBatch own;
  own.Get(table_, {int64_t{7}, "shared"});
  ASSERT_TRUE(writer->ExecuteAsync(own).Wait().ok());
  EXPECT_EQ((*own.row(0))[2].i64(), 99);
  ASSERT_TRUE(writer->Commit().ok());

  ReadBatch again;
  again.Get(table_, {int64_t{7}, "shared"});
  ASSERT_TRUE(reader->ExecuteAsync(again).Wait().ok());
  EXPECT_EQ((*again.row(0))[2].i64(), 99) << "visible to everyone after the commit";
  ASSERT_TRUE(reader->Commit().ok());
}

// A failing window poisons only its own transaction; a concurrent healthy
// transaction's window completes and commits.
TEST_P(NdbBatchTest, WindowErrorReachesOnlyItsOwnTransaction) {
  MustInsert(3, "dup", 1);
  MustInsert(4, "f", 4);
  auto bad_tx = cluster_->Begin();
  auto good_tx = cluster_->Begin();
  WriteBatch bad;
  bad.Insert(table_, Row{int64_t{3}, "dup", int64_t{9}});  // collides
  ReadBatch good;
  good.Get(table_, {int64_t{4}, "f"});
  hops::Status bad_st, good_st;
  std::thread tb([&] { bad_st = bad_tx->ExecuteAsync(bad).Wait(); });
  std::thread tg([&] { good_st = good_tx->ExecuteAsync(good).Wait(); });
  tb.join();
  tg.join();

  EXPECT_EQ(bad_st.code(), hops::StatusCode::kAlreadyExists);
  ASSERT_TRUE(good_st.ok()) << good_st.ToString();
  EXPECT_EQ((*good.row(0))[2].i64(), 4);
  EXPECT_EQ(bad_tx->Commit().code(), hops::StatusCode::kAlreadyExists)
      << "the failure stays sticky on the failing transaction";
  EXPECT_TRUE(good_tx->Commit().ok());
}

// A window blocked on a row whose holder never commits reports kLockTimeout
// through its handle and aborts its own transaction; the holder is unharmed.
// 2PL only: OCC takes no row locks, so nothing ever waits for one.
class NdbBatchLockWaitTest : public NdbBatchTest {};

TEST_P(NdbBatchLockWaitTest, LockWaitTimeoutAbortsOnlyTheWaitingTransaction) {
  MustInsert(5, "held", 1);
  auto holder = cluster_->Begin();
  ASSERT_TRUE(holder->Read(table_, {int64_t{5}, "held"}, LockMode::kExclusive).ok());

  auto before = cluster_->StatsSnapshot();
  auto blocked = cluster_->Begin();
  ReadBatch rb;
  rb.Get(table_, {int64_t{5}, "held"}, LockMode::kExclusive);
  EXPECT_EQ(blocked->ExecuteAsync(rb).Wait().code(), hops::StatusCode::kLockTimeout);
  EXPECT_FALSE(blocked->active()) << "the timeout aborts the waiting transaction";
  EXPECT_EQ(cluster_->StatsSnapshot().lock_timeouts - before.lock_timeouts, 1u);
  EXPECT_TRUE(holder->active());
  EXPECT_TRUE(holder->Commit().ok());
}

// N threads x M windows of K batches each, every thread flushing its own
// transaction's windows: each window is one trip, and round_trips +
// overlapped_round_trips stays the sync-equivalent trip count.
TEST_P(NdbBatchTest, ManyThreadsManyWindowsReconcileExactly) {
  constexpr int kTx = 4, kWindows = 3, kBatches = 2;
  for (int64_t p = 0; p < 8; ++p) MustInsert(p, "f", p);
  auto before = cluster_->StatsSnapshot();
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kTx; ++t) {
    threads.emplace_back([&, t] {
      auto tx = cluster_->Begin();
      for (int w = 0; w < kWindows; ++w) {
        std::vector<ReadBatch> batches(kBatches);
        std::vector<Pending> pending;
        for (int b = 0; b < kBatches; ++b) {
          batches[static_cast<size_t>(b)].Get(table_, {int64_t{(t + w + b) % 8}, "f"});
          pending.push_back(tx->ExecuteAsync(batches[static_cast<size_t>(b)]));
        }
        for (auto& p : pending) {
          if (!p.Wait().ok()) failures.fetch_add(1);
        }
        for (const auto& b : batches) {
          if (!b.row(0).has_value()) failures.fetch_add(1);
        }
      }
      if (!tx->Commit().ok()) failures.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  auto after = cluster_->StatsSnapshot();
  const uint64_t windows = kTx * kWindows;
  EXPECT_EQ(after.round_trips - before.round_trips, windows);
  EXPECT_EQ((after.round_trips + after.overlapped_round_trips) -
                (before.round_trips + before.overlapped_round_trips),
            windows * kBatches);
  EXPECT_EQ(after.lock_timeouts - before.lock_timeouts, 0u);
}

std::string EngineName(const ::testing::TestParamInfo<EngineKind>& info) {
  return std::string(EngineKindName(info.param));
}

INSTANTIATE_TEST_SUITE_P(Engines, NdbBatchTest,
                         ::testing::Values(EngineKind::kNdb, EngineKind::kOcc), EngineName);
INSTANTIATE_TEST_SUITE_P(Engines, NdbBatchLockWaitTest, ::testing::Values(EngineKind::kNdb),
                         EngineName);

}  // namespace
}  // namespace hops::kv
