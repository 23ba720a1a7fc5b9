// The async pipelined batch engine: ExecuteAsync/Pending semantics --
// deferred execution, overlapped round-trip windows, the in-flight limit,
// out-of-order completion delivery, read-your-writes across pipelined
// batches, error delivery through handles, and deadlock freedom when two
// transactions each hold several batches in flight. Every case runs on both
// engines.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "kv/kv.h"

namespace hops::kv {
namespace {

class NdbAsyncTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  void SetUp() override {
    EngineConfig config;
    config.num_datanodes = 4;
    config.replication = 2;
    config.partitions_per_table = 8;
    config.lock_wait_timeout = std::chrono::milliseconds(400);
    config.max_in_flight_batches = 4;
    cluster_ = MakeEngine(GetParam(), config);
    Schema s;
    s.table_name = "t";
    s.columns = {{"parent", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"id", ColumnType::kInt64}};
    s.primary_key = {0, 1};
    s.partition_key = {0};
    table_ = *cluster_->CreateTable(s);
  }

  void MustInsert(int64_t parent, const std::string& name, int64_t id) {
    auto tx = cluster_->Begin();
    ASSERT_TRUE(tx->Insert(table_, Row{parent, name, id}).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }

  static ReadBatch MakeGets(TableId table, std::initializer_list<int64_t> parents,
                            LockMode mode = LockMode::kReadCommitted) {
    ReadBatch b;
    for (int64_t p : parents) b.Get(table, {p, "f"}, mode);
    return b;
  }

  std::unique_ptr<Engine> cluster_;
  TableId table_ = 0;
};

TEST_P(NdbAsyncTest, WindowFlushesAsOneOverlappedRoundTrip) {
  for (int64_t p = 0; p < 8; ++p) MustInsert(p, "f", p);
  auto tx = cluster_->Begin();
  tx->EnableTrace();
  ReadBatch b1 = MakeGets(table_, {0, 1});
  ReadBatch b2 = MakeGets(table_, {2, 3});
  ReadBatch b3 = MakeGets(table_, {4, 5});
  auto before = cluster_->StatsSnapshot();
  auto p1 = tx->ExecuteAsync(b1);
  auto p2 = tx->ExecuteAsync(b2);
  auto p3 = tx->ExecuteAsync(b3);
  // Nothing executed yet: preparation is free and results are not ready.
  EXPECT_EQ(tx->InFlightBatches(), 3u);
  EXPECT_FALSE(p1.done());
  EXPECT_EQ(cluster_->StatsSnapshot().round_trips, before.round_trips);

  ASSERT_TRUE(p1.Wait().ok());  // flush point: the whole window executes
  EXPECT_EQ(tx->InFlightBatches(), 0u);
  EXPECT_TRUE(p2.done());
  EXPECT_TRUE(p3.done());
  ASSERT_TRUE(p2.Wait().ok());
  ASSERT_TRUE(p3.Wait().ok());

  auto after = cluster_->StatsSnapshot();
  EXPECT_EQ(after.round_trips - before.round_trips, 1u)
      << "three batches in flight cost ONE overlapped trip, not three";
  EXPECT_EQ(after.overlapped_round_trips - before.overlapped_round_trips, 2u)
      << "the sync path would have paid two more trips";
  EXPECT_EQ(after.batch_reads - before.batch_reads, 3u);
  for (size_t slot = 0; slot < 2; ++slot) {
    EXPECT_TRUE(b1.row(slot).has_value());
    EXPECT_TRUE(b2.row(slot).has_value());
    EXPECT_TRUE(b3.row(slot).has_value());
  }
  EXPECT_EQ((*b3.row(1))[2].i64(), 5);
}

TEST_P(NdbAsyncTest, InFlightLimitForcesAFlush) {
  for (int64_t p = 0; p < 8; ++p) MustInsert(p, "f", p);
  auto tx = cluster_->Begin();
  std::vector<ReadBatch> batches;
  batches.reserve(5);
  std::vector<Pending> pending;
  auto before = cluster_->StatsSnapshot();
  for (int64_t i = 0; i < 5; ++i) {
    batches.push_back(MakeGets(table_, {i}));
    pending.push_back(tx->ExecuteAsync(batches.back()));
    EXPECT_LE(tx->InFlightBatches(), 4u) << "the configured window is never exceeded";
  }
  // The 4th prepare filled the window and flushed it; the 5th started a new
  // window.
  EXPECT_EQ(tx->InFlightBatches(), 1u);
  EXPECT_TRUE(pending[3].done());
  EXPECT_FALSE(pending[4].done());
  EXPECT_EQ(cluster_->StatsSnapshot().round_trips - before.round_trips, 1u);
  for (auto& p : pending) ASSERT_TRUE(p.Wait().ok());
  EXPECT_EQ(cluster_->StatsSnapshot().round_trips - before.round_trips, 2u);
}

TEST_P(NdbAsyncTest, OutOfOrderCompletionDelivery) {
  MustInsert(1, "f", 10);
  MustInsert(2, "f", 20);
  auto tx = cluster_->Begin();
  ReadBatch first = MakeGets(table_, {1});
  ReadBatch second = MakeGets(table_, {2});
  auto p1 = tx->ExecuteAsync(first);
  auto p2 = tx->ExecuteAsync(second);
  // Waiting on the LATER batch first still delivers both results correctly.
  ASSERT_TRUE(p2.Wait().ok());
  ASSERT_TRUE(second.row(0).has_value());
  EXPECT_EQ((*second.row(0))[2].i64(), 20);
  EXPECT_TRUE(p1.done()) << "the earlier batch completed in the same flush";
  ASSERT_TRUE(p1.Wait().ok());
  ASSERT_TRUE(first.row(0).has_value());
  EXPECT_EQ((*first.row(0))[2].i64(), 10);
  // Wait is idempotent.
  EXPECT_TRUE(p1.Wait().ok());
  EXPECT_TRUE(p2.Wait().ok());
}

TEST_P(NdbAsyncTest, ReadYourWritesAcrossPipelinedBatches) {
  MustInsert(1, "old", 1);
  auto tx = cluster_->Begin();
  WriteBatch writes;
  writes.Insert(table_, Row{int64_t{1}, "new", int64_t{42}});
  writes.Delete(table_, {int64_t{1}, "old"});
  auto wp = tx->ExecuteAsync(writes);
  ReadBatch reads;
  size_t fresh = reads.Get(table_, {int64_t{1}, "new"});
  size_t gone = reads.Get(table_, {int64_t{1}, "old"});
  size_t scan = reads.Scan(table_, {int64_t{1}});
  auto rp = tx->ExecuteAsync(reads);
  // One flush runs both: the read batch, prepared after the write batch,
  // observes its staged rows.
  ASSERT_TRUE(rp.Wait().ok());
  ASSERT_TRUE(wp.Wait().ok());
  ASSERT_TRUE(reads.row(fresh).has_value()) << "staged insert visible downstream";
  EXPECT_EQ((*reads.row(fresh))[2].i64(), 42);
  EXPECT_FALSE(reads.row(gone).has_value()) << "staged delete hides the row";
  EXPECT_EQ(reads.rows(scan).size(), 1u);
  ASSERT_TRUE(tx->Commit().ok());
}

TEST_P(NdbAsyncTest, ErrorsDeliverThroughHandles) {
  MustInsert(1, "dup", 1);
  auto tx = cluster_->Begin();
  ReadBatch ok_reads = MakeGets(table_, {1});
  auto p_ok = tx->ExecuteAsync(ok_reads);
  WriteBatch bad;
  bad.Insert(table_, Row{int64_t{1}, "dup", int64_t{9}});  // will collide
  auto p_bad = tx->ExecuteAsync(bad);
  ReadBatch after = MakeGets(table_, {1});
  auto p_after = tx->ExecuteAsync(after);

  // The batch prepared before the failure completed; the failing batch
  // reports its own cause; the one behind it reports the aborted window.
  EXPECT_TRUE(p_ok.Wait().ok());
  EXPECT_EQ(p_bad.Wait().code(), hops::StatusCode::kAlreadyExists);
  EXPECT_EQ(p_after.Wait().code(), hops::StatusCode::kTxAborted);
  // The failed batch is partially staged, so the transaction refuses to
  // commit even though the failure was already observed.
  EXPECT_TRUE(tx->active());
  EXPECT_EQ(tx->Commit().code(), hops::StatusCode::kAlreadyExists);
  EXPECT_FALSE(tx->active());
}

TEST_P(NdbAsyncTest, CommitSurfacesAnUnobservedBatchFailure) {
  MustInsert(1, "dup", 1);
  auto tx = cluster_->Begin();
  WriteBatch bad;
  bad.Insert(table_, Row{int64_t{1}, "dup", int64_t{9}});
  auto p_bad = tx->ExecuteAsync(bad);
  // The caller commits without ever Waiting: the commit-point flush runs the
  // window, surfaces the batch's own error, and aborts the transaction.
  hops::Status st = tx->Commit();
  EXPECT_EQ(st.code(), hops::StatusCode::kAlreadyExists);
  EXPECT_FALSE(tx->active());
  EXPECT_EQ(p_bad.Wait().code(), hops::StatusCode::kAlreadyExists);
}

TEST_P(NdbAsyncTest, CommitIsAFlushPoint) {
  auto tx = cluster_->Begin();
  WriteBatch writes;
  writes.Insert(table_, Row{int64_t{3}, "via-commit", int64_t{7}});
  auto wp = tx->ExecuteAsync(writes);
  EXPECT_FALSE(wp.done());
  ASSERT_TRUE(tx->Commit().ok()) << "commit flushes the window first";
  EXPECT_TRUE(wp.done());
  EXPECT_TRUE(wp.Wait().ok());
  auto check = cluster_->Begin();
  EXPECT_TRUE(check->Read(table_, {int64_t{3}, "via-commit"}, LockMode::kReadCommitted).ok());
}

TEST_P(NdbAsyncTest, SyncOperationsFlushThePipeline) {
  auto tx = cluster_->Begin();
  WriteBatch writes;
  writes.Insert(table_, Row{int64_t{4}, "pipelined", int64_t{1}});
  auto wp = tx->ExecuteAsync(writes);
  // A per-row read is a flush point and observes the batch's staged row.
  auto row = tx->Read(table_, {int64_t{4}, "pipelined"}, LockMode::kReadCommitted);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(wp.done());
  ASSERT_TRUE(tx->Commit().ok());
}

TEST_P(NdbAsyncTest, AbortFailsInFlightBatches) {
  auto tx = cluster_->Begin();
  ReadBatch reads = MakeGets(table_, {1});
  auto p = tx->ExecuteAsync(reads);
  tx->Abort();
  EXPECT_EQ(p.Wait().code(), hops::StatusCode::kTxAborted);
}

// The acceptance scenario: two transactions, each holding several batches in
// flight whose combined lock sets collide in opposite staging orders. The
// flush acquires every window's locks in the global (table, partition, key)
// order ACROSS batches, so the windows queue behind each other instead of
// deadlocking into lock-wait timeouts.
TEST_P(NdbAsyncTest, CrossingInFlightWindowsDoNotDeadlock) {
  constexpr int kRows = 12;
  constexpr int kIters = 25;
  for (int64_t i = 0; i < kRows; ++i) MustInsert(i, "f", i);
  std::atomic<int> failures{0};
  auto worker = [&](bool reversed) {
    for (int it = 0; it < kIters; ++it) {
      auto tx = cluster_->Begin();
      // Three in-flight batches of four X-locked rows each; `reversed`
      // flips both the per-batch staging order and the batch order, so the
      // two transactions want the same rows in opposite sequences.
      std::vector<ReadBatch> batches(3);
      for (int b = 0; b < 3; ++b) {
        for (int k = 0; k < 4; ++k) {
          int64_t row = b * 4 + k;
          if (reversed) row = kRows - 1 - row;
          batches[static_cast<size_t>(b)].Get(table_, {row, "f"}, LockMode::kExclusive);
        }
      }
      std::vector<Pending> pending;
      for (auto& b : batches) pending.push_back(tx->ExecuteAsync(b));
      bool ok = true;
      for (auto& p : pending) ok &= p.Wait().ok();
      if (!ok || !tx->Commit().ok()) failures++;
    }
  };
  std::thread t1(worker, false);
  std::thread t2(worker, true);
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0) << "crossing windows must serialize, not time out";
  EXPECT_EQ(cluster_->StatsSnapshot().lock_timeouts, 0u);
}

TEST_P(NdbAsyncTest, DoubleExecuteIsRejectedThroughTheAsyncPath) {
  MustInsert(1, "f", 1);
  auto tx = cluster_->Begin();
  ReadBatch b = MakeGets(table_, {1});
  ASSERT_TRUE(tx->ExecuteAsync(b).Wait().ok());
  EXPECT_EQ(tx->ExecuteAsync(b).Wait().code(), hops::StatusCode::kInvalidArgument);
}

TEST_P(NdbAsyncTest, EmptyBatchCompletesImmediately) {
  auto tx = cluster_->Begin();
  ReadBatch empty;
  auto p = tx->ExecuteAsync(empty);
  EXPECT_TRUE(p.done());
  EXPECT_TRUE(p.Wait().ok());
  EXPECT_EQ(tx->InFlightBatches(), 0u);
}

std::string EngineName(const ::testing::TestParamInfo<EngineKind>& info) {
  return std::string(EngineKindName(info.param));
}

INSTANTIATE_TEST_SUITE_P(Engines, NdbAsyncTest,
                         ::testing::Values(EngineKind::kNdb, EngineKind::kOcc), EngineName);

}  // namespace
}  // namespace hops::kv
