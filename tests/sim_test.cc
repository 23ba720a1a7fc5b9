// Discrete-event core sanity (stations obey queueing theory, the RW lock is
// fair and correct) and cluster-model shape checks: HopsFS throughput grows
// with namenodes until the database saturates; HDFS collapses under writes;
// failover behaviour matches §7.6.1.
#include <gtest/gtest.h>

#include "sim/model.h"
#include "workload/trace.h"

namespace hops::sim {
namespace {

TEST(SimulatorTest, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(30, [&] { order.push_back(3); });
  sim.At(10, [&] { order.push_back(1); });
  sim.At(20, [&] { order.push_back(2); });
  sim.Run(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(SimulatorTest, TiesBreakInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.At(5, [&] { order.push_back(1); });
  sim.At(5, [&] { order.push_back(2); });
  sim.Run(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(StationTest, SingleServerSerializes) {
  Simulator sim;
  Station st(&sim, 1, "s");
  std::vector<double> completions;
  for (int i = 0; i < 3; ++i) {
    st.Submit(10, [&] { completions.push_back(sim.now()); });
  }
  sim.Run(1000);
  ASSERT_EQ(completions.size(), 3u);
  EXPECT_DOUBLE_EQ(completions[0], 10);
  EXPECT_DOUBLE_EQ(completions[1], 20);
  EXPECT_DOUBLE_EQ(completions[2], 30);
}

TEST(StationTest, MultiServerParallelism) {
  Simulator sim;
  Station st(&sim, 2, "s");
  std::vector<double> completions;
  for (int i = 0; i < 4; ++i) {
    st.Submit(10, [&] { completions.push_back(sim.now()); });
  }
  sim.Run(1000);
  ASSERT_EQ(completions.size(), 4u);
  EXPECT_DOUBLE_EQ(completions[0], 10);
  EXPECT_DOUBLE_EQ(completions[1], 10);
  EXPECT_DOUBLE_EQ(completions[2], 20);
  EXPECT_DOUBLE_EQ(completions[3], 20);
}

TEST(StationTest, ThroughputMatchesCapacity) {
  // A c-server station with deterministic service s saturates at c/s.
  Simulator sim;
  Station st(&sim, 4, "s");
  // Closed loop: 16 customers resubmitting forever.
  std::function<void()> loop[16];
  for (int i = 0; i < 16; ++i) {
    loop[i] = [&, i] { st.Submit(10, loop[i]); };
    loop[i]();
  }
  sim.Run(100000);  // 0.1 virtual seconds
  double rate = static_cast<double>(st.completed()) / 100000.0;  // per us
  EXPECT_NEAR(rate, 4.0 / 10.0, 0.01);
  EXPECT_NEAR(st.Utilization(), 1.0, 0.02);
}

TEST(RwLockResTest, ReadersShareWritersExclude) {
  Simulator sim;
  RwLockRes lock;
  int readers_in = 0;
  bool writer_in = false;
  lock.AcquireShared([&] { readers_in++; });
  lock.AcquireShared([&] { readers_in++; });
  EXPECT_EQ(readers_in, 2);
  lock.AcquireExclusive([&] { writer_in = true; });
  EXPECT_FALSE(writer_in) << "writer must wait for readers";
  // A reader arriving behind a queued writer must also wait (no starvation).
  int late_reader = 0;
  lock.AcquireShared([&] { late_reader++; });
  EXPECT_EQ(late_reader, 0);
  lock.ReleaseShared();
  lock.ReleaseShared();
  EXPECT_TRUE(writer_in);
  EXPECT_EQ(late_reader, 0);
  lock.ReleaseExclusive();
  EXPECT_EQ(late_reader, 1);
}

TEST(RwLockResTest, BatchGrantsConsecutiveReaders) {
  Simulator sim;
  RwLockRes lock;
  bool w = false;
  lock.AcquireExclusive([&] { w = true; });
  ASSERT_TRUE(w);
  int granted = 0;
  lock.AcquireShared([&] { granted++; });
  lock.AcquireShared([&] { granted++; });
  lock.ReleaseExclusive();
  EXPECT_EQ(granted, 2) << "both waiting readers admitted together";
}

// An overlapped round-trip window (a carrying access plus zero-trip riders,
// the shape the async pipelined engine emits) must cost the max, not the
// sum, of its members' latencies: one network trip, all partitions serving
// in parallel.
TEST(ModelOverlapTest, OverlappedWindowCostsMaxNotSum) {
  Calibration cal;
  auto mix = wl::OpMix::Single(wl::OpType::kRead);

  // Hand-crafted traces; partitions 0 and 1 land on distinct db stations in
  // a 2-node topology, so their service genuinely parallelizes.
  constexpr uint32_t kRows = 100;
  const double service_us = cal.db_access_base_us + kRows * cal.db_row_cpu_us;
  auto make_pools = [&](uint32_t rider_trips) {
    wl::TracePools pools;
    pools.num_partitions = 2;
    wl::OpTrace trace;
    ndb::Access carrier;
    carrier.kind = ndb::AccessKind::kBatchRead;
    carrier.round_trips = 1;
    carrier.parts = {ndb::PartTouch{0, 0, kRows, false}};
    ndb::Access rider;
    rider.kind = ndb::AccessKind::kBatchRead;
    rider.round_trips = rider_trips;
    rider.parts = {ndb::PartTouch{1, 1, kRows, false}};
    trace.accesses = {carrier, rider};
    pools.pools[wl::OpType::kRead] = {trace};
    return pools;
  };

  WorkloadSpec spec;
  spec.mix = &mix;
  spec.num_clients = 1;
  spec.duration_s = 0.05;
  spec.warmup_s = 0;

  auto overlapped_pools = make_pools(/*rider_trips=*/0);
  spec.traces = &overlapped_pools;
  auto overlapped = SimulateHopsFs(HopsTopology{1, 2}, spec, cal);
  auto chained_pools = make_pools(/*rider_trips=*/1);
  spec.traces = &chained_pools;
  auto chained = SimulateHopsFs(HopsTopology{1, 2}, spec, cal);

  // Overlapped: request RTT + NN CPU + one DB RTT + max(service, service),
  // plus the response RTT FinishOp adds.
  const double expect_overlapped =
      2 * cal.client_nn_rtt_us + cal.nn_cpu_per_op_us + cal.nn_db_rtt_us + service_us;
  // Chained: a second DB RTT and the second service in sequence.
  const double expect_chained = expect_overlapped + cal.nn_db_rtt_us + service_us;
  ASSERT_GT(overlapped.ops, 0u);
  ASSERT_GT(chained.ops, 0u);
  EXPECT_NEAR(overlapped.latency_us.Mean(), expect_overlapped, expect_overlapped * 0.05);
  EXPECT_NEAR(chained.latency_us.Mean(), expect_chained, expect_chained * 0.05);
}

// ---------------------------------------------------------------------------
// Cluster-model shape tests (trace-driven; small capture cluster).
// ---------------------------------------------------------------------------

class ModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    hops::fs::MiniClusterOptions options;
    options.db.num_datanodes = 12;
    options.db.replication = 2;
    options.db.partitions_per_table = 48;
    options.num_namenodes = 1;
    options.num_datanodes = 3;
    cluster_ = MiniCluster::Start(options)->release();
    // A reasonably wide namespace: with only a handful of top-level
    // directories the interior-resolution traffic concentrates on a few
    // partitions and the model (correctly) shows that skew instead of the
    // paper's uniform load.
    wl::NamespaceShape shape;
    shape.top_level_dirs = 16;
    ns_ = new wl::GeneratedNamespace(wl::PlanNamespace(shape, 2000, 11));
    wl::BulkLoader loader(&cluster_->db(), &cluster_->schema(), &cluster_->fs_config());
    ASSERT_TRUE(loader.Load(*ns_, 1.3, 0, 11).ok());
    auto mix = wl::OpMix::Spotify();
    pools_ = new wl::TracePools(wl::CollectTraces(*cluster_, *ns_, mix, 12, 11));
  }
  static void TearDownTestSuite() {
    delete pools_;
    delete ns_;
    delete cluster_;
  }

  using MiniCluster = hops::fs::MiniCluster;
  static MiniCluster* cluster_;
  static wl::GeneratedNamespace* ns_;
  static wl::TracePools* pools_;
};

ModelTest::MiniCluster* ModelTest::cluster_ = nullptr;
wl::GeneratedNamespace* ModelTest::ns_ = nullptr;
wl::TracePools* ModelTest::pools_ = nullptr;

TEST_F(ModelTest, HopsFsScalesWithNamenodes) {
  auto mix = wl::OpMix::Spotify();
  WorkloadSpec spec;
  spec.mix = &mix;
  spec.traces = pools_;
  spec.duration_s = 0.15;
  spec.warmup_s = 0.05;

  spec.num_clients = 128;
  auto one = SimulateHopsFs(HopsTopology{1, 12}, spec);
  spec.num_clients = 512;
  auto four = SimulateHopsFs(HopsTopology{4, 12}, spec);
  spec.num_clients = 1024;
  auto eight = SimulateHopsFs(HopsTopology{8, 12}, spec);
  EXPECT_GT(four.ops_per_sec, 3.0 * one.ops_per_sec);
  EXPECT_GT(eight.ops_per_sec, 1.7 * four.ops_per_sec);
}

TEST_F(ModelTest, SmallDbCapsThroughput) {
  auto mix = wl::OpMix::Spotify();
  WorkloadSpec spec;
  spec.mix = &mix;
  spec.traces = pools_;
  spec.duration_s = 0.15;
  spec.warmup_s = 0.05;
  spec.num_clients = 2048;
  auto small_db = SimulateHopsFs(HopsTopology{32, 2}, spec);
  auto big_db = SimulateHopsFs(HopsTopology{32, 12}, spec);
  EXPECT_GT(big_db.ops_per_sec, 1.3 * small_db.ops_per_sec)
      << "a 2-node NDB cluster must saturate well below a 12-node one";
  EXPECT_GT(small_db.db_utilization, 0.85) << "the small DB should be the bottleneck";
}

TEST_F(ModelTest, HdfsThroughputCollapsesWithWrites) {
  WorkloadSpec spec;
  spec.duration_s = 0.3;
  spec.warmup_s = 0.05;
  spec.num_clients = 256;
  auto spotify = wl::OpMix::Spotify();
  spec.mix = &spotify;
  auto read_heavy = SimulateHdfs(spec);
  auto writey = wl::OpMix::WriteIntensive(20.0);
  spec.mix = &writey;
  auto write_heavy = SimulateHdfs(spec);
  EXPECT_GT(read_heavy.ops_per_sec, 2.5 * write_heavy.ops_per_sec)
      << "the global lock serializes mutations (Table 2's trend)";
}

TEST_F(ModelTest, HopsFsBeatsHdfsAndFactorGrowsWithWrites) {
  WorkloadSpec spec;
  spec.duration_s = 0.15;
  spec.warmup_s = 0.05;
  spec.traces = pools_;

  auto spotify = wl::OpMix::Spotify();
  spec.mix = &spotify;
  spec.num_clients = 3072;
  auto hops_spotify = SimulateHopsFs(HopsTopology{60, 12}, spec);
  spec.num_clients = 256;
  auto hdfs_spotify = SimulateHdfs(spec);
  double factor_spotify = hops_spotify.ops_per_sec / hdfs_spotify.ops_per_sec;
  EXPECT_GT(factor_spotify, 8) << "paper: 16x for the Spotify workload";

  auto writey = wl::OpMix::WriteIntensive(20.0);
  spec.mix = &writey;
  spec.num_clients = 3072;
  auto hops_writes = SimulateHopsFs(HopsTopology{60, 12}, spec);
  spec.num_clients = 256;
  auto hdfs_writes = SimulateHdfs(spec);
  double factor_writes = hops_writes.ops_per_sec / hdfs_writes.ops_per_sec;
  EXPECT_GT(factor_writes, factor_spotify)
      << "paper: the scaling factor grows with the write share (Table 2)";
}

TEST_F(ModelTest, HdfsFailoverStopsServiceHopsFsDoesNot) {
  auto mix = wl::OpMix::Spotify();
  WorkloadSpec spec;
  spec.mix = &mix;
  spec.traces = pools_;
  spec.num_clients = 256;
  spec.duration_s = 30;
  spec.warmup_s = 0;

  Calibration cal;
  cal.hdfs_failover_s = 9.0;
  auto hdfs = SimulateHdfs(spec, cal, /*kill_active_at_s=*/10, /*timeline_bucket_s=*/1);
  ASSERT_GE(hdfs.timeline_ops_per_sec.size(), 25u);
  EXPECT_GT(hdfs.timeline_ops_per_sec[5], 0);
  double during = hdfs.timeline_ops_per_sec[13];
  EXPECT_LT(during, hdfs.timeline_ops_per_sec[5] * 0.05)
      << "no service during HDFS failover";
  EXPECT_GT(hdfs.timeline_ops_per_sec[25], hdfs.timeline_ops_per_sec[5] * 0.5)
      << "service resumes after the standby takes over";

  std::vector<FailureEvent> failures{{10.0, 1, -1}};
  auto hops = SimulateHopsFs(HopsTopology{4, 12}, spec, cal, failures, 1);
  ASSERT_GE(hops.timeline_ops_per_sec.size(), 25u);
  double before = hops.timeline_ops_per_sec[5];
  double after = hops.timeline_ops_per_sec[13];
  EXPECT_GT(after, before * 0.6) << "HopsFS keeps serving when one namenode dies";
}

TEST_F(ModelTest, LatencyRisesWithClientCount) {
  auto mix = wl::OpMix::Spotify();
  WorkloadSpec spec;
  spec.mix = &mix;
  spec.traces = pools_;
  spec.duration_s = 0.15;
  spec.warmup_s = 0.05;
  HopsTopology topo{8, 12};
  spec.num_clients = 64;
  auto light = SimulateHopsFs(topo, spec);
  spec.num_clients = 4096;
  auto heavy = SimulateHopsFs(topo, spec);
  EXPECT_GT(heavy.latency_us.Mean(), light.latency_us.Mean());
  EXPECT_GT(light.ops, 0u);
  EXPECT_GT(heavy.per_op_latency_us.at(wl::OpType::kRead).count(), 0u);
}

}  // namespace
}  // namespace hops::sim
