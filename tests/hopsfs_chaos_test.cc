// Chaos harness tests: the seeded fault injector, fault-plan determinism,
// the crash-point sweep (a namenode dies at EVERY intent-log boundary and
// the replay must be idempotent with no lost ack), the adoption race (two
// would-be leaders adopting a dead namenode's partition concurrently), a
// node-group outage under unapplied intents, the resumed-identity restart
// regression, and the multi-seed smoke run of the full harness with its
// three oracles.
//
// Seeds: HOPS_CHAOS_SEED runs one specific seed (reproducing a CI failure);
// HOPS_CHAOS_LONG=1 widens the sweep for the nightly job.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "chaos/chaos.h"
#include "hopsfs/mini_cluster.h"
#include "ndb/cluster.h"

namespace hops::chaos {
namespace {

using fs::MiniCluster;
using fs::MiniClusterOptions;
using fs::Namenode;

// --- Fault injector ----------------------------------------------------------

class FaultInjectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<ndb::Cluster>(ndb::ClusterConfig{
        .num_datanodes = 2,
        .replication = 2,
    });
    ndb::Schema s;
    s.table_name = "t";
    s.columns = {{"k", ndb::ColumnType::kInt64}, {"v", ndb::ColumnType::kInt64}};
    s.primary_key = {0};
    s.partition_key = {0};
    table_ = *cluster_->CreateTable(s);
    auto tx = cluster_->Begin();
    ASSERT_TRUE(tx->Insert(table_, ndb::Row{int64_t{1}, int64_t{10}}).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }

  std::unique_ptr<ndb::Cluster> cluster_;
  ndb::TableId table_ = 0;
};

TEST_F(FaultInjectorTest, DisarmedInjectorNeverFires) {
  auto tx = cluster_->Begin();
  EXPECT_TRUE(tx->Read(table_, {int64_t{1}}, ndb::LockMode::kShared).ok());
  EXPECT_EQ(cluster_->fault_injector().injected_errors(), 0u);
}

TEST_F(FaultInjectorTest, CertainErrorAbortsTheTransaction) {
  ndb::FaultInjector& inj = cluster_->fault_injector();
  inj.Seed(7);
  inj.Arm(table_, {/*error_probability=*/1.0, 0.0, std::chrono::microseconds{0}});
  auto tx = cluster_->Begin();
  auto read = tx->Read(table_, {int64_t{1}}, ndb::LockMode::kShared);
  EXPECT_EQ(read.status().code(), hops::StatusCode::kTxAborted);
  EXPECT_FALSE(tx->active());  // per-row faults mirror coordinator failure
  EXPECT_GE(inj.injected_errors(), 1u);

  inj.Disarm(table_);
  auto tx2 = cluster_->Begin();
  EXPECT_TRUE(tx2->Read(table_, {int64_t{1}}, ndb::LockMode::kShared).ok());
}

TEST_F(FaultInjectorTest, WildcardSpecCoversEveryTable) {
  ndb::FaultInjector& inj = cluster_->fault_injector();
  inj.Seed(7);
  inj.Arm(ndb::FaultInjector::kAllTables,
          {/*error_probability=*/1.0, 0.0, std::chrono::microseconds{0}});
  auto tx = cluster_->Begin();
  EXPECT_EQ(tx->Read(table_, {int64_t{1}}, ndb::LockMode::kShared).status().code(),
            hops::StatusCode::kTxAborted);
  inj.DisarmAll();
  EXPECT_FALSE(inj.armed());
}

TEST_F(FaultInjectorTest, LatencySpecDelaysWithoutFailing) {
  ndb::FaultInjector& inj = cluster_->fault_injector();
  inj.Seed(7);
  inj.Arm(table_, {0.0, /*delay_probability=*/1.0, std::chrono::microseconds{500}});
  auto tx = cluster_->Begin();
  EXPECT_TRUE(tx->Read(table_, {int64_t{1}}, ndb::LockMode::kShared).ok());
  EXPECT_GE(inj.injected_delays(), 1u);
  EXPECT_EQ(inj.injected_errors(), 0u);
}

TEST_F(FaultInjectorTest, SeededDiceAreReproducible) {
  // Same seed, same access sequence => same injected-error pattern.
  auto run = [this](uint64_t seed) {
    ndb::FaultInjector& inj = cluster_->fault_injector();
    inj.Seed(seed);
    inj.Arm(table_, {0.5, 0.0, std::chrono::microseconds{0}});
    std::vector<bool> outcomes;
    for (int i = 0; i < 32; ++i) {
      auto tx = cluster_->Begin();
      outcomes.push_back(tx->Read(table_, {int64_t{1}}, ndb::LockMode::kShared).ok());
      if (tx->active()) (void)tx->Abort();
    }
    inj.Disarm(table_);
    return outcomes;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

// --- Fault plans -------------------------------------------------------------

TEST(FaultPlanTest, PureFunctionOfTheSeed) {
  ChaosOptions o;
  o.seed = 1234;
  FaultPlan a = GeneratePlan(o);
  FaultPlan b = GeneratePlan(o);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].fault, b.events[i].fault);
    EXPECT_EQ(a.events[i].at_ms, b.events[i].at_ms);
    EXPECT_EQ(a.events[i].dwell_ms, b.events[i].dwell_ms);
    EXPECT_EQ(a.events[i].target, b.events[i].target);
  }
  o.seed = 1235;
  EXPECT_NE(GeneratePlan(o).Fingerprint(), a.Fingerprint());
}

TEST(FaultPlanTest, OnlyClassFilterKeepsTimingAligned) {
  // The schedule Rng draws every field regardless of the class filter, so a
  // per-class bench run reuses the SAME fault times as the mixed run.
  ChaosOptions mixed;
  mixed.seed = 99;
  ChaosOptions filtered = mixed;
  filtered.only_class = FaultClass::kNamenodeCrash;
  FaultPlan a = GeneratePlan(mixed);
  FaultPlan b = GeneratePlan(filtered);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at_ms, b.events[i].at_ms);
    EXPECT_EQ(b.events[i].fault, FaultClass::kNamenodeCrash);
  }
}

TEST(FaultPlanTest, PinnedSingleEventSchedule) {
  ChaosOptions o;
  o.seed = 7;
  o.num_faults = 1;
  o.only_class = FaultClass::kNdbLatency;
  o.pin_at_ms = 1000;
  o.pin_dwell_ms = 300;
  FaultPlan plan = GeneratePlan(o);
  ASSERT_EQ(plan.events.size(), 1u);
  EXPECT_EQ(plan.events[0].fault, FaultClass::kNdbLatency);
  EXPECT_EQ(plan.events[0].at_ms, 1000);
  EXPECT_EQ(plan.events[0].dwell_ms, 300);
}

// --- Crash-point sweep (satellite: every append/apply/cleanup boundary) ------

class CrashPointSweepTest : public ::testing::Test {
 protected:
  static constexpr std::string_view kPoints[] = {
      "append:pre-commit", "append:post-commit", "apply:claimed", "apply:applied",
      "cleanup:pre",       "cleanup:mid",        "cleanup:post",
  };

  std::unique_ptr<MiniCluster> NewCluster() {
    MiniClusterOptions o;
    o.db.num_datanodes = 4;
    o.db.replication = 2;
    o.fs.async_metadata_commit = true;
    o.num_namenodes = 2;
    auto cluster = MiniCluster::Start(o);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    return cluster.ok() ? *std::move(cluster) : nullptr;
  }

  // Ticks heartbeats until the intent table is empty (dead publishers aged
  // out and adopted) or the deadline passes; returns the remaining rows.
  static size_t DrainAll(MiniCluster& cluster) {
    for (int round = 0; round < 400; ++round) {
      cluster.TickHeartbeats();
      cluster.DrainIntents();
      if (cluster.db().TableRowCount(cluster.schema().op_intents) == 0) return 0;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return cluster.db().TableRowCount(cluster.schema().op_intents);
  }

  static bool WaitFor(const std::atomic<bool>& flag) {
    for (int i = 0; i < 1000 && !flag.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return flag.load();
  }
};

TEST_F(CrashPointSweepTest, EveryBoundaryReplaysIdempotentlyWithNoLostAck) {
  for (std::string_view point : kPoints) {
    SCOPED_TRACE(std::string(point));
    auto cluster = NewCluster();
    ASSERT_NE(cluster, nullptr);
    Namenode* victim = &cluster->namenode(0);

    // Setup ops complete (acked + applied) before the crash hook arms, so
    // the crash hits exactly the op(s) submitted afterwards.
    ASSERT_TRUE(victim->Mkdirs("/sweep").ok());
    victim->FlushIntents();

    const bool cleanup_mid = point == "cleanup:mid";
    if (cleanup_mid) victim->SetIntentCleanerPausedForTesting(true);

    std::atomic<bool> fired{false};
    victim->SetIntentCrashHookForTesting([&fired, victim, point](std::string_view p) {
      if (p == point && !fired.exchange(true)) {
        victim->Kill();  // the whole namenode process dies at this boundary
        return true;
      }
      return false;
    });

    // Acked paths that MUST survive the crash. Ops returning kFailover were
    // never acknowledged; the oracle owes them nothing (either outcome is
    // legal), so they are simply not recorded.
    std::vector<std::string> acked{"/sweep"};
    if (cleanup_mid) {
      // cleanup:mid only exists with >64 records in one cleaner batch: let
      // the paused cleaner accumulate 70 applied records, then release it.
      for (int i = 0; i < 70; ++i) {
        std::string path = "/sweep/f" + std::to_string(i);
        hops::Status st = victim->Create(path, "sweeper");
        ASSERT_TRUE(st.ok()) << st.ToString();
        acked.push_back(path);
      }
      // FlushIntents would wait for the (paused) cleanup queue too; wait on
      // the applied counter instead, then release the cleaner into its
      // 70-record batch (2 chunks -- the only way cleanup:mid can fire).
      for (int i = 0; i < 1000 && victim->intent_stats().intents_applied < 71; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      ASSERT_GE(victim->intent_stats().intents_applied, 71u);
      victim->SetIntentCleanerPausedForTesting(false);
    } else {
      hops::Status st = victim->Create("/sweep/target", "sweeper");
      if (st.ok()) acked.push_back("/sweep/target");
    }

    ASSERT_TRUE(WaitFor(fired)) << "crash point never reached: " << point;
    EXPECT_FALSE(victim->alive());

    // Restart the slot under a fresh id; the survivors' heartbeats age the
    // dead id out and the leader adopts its surviving partition.
    ASSERT_TRUE(cluster->RestartNamenode(0).ok());
    EXPECT_EQ(DrainAll(*cluster), 0u) << "intent rows stranded after " << point;

    Namenode& survivor = cluster->namenode(1);
    for (const std::string& path : acked) {
      auto info = survivor.GetFileInfo(path);
      EXPECT_TRUE(info.ok()) << "acked op lost at " << point << ": " << path << " ("
                             << info.status().ToString() << ")";
    }

    // Replay idempotence: crashing and readopting AGAIN (no new ops) must
    // change nothing -- the log is empty, so the sweep finds nothing.
    cluster->KillNamenode(0);
    ASSERT_TRUE(cluster->RestartNamenode(0).ok());
    EXPECT_EQ(DrainAll(*cluster), 0u);
    for (const std::string& path : acked) {
      EXPECT_TRUE(cluster->namenode(1).GetFileInfo(path).ok());
    }
  }
}

// --- Adoption race (satellite: two leaders-elect, one dead partition) --------

TEST(AdoptionRaceTest, ConcurrentAdoptersNeverDoubleApplyOrStrandRecords) {
  MiniClusterOptions o;
  o.db.num_datanodes = 4;
  o.db.replication = 2;
  o.fs.async_metadata_commit = true;
  o.num_namenodes = 3;
  auto cluster_or = MiniCluster::Start(o);
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto cluster = *std::move(cluster_or);

  // Build a backlog: the victim acknowledges ops its paused applier never
  // applies, then dies -- the backlog is exactly its durable partition.
  Namenode& victim = cluster->namenode(2);
  victim.SetIntentApplierPausedForTesting(true);
  constexpr int kFiles = 20;
  ASSERT_TRUE(victim.Mkdirs("/race").ok());
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(victim.Create("/race/f" + std::to_string(i), "racer").ok());
  }
  ASSERT_GT(cluster->db().TableRowCount(cluster->schema().op_intents), 0u);
  cluster->KillNamenode(2);

  // Age the dead id out of both survivors' membership views.
  for (int round = 0; round < 6; ++round) {
    (void)cluster->namenode(0).Heartbeat();
    (void)cluster->namenode(1).Heartbeat();
  }

  // Both survivors believe they should adopt; race the sweeps.
  std::thread a([&] { cluster->namenode(0).AdoptOrphanedIntentsForTesting(); });
  std::thread b([&] { cluster->namenode(1).AdoptOrphanedIntentsForTesting(); });
  a.join();
  b.join();

  // No stranded records (racing deletes tolerate each other's consumption).
  for (int round = 0; round < 100; ++round) {
    if (cluster->db().TableRowCount(cluster->schema().op_intents) == 0) break;
    cluster->namenode(0).AdoptOrphanedIntentsForTesting();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(cluster->db().TableRowCount(cluster->schema().op_intents), 0u);

  // No double-apply: every acked file exists exactly once, nothing extra.
  auto listing = cluster->namenode(0).ListStatus("/race");
  ASSERT_TRUE(listing.ok()) << listing.status().ToString();
  EXPECT_EQ(listing->size(), static_cast<size_t>(kFiles));
  for (int i = 0; i < kFiles; ++i) {
    EXPECT_TRUE(cluster->namenode(0).GetFileInfo("/race/f" + std::to_string(i)).ok());
  }
}

// An adoption sweep whose apply is faulted past op_timeout must leave the
// acknowledged intent in the log for the next sweep, not count it as adopted
// and delete its row: an acknowledged op must eventually apply.
TEST(AdoptionFaultTest, FaultedApplyLeavesTheAcknowledgedIntentForTheNextSweep) {
  MiniClusterOptions o;
  o.db.num_datanodes = 4;
  o.db.replication = 2;
  o.fs.async_metadata_commit = true;
  o.fs.op_timeout = std::chrono::milliseconds(100);
  o.num_namenodes = 2;
  auto cluster_or = MiniCluster::Start(o);
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto cluster = *std::move(cluster_or);

  Namenode& survivor = cluster->namenode(0);
  Namenode& victim = cluster->namenode(1);
  ASSERT_TRUE(victim.Mkdirs("/ad").ok());
  victim.FlushIntents();
  victim.SetIntentApplierPausedForTesting(true);
  ASSERT_TRUE(victim.Create("/ad/f", "writer").ok());
  cluster->KillNamenode(1);
  const size_t acked_rows = cluster->db().TableRowCount(cluster->schema().op_intents);
  ASSERT_GT(acked_rows, 0u);

  // The leader's heartbeat adopts as soon as the victim ages out of its
  // membership view, so the fault is armed first: those sweeps and the
  // explicit one all meet it.
  kv::FaultInjector& inj = cluster->db().fault_injector();
  inj.Seed(1);
  inj.Arm(cluster->schema().inodes, {/*error_probability=*/1.0, 0.0, std::chrono::microseconds{0}});
  for (int round = 0; round < 6; ++round) (void)survivor.Heartbeat();
  survivor.AdoptOrphanedIntentsForTesting();
  EXPECT_EQ(cluster->db().TableRowCount(cluster->schema().op_intents), acked_rows)
      << "a faulted apply must not consume the acknowledged intent";
  EXPECT_EQ(cluster->AggregateIntentStats().intents_adopted, 0u);

  inj.Disarm(cluster->schema().inodes);
  survivor.AdoptOrphanedIntentsForTesting();
  EXPECT_EQ(cluster->db().TableRowCount(cluster->schema().op_intents), 0u);
  auto info = survivor.GetFileInfo("/ad/f");
  EXPECT_TRUE(info.ok()) << info.status().ToString();
}

// --- Node-group outage ----------------------------------------------------------

// An apply that meets a node group with every member down fails with
// kUnavailable. The group comes back, so that is no answer for an
// acknowledged op: the claimer must keep the intent and retry it through the
// outage instead of queueing its row for deletion and losing the file.
TEST(NodeGroupOutageTest, AcknowledgedIntentsApplyAfterTheGroupReturns) {
  for (kv::EngineKind engine : {kv::EngineKind::kNdb, kv::EngineKind::kOcc}) {
    SCOPED_TRACE(std::string("engine=") + std::string(kv::EngineKindName(engine)));
    MiniClusterOptions o;
    o.db.num_datanodes = 4;
    o.db.replication = 2;
    o.fs.kv_engine = engine;
    o.fs.async_metadata_commit = true;
    o.fs.op_timeout = std::chrono::milliseconds(200);
    o.num_namenodes = 1;
    auto cluster_or = MiniCluster::Start(o);
    ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
    auto cluster = *std::move(cluster_or);
    Namenode& nn = cluster->namenode(0);
    ASSERT_TRUE(nn.Mkdirs("/ad").ok());
    nn.FlushIntents();

    constexpr int kFiles = 8;
    nn.SetIntentApplierPausedForTesting(true);
    for (int i = 0; i < kFiles; ++i) {
      ASSERT_TRUE(nn.Create("/ad/f" + std::to_string(i), "writer").ok());
    }
    // Datanodes 0 and 1 are node group 0 (replication 2).
    cluster->db().KillDatanode(0);
    cluster->db().KillDatanode(1);
    ASSERT_FALSE(cluster->db().Available());
    nn.SetIntentApplierPausedForTesting(false);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    cluster->db().RestartDatanode(0);
    cluster->db().RestartDatanode(1);
    nn.FlushIntents();

    for (int i = 0; i < kFiles; ++i) {
      const std::string path = "/ad/f" + std::to_string(i);
      auto info = nn.GetFileInfo(path);
      EXPECT_TRUE(info.ok()) << path << " was acknowledged but lost to the outage: "
                             << info.status().ToString();
    }
    EXPECT_EQ(nn.intent_stats().apply_failures, 0u);
    EXPECT_EQ(cluster->db().TableRowCount(cluster->schema().op_intents), 0u);
  }
}

// --- Fault burst ---------------------------------------------------------------

// Transient faults on every table are ridden out by backoff under the one
// op_timeout: a burst at p = 0.3 fails no op.
TEST(FaultBurstTest, OpsRideOutATransientFaultBurst) {
  MiniClusterOptions o;
  o.db.num_datanodes = 4;
  o.db.replication = 2;
  auto cluster_or = MiniCluster::Start(o);
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto cluster = *std::move(cluster_or);
  Namenode& nn = cluster->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/burst").ok());
  ASSERT_TRUE(nn.Create("/burst/seed", "writer").ok());

  kv::FaultInjector& inj = cluster->db().fault_injector();
  inj.Seed(5);
  inj.Arm(kv::FaultInjector::kAllTables,
          {/*error_probability=*/0.3, 0.0, std::chrono::microseconds{0}});
  std::vector<std::string> failures;
  for (int i = 0; i < 20; ++i) {
    auto info = nn.GetFileInfo("/burst/seed");
    if (!info.ok()) failures.push_back(info.status().ToString());
  }
  for (int i = 0; i < 20; ++i) {
    hops::Status st = nn.Create("/burst/f" + std::to_string(i), "writer");
    if (!st.ok()) failures.push_back(st.ToString());
  }
  inj.DisarmAll();
  EXPECT_GT(inj.injected_errors(), 0u);
  EXPECT_TRUE(failures.empty()) << failures.size() << " of 40 ops failed, first: "
                                << (failures.empty() ? "" : failures.front());
}

// --- Resumed-identity restart (satellite: old nn_id mid-drain) ---------------

TEST(RestartSameIdTest, ResumedNamenodeDrainsItsOwnBacklogAndKeepsLiveness) {
  MiniClusterOptions o;
  o.db.num_datanodes = 4;
  o.db.replication = 2;
  o.fs.async_metadata_commit = true;
  o.num_namenodes = 2;
  auto cluster_or = MiniCluster::Start(o);
  ASSERT_TRUE(cluster_or.ok()) << cluster_or.status().ToString();
  auto cluster = *std::move(cluster_or);

  Namenode& before = cluster->namenode(0);
  const fs::NamenodeId old_id = before.id();
  before.SetIntentApplierPausedForTesting(true);
  ASSERT_TRUE(before.Mkdirs("/resume").ok());
  constexpr int kFiles = 10;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(before.Create("/resume/f" + std::to_string(i), "w").ok());
  }
  ASSERT_GT(cluster->db().TableRowCount(cluster->schema().op_intents), 0u);

  // Process restart keeping the identity: the new incarnation must replay
  // its OWN partition at Start -- no peer has declared it dead, so nobody
  // else will (the acked ops would otherwise strand = lost acks).
  ASSERT_TRUE(cluster->RestartNamenodeSameId(0).ok());
  Namenode& after = cluster->namenode(0);
  EXPECT_EQ(after.id(), old_id);

  for (const char* path : {"/resume", "/resume/f0", "/resume/f9"}) {
    auto info = after.GetFileInfo(path);
    EXPECT_TRUE(info.ok()) << path << ": " << info.status().ToString();
  }
  for (int round = 0; round < 100; ++round) {
    if (cluster->db().TableRowCount(cluster->schema().op_intents) == 0) break;
    cluster->TickHeartbeats();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(cluster->db().TableRowCount(cluster->schema().op_intents), 0u);

  // Election-counter continuity: the resumed id never reads as dead to its
  // peer (a counter restarting at zero would look like missed heartbeats
  // and invite wrongful adoption + ack GC of the live namenode's logs).
  (void)after.Heartbeat();
  (void)cluster->namenode(1).Heartbeat();
  EXPECT_TRUE(cluster->namenode(1).election().IsNamenodeAlive(old_id));

  // And the resumed incarnation keeps acking + applying at fresh sequence
  // numbers (the preserved head row keeps sequences monotonic across the gap).
  ASSERT_TRUE(after.Create("/resume/after-restart", "w").ok());
  after.FlushIntents();
  EXPECT_TRUE(after.GetFileInfo("/resume/after-restart").ok());
}

// --- Full-harness smoke (tentpole oracle run) --------------------------------

TEST(ChaosSmokeTest, SeededRunsSatisfyAllOracles) {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("HOPS_CHAOS_SEED"); env != nullptr && env[0] != '\0') {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  } else if (const char* lng = std::getenv("HOPS_CHAOS_LONG");
             lng != nullptr && lng[0] == '1') {
    for (uint64_t s = 1; s <= 8; ++s) seeds.push_back(s);
  } else {
    seeds = {1, 2};
  }
  const bool long_run = std::getenv("HOPS_CHAOS_LONG") != nullptr;

  // Every seed runs against BOTH KV backends: the oracles (convergence, no
  // lost ack, bounded unavailability) are engine-independent claims, so a
  // schedule that holds under 2PL must also hold under OCC retries. When
  // HOPS_KV_ENGINE is set it wins inside MiniCluster::Start and both legs
  // exercise the pinned engine.
  for (kv::EngineKind engine : {kv::EngineKind::kNdb, kv::EngineKind::kOcc}) {
    for (uint64_t seed : seeds) {
      SCOPED_TRACE("HOPS_CHAOS_SEED=" + std::to_string(seed) + " engine=" +
                   std::string(kv::EngineKindName(engine)));
      ChaosOptions o;
      o.engine = engine;
      o.seed = seed;
      o.duration = std::chrono::milliseconds(long_run ? 8000 : 2500);
      o.num_faults = long_run ? 10 : 5;
      ChaosReport report = RunChaos(o);
      for (const std::string& v : report.violations) ADD_FAILURE() << v;
      EXPECT_GT(report.ops_acked, 0u);
      // The plan itself must be reproducible from the seed alone.
      EXPECT_EQ(report.plan.Fingerprint(), GeneratePlan(o).Fingerprint());
    }
  }
}

}  // namespace
}  // namespace hops::chaos
