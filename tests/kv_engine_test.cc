// The pluggable-KV boundary: backend selection (parsing, factory,
// MiniCluster option validation) and the OCC engine's conflict paths, at two
// levels. Engine-level tests drive kv::Txn directly and pin down exactly
// which interleavings must surface kConflict (validated point reads,
// insert guards, locking-scan phantoms) and which must not (read-committed,
// read-only, blind writes). Namenode-level tests race real metadata
// operations -- create-same-name, rename-vs-create on one parent, intent-log
// append storms -- and check the OCC retry loop absorbs every conflict:
// bounded retries, no kConflict escaping to clients, no lost acks, and a
// namespace fingerprint identical to the 2PL engine's for the same script.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "hopsfs/mini_cluster.h"
#include "kv/kv.h"

namespace hops {
namespace {

using fs::MiniCluster;
using fs::MiniClusterOptions;

// --- Backend selection -------------------------------------------------------

TEST(EngineKindTest, ParseAcceptsAliasesCaseInsensitively) {
  EXPECT_EQ(kv::ParseEngineKind("ndb"), kv::EngineKind::kNdb);
  EXPECT_EQ(kv::ParseEngineKind("NDB"), kv::EngineKind::kNdb);
  EXPECT_EQ(kv::ParseEngineKind("2pl"), kv::EngineKind::kNdb);
  EXPECT_EQ(kv::ParseEngineKind("occ"), kv::EngineKind::kOcc);
  EXPECT_EQ(kv::ParseEngineKind("OCC"), kv::EngineKind::kOcc);
  EXPECT_EQ(kv::ParseEngineKind("mvcc"), kv::EngineKind::kOcc);
  EXPECT_FALSE(kv::ParseEngineKind("").has_value());
  EXPECT_FALSE(kv::ParseEngineKind("innodb").has_value());
}

TEST(EngineKindTest, NamesRoundTripThroughParse) {
  for (kv::EngineKind kind : {kv::EngineKind::kNdb, kv::EngineKind::kOcc}) {
    EXPECT_EQ(kv::ParseEngineKind(kv::EngineKindName(kind)), kind);
  }
}

TEST(EngineKindTest, FactoryBuildsTheRequestedBackend) {
  kv::EngineConfig config{.num_datanodes = 2, .replication = 2};
  auto ndb = kv::MakeEngine(kv::EngineKind::kNdb, config);
  auto occ = kv::MakeEngine(kv::EngineKind::kOcc, config);
  ASSERT_NE(ndb, nullptr);
  ASSERT_NE(occ, nullptr);
  EXPECT_EQ(ndb->kind(), kv::EngineKind::kNdb);
  EXPECT_EQ(occ->kind(), kv::EngineKind::kOcc);
  EXPECT_EQ(ndb->name(), "ndb");
  EXPECT_EQ(occ->name(), "occ");
  // Same knob set feeds both backends; topology derivations must agree.
  EXPECT_EQ(ndb->num_partitions(), occ->num_partitions());
  EXPECT_EQ(ndb->num_node_groups(), occ->num_node_groups());
}

// --- MiniCluster option validation (fail fast, clear message) ----------------

void ExpectStartRejects(MiniClusterOptions options, std::string_view fragment) {
  auto cluster = MiniCluster::Start(std::move(options));
  ASSERT_FALSE(cluster.ok()) << "expected rejection mentioning: " << fragment;
  EXPECT_EQ(cluster.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(cluster.status().message().find(fragment), std::string::npos)
      << "got: " << cluster.status().ToString();
}

TEST(MiniClusterValidationTest, RejectsImpossibleTopology) {
  MiniClusterOptions o;
  o.db.num_datanodes = 0;
  ExpectStartRejects(o, "db.num_datanodes");

  MiniClusterOptions o2;
  o2.db.num_datanodes = 3;
  o2.db.replication = 2;
  ExpectStartRejects(o2, "multiple of db.replication");

  MiniClusterOptions o3;
  o3.num_namenodes = 0;
  ExpectStartRejects(o3, "num_namenodes");
}

TEST(MiniClusterValidationTest, RejectsNonsenseFsKnobs) {
  MiniClusterOptions o;
  o.fs.op_timeout = std::chrono::milliseconds(0);
  ExpectStartRejects(o, "fs.op_timeout");

  MiniClusterOptions o2;
  o2.fs.subtree_delete_batch = 0;
  ExpectStartRejects(o2, "fs.subtree_delete_batch");

  MiniClusterOptions o3;
  o3.db.max_in_flight_batches = 0;
  ExpectStartRejects(o3, "db.max_in_flight_batches");
}

TEST(MiniClusterValidationTest, DefaultsStartAndRecordTheResolvedEngine) {
  MiniClusterOptions o;
  auto cluster = MiniCluster::Start(o);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  // Start writes the engine it actually built back into fs_config().
  EXPECT_EQ((*cluster)->fs_config().kv_engine, (*cluster)->db().kind());
}

// --- OCC conflict paths, engine level ----------------------------------------

class OccConflictTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_ = kv::MakeEngine(kv::EngineKind::kOcc,
                             kv::EngineConfig{.num_datanodes = 2, .replication = 2});
    // Two-column PK (dir, name) partitioned by dir: point rows for the key
    // tests, a scannable prefix for the phantom tests.
    kv::Schema s;
    s.table_name = "entries";
    s.columns = {{"dir", kv::ColumnType::kInt64},
                 {"name", kv::ColumnType::kInt64},
                 {"val", kv::ColumnType::kInt64}};
    s.primary_key = {0, 1};
    s.partition_key = {0};
    table_ = *engine_->CreateTable(s);
    auto tx = engine_->Begin();
    ASSERT_TRUE(tx->Insert(table_, kv::Row{int64_t{1}, int64_t{1}, int64_t{10}}).ok());
    ASSERT_TRUE(tx->Insert(table_, kv::Row{int64_t{1}, int64_t{2}, int64_t{20}}).ok());
    ASSERT_TRUE(tx->Commit().ok());
    engine_->ResetStats();
  }

  std::unique_ptr<kv::Engine> engine_;
  kv::TableId table_ = 0;
};

TEST_F(OccConflictTest, ValidatedReadFailsWhenTheRowChangesBeforeCommit) {
  auto t1 = engine_->Begin();
  ASSERT_TRUE(t1->Read(table_, kv::Key{int64_t{1}, int64_t{1}}, kv::LockMode::kShared).ok());

  // A concurrent writer commits a newer version of the row t1 validated.
  auto t2 = engine_->Begin();
  ASSERT_TRUE(t2->Update(table_, kv::Row{int64_t{1}, int64_t{1}, int64_t{11}}).ok());
  ASSERT_TRUE(t2->Commit().ok());

  ASSERT_TRUE(t1->Update(table_, kv::Row{int64_t{1}, int64_t{1}, int64_t{12}}).ok());
  hops::Status st = t1->Commit();
  EXPECT_EQ(st.code(), StatusCode::kConflict) << st.ToString();
  EXPECT_TRUE(st.IsRetryableTx());

  auto stats = engine_->StatsSnapshot();
  EXPECT_EQ(stats.occ_conflicts, 1u);
  EXPECT_EQ(stats.occ_key_conflicts, 1u);
  EXPECT_EQ(stats.occ_range_conflicts, 0u);

  // The canonical OCC loop: a fresh attempt sees the new version and wins.
  auto t3 = engine_->Begin();
  ASSERT_TRUE(t3->Read(table_, kv::Key{int64_t{1}, int64_t{1}}, kv::LockMode::kShared).ok());
  ASSERT_TRUE(t3->Update(table_, kv::Row{int64_t{1}, int64_t{1}, int64_t{12}}).ok());
  EXPECT_TRUE(t3->Commit().ok());
}

TEST_F(OccConflictTest, WriteCheckContradictingAnEarlierObservationConflicts) {
  // An X-read sees the key absent, a peer commits it, then the insert's
  // existence check finds it: the transaction's own snapshot never saw the
  // row, and its commit could not validate, so the answer is a retryable
  // conflict rather than AlreadyExists.
  auto t1 = engine_->Begin();
  EXPECT_EQ(t1->Read(table_, kv::Key{int64_t{1}, int64_t{3}}, kv::LockMode::kExclusive)
                .status()
                .code(),
            StatusCode::kNotFound);
  auto peer = engine_->Begin();
  ASSERT_TRUE(peer->Insert(table_, kv::Row{int64_t{1}, int64_t{3}, int64_t{30}}).ok());
  ASSERT_TRUE(peer->Commit().ok());
  hops::Status st = t1->Insert(table_, kv::Row{int64_t{1}, int64_t{3}, int64_t{31}});
  EXPECT_EQ(st.code(), StatusCode::kConflict) << st.ToString();
  EXPECT_TRUE(st.IsRetryableTx());

  // The mirror image: an update of a row the transaction saw, deleted since.
  auto t2 = engine_->Begin();
  ASSERT_TRUE(t2->Read(table_, kv::Key{int64_t{1}, int64_t{1}}, kv::LockMode::kExclusive).ok());
  auto deleter = engine_->Begin();
  ASSERT_TRUE(deleter->Delete(table_, kv::Key{int64_t{1}, int64_t{1}}).ok());
  ASSERT_TRUE(deleter->Commit().ok());
  st = t2->Update(table_, kv::Row{int64_t{1}, int64_t{1}, int64_t{11}});
  EXPECT_EQ(st.code(), StatusCode::kConflict) << st.ToString();

  auto stats = engine_->StatsSnapshot();
  EXPECT_EQ(stats.occ_conflicts, 2u);
  EXPECT_EQ(stats.occ_key_conflicts, 2u);
  EXPECT_EQ(stats.occ_range_conflicts, 0u);

  // Without an earlier observation the failed check keeps its own answer.
  auto t3 = engine_->Begin();
  EXPECT_EQ(t3->Insert(table_, kv::Row{int64_t{1}, int64_t{3}, int64_t{32}}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(t3->Update(table_, kv::Row{int64_t{1}, int64_t{1}, int64_t{12}}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine_->StatsSnapshot().occ_conflicts, 2u);
}

TEST_F(OccConflictTest, SecondOfTwoValidatedReadersConflictsAfterTheFirstCommits) {
  // Both transactions validate the same key; the first to commit an update
  // wins, and the second's validation fails. The conflict message is built
  // from the failed read-set entry, so it must be taken before the abort
  // clears the read set (an ASan build flags the use-after-free otherwise).
  const kv::Key key{int64_t{1}, int64_t{2}};
  auto t1 = engine_->Begin();
  auto t2 = engine_->Begin();
  ASSERT_TRUE(t1->Read(table_, key, kv::LockMode::kShared).ok());
  ASSERT_TRUE(t2->Read(table_, key, kv::LockMode::kShared).ok());
  ASSERT_TRUE(t1->Update(table_, kv::Row{int64_t{1}, int64_t{2}, int64_t{21}}).ok());
  ASSERT_TRUE(t2->Update(table_, kv::Row{int64_t{1}, int64_t{2}, int64_t{22}}).ok());
  ASSERT_TRUE(t1->Commit().ok());

  hops::Status st = t2->Commit();
  EXPECT_EQ(st.code(), StatusCode::kConflict) << st.ToString();
  EXPECT_NE(st.ToString().find("entries"), std::string::npos) << st.ToString();
  EXPECT_FALSE(t2->active());

  auto check = engine_->Begin();
  auto row = check->Read(table_, key, kv::LockMode::kReadCommitted);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[2].i64(), 21);
  check->Abort();
}

TEST_F(OccConflictTest, InsertGuardMakesConcurrentCreateSameKeyLoseCleanly) {
  // Both transactions probe the same ABSENT key (a create's existence check)
  // and then insert it: the absence observation must guard the slot.
  auto t1 = engine_->Begin();
  auto t2 = engine_->Begin();
  EXPECT_FALSE(t1->Read(table_, kv::Key{int64_t{1}, int64_t{7}}, kv::LockMode::kExclusive).ok());
  EXPECT_FALSE(t2->Read(table_, kv::Key{int64_t{1}, int64_t{7}}, kv::LockMode::kExclusive).ok());
  ASSERT_TRUE(t1->Insert(table_, kv::Row{int64_t{1}, int64_t{7}, int64_t{70}}).ok());
  ASSERT_TRUE(t2->Insert(table_, kv::Row{int64_t{1}, int64_t{7}, int64_t{71}}).ok());

  EXPECT_TRUE(t1->Commit().ok());
  hops::Status st = t2->Commit();
  EXPECT_EQ(st.code(), StatusCode::kConflict) << st.ToString();
  EXPECT_GE(engine_->StatsSnapshot().occ_key_conflicts, 1u);

  // First committer's row survived.
  auto check = engine_->Begin();
  auto row = check->Read(table_, kv::Key{int64_t{1}, int64_t{7}}, kv::LockMode::kReadCommitted);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[2].i64(), 70);
  check->Abort();
}

TEST_F(OccConflictTest, LockingScanFailsOnPhantomInsert) {
  auto t1 = engine_->Begin();
  kv::ScanOptions locked;
  locked.lock = kv::LockMode::kShared;
  auto rows = t1->Ppis(table_, kv::Key{int64_t{1}}, locked);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);

  // A phantom lands inside the scanned prefix before t1 commits.
  auto t2 = engine_->Begin();
  ASSERT_TRUE(t2->Insert(table_, kv::Row{int64_t{1}, int64_t{3}, int64_t{30}}).ok());
  ASSERT_TRUE(t2->Commit().ok());

  ASSERT_TRUE(t1->Insert(table_, kv::Row{int64_t{2}, int64_t{1}, int64_t{99}}).ok());
  hops::Status st = t1->Commit();
  EXPECT_EQ(st.code(), StatusCode::kConflict) << st.ToString();
  auto stats = engine_->StatsSnapshot();
  EXPECT_EQ(stats.occ_range_conflicts, 1u);
  EXPECT_EQ(stats.occ_conflicts, 1u);
}

TEST_F(OccConflictTest, ReadCommittedScanToleratesConcurrentInsert) {
  auto t1 = engine_->Begin();
  auto rows = t1->Ppis(table_, kv::Key{int64_t{1}});  // default: read-committed
  ASSERT_TRUE(rows.ok());

  auto t2 = engine_->Begin();
  ASSERT_TRUE(t2->Insert(table_, kv::Row{int64_t{1}, int64_t{3}, int64_t{30}}).ok());
  ASSERT_TRUE(t2->Commit().ok());

  ASSERT_TRUE(t1->Insert(table_, kv::Row{int64_t{2}, int64_t{1}, int64_t{99}}).ok());
  EXPECT_TRUE(t1->Commit().ok());
  EXPECT_EQ(engine_->StatsSnapshot().occ_conflicts, 0u);
}

TEST_F(OccConflictTest, ReadOnlyTransactionsSkipValidation) {
  auto t1 = engine_->Begin();
  ASSERT_TRUE(t1->Read(table_, kv::Key{int64_t{1}, int64_t{1}}, kv::LockMode::kShared).ok());

  auto t2 = engine_->Begin();
  ASSERT_TRUE(t2->Update(table_, kv::Row{int64_t{1}, int64_t{1}, int64_t{11}}).ok());
  ASSERT_TRUE(t2->Commit().ok());

  // Stale validated read, but t1 writes nothing: commit is a no-op success.
  EXPECT_TRUE(t1->Commit().ok());
  EXPECT_EQ(engine_->StatsSnapshot().occ_conflicts, 0u);
}

TEST_F(OccConflictTest, BlindWritesAreLastWriterWins) {
  auto t1 = engine_->Begin();
  auto t2 = engine_->Begin();
  ASSERT_TRUE(t1->Write(table_, kv::Row{int64_t{1}, int64_t{1}, int64_t{100}}).ok());
  ASSERT_TRUE(t2->Write(table_, kv::Row{int64_t{1}, int64_t{1}, int64_t{200}}).ok());
  EXPECT_TRUE(t1->Commit().ok());
  EXPECT_TRUE(t2->Commit().ok());  // no read set, nothing to validate
  EXPECT_EQ(engine_->StatsSnapshot().occ_conflicts, 0u);

  auto check = engine_->Begin();
  auto row = check->Read(table_, kv::Key{int64_t{1}, int64_t{1}}, kv::LockMode::kReadCommitted);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[2].i64(), 200);
  check->Abort();
}

// --- OCC conflict paths, namenode level --------------------------------------

std::unique_ptr<MiniCluster> StartOccCluster(int num_handlers, bool async_commit) {
  MiniClusterOptions o;
  o.fs.kv_engine = kv::EngineKind::kOcc;
  o.fs.num_handlers = num_handlers;
  o.fs.async_metadata_commit = async_commit;
  auto cluster = MiniCluster::Start(std::move(o));
  EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
  return cluster.ok() ? std::move(*cluster) : nullptr;
}

TEST(OccNamenodeTest, ConcurrentCreateSameNameHasExactlyOneWinner) {
  auto cluster = StartOccCluster(/*num_handlers=*/4, /*async_commit=*/false);
  ASSERT_NE(cluster, nullptr);
  auto setup = cluster->NewClient(fs::NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/race").ok());

  constexpr int kRounds = 16;
  constexpr int kThreads = 4;
  for (int round = 0; round < kRounds; ++round) {
    const std::string path = "/race/f" + std::to_string(round);
    std::atomic<int> winners{0};
    std::atomic<int> bad{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto client = cluster->NewClient(fs::NamenodePolicy::kRoundRobin,
                                         "c" + std::to_string(t), uint64_t(round * 31 + t));
        hops::Status st = client.CreateFile(path);
        if (st.ok()) {
          ++winners;
        } else if (st.code() != StatusCode::kAlreadyExists &&
                   st.code() != StatusCode::kLeaseConflict) {
          // In particular kConflict must NEVER escape RunTx's retry loop.
          ++bad;
          ADD_FAILURE() << path << ": " << st.ToString();
        }
      });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(winners.load(), 1) << path;
    EXPECT_EQ(bad.load(), 0);
    EXPECT_TRUE(setup.Stat(path).ok());
  }
}

TEST(OccNamenodeTest, RenameRacingCreateOnOneParentStaysConsistent) {
  auto cluster = StartOccCluster(/*num_handlers=*/4, /*async_commit=*/false);
  ASSERT_NE(cluster, nullptr);
  auto setup = cluster->NewClient(fs::NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/p").ok());
  constexpr int kOps = 24;
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(setup.CreateFile("/p/src" + std::to_string(i)).ok());
  }

  // Both threads mutate the SAME parent directory row (mtime/children), so
  // under OCC every pair of overlapping transactions is a conflict candidate.
  std::atomic<int> bad{0};
  std::thread renamer([&] {
    auto client = cluster->NewClient(fs::NamenodePolicy::kRoundRobin, "renamer", 7);
    for (int i = 0; i < kOps; ++i) {
      hops::Status st =
          client.Rename("/p/src" + std::to_string(i), "/p/dst" + std::to_string(i));
      if (!st.ok()) {
        ++bad;
        ADD_FAILURE() << "rename " << i << ": " << st.ToString();
      }
    }
  });
  std::thread creator([&] {
    auto client = cluster->NewClient(fs::NamenodePolicy::kRoundRobin, "creator", 8);
    for (int i = 0; i < kOps; ++i) {
      hops::Status st = client.CreateFile("/p/new" + std::to_string(i));
      if (!st.ok()) {
        ++bad;
        ADD_FAILURE() << "create " << i << ": " << st.ToString();
      }
    }
  });
  renamer.join();
  creator.join();
  ASSERT_EQ(bad.load(), 0);

  // Every acked mutation is visible: renames moved, creates landed.
  for (int i = 0; i < kOps; ++i) {
    EXPECT_FALSE(setup.Stat("/p/src" + std::to_string(i)).ok());
    EXPECT_TRUE(setup.Stat("/p/dst" + std::to_string(i)).ok());
    EXPECT_TRUE(setup.Stat("/p/new" + std::to_string(i)).ok());
  }
  auto listing = setup.List("/p");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), size_t(2 * kOps));
}

TEST(OccNamenodeTest, IntentLogAppendRacesLoseNoAcks) {
  // Async metadata commits: every ack is an intent-log append racing the
  // applier's reads and the cleaner's deletes on the same partition.
  auto cluster = StartOccCluster(/*num_handlers=*/4, /*async_commit=*/true);
  ASSERT_NE(cluster, nullptr);
  auto setup = cluster->NewClient(fs::NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/async").ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 20;
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Sticky clients: read-your-writes holds per namenode.
      auto client = cluster->NewClient(fs::NamenodePolicy::kSticky,
                                       "w" + std::to_string(t), uint64_t(t + 1));
      for (int i = 0; i < kPerThread; ++i) {
        const std::string path =
            "/async/t" + std::to_string(t) + "_f" + std::to_string(i);
        hops::Status st = client.CreateFile(path);
        if (!st.ok()) {
          ++bad;
          ADD_FAILURE() << path << ": " << st.ToString();
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(bad.load(), 0);

  cluster->DrainIntents();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      const std::string path = "/async/t" + std::to_string(t) + "_f" + std::to_string(i);
      EXPECT_TRUE(setup.Stat(path).ok()) << path;
    }
  }
  fs::ClusterIntentStats intents = cluster->AggregateIntentStats();
  EXPECT_GE(intents.log.acked_ops, uint64_t(kThreads * kPerThread));
}

TEST(OccNamenodeTest, TwoNamenodesMkdirsOneNewDirectoryEveryCallSucceeds) {
  // mkdirs is idempotent: when two namenodes race to create one new
  // directory, both calls must succeed, with sync and with async commit.
  for (bool async_commit : {false, true}) {
    SCOPED_TRACE(async_commit ? "async" : "sync");
    auto cluster = StartOccCluster(/*num_handlers=*/4, async_commit);
    ASSERT_NE(cluster, nullptr);
    ASSERT_GE(cluster->num_namenodes(), 2);
    constexpr int kRounds = 200;
    std::atomic<int> ready{0};
    std::atomic<int> bad{0};
    auto racer = [&](int nn) {
      for (int round = 0; round < kRounds; ++round) {
        // Both racers start each round together.
        ready.fetch_add(1);
        while (ready.load() < 2 * (round + 1)) std::this_thread::yield();
        const std::string path = "/race" + std::to_string(round);
        hops::Status st = cluster->namenode(nn).Mkdirs(path);
        if (!st.ok()) {
          ++bad;
          ADD_FAILURE() << "nn " << nn << " mkdirs " << path << ": " << st.ToString();
        }
      }
    };
    std::thread a(racer, 0);
    std::thread b(racer, 1);
    a.join();
    b.join();
    EXPECT_EQ(bad.load(), 0);
    cluster->DrainIntents();
    EXPECT_EQ(cluster->AggregateIntentStats().log.apply_failures, 0u);
    auto setup = cluster->NewClient(fs::NamenodePolicy::kRoundRobin, "check");
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_TRUE(setup.Stat("/race" + std::to_string(round)).ok()) << round;
    }
  }
}

// --- Cross-engine equivalence ------------------------------------------------

// Sorted one-line-per-inode dump of the namespace under `root` (the chaos
// harness's convergence preimage, rebuilt here for a two-cluster diff).
std::vector<std::string> NamespaceLines(MiniCluster& cluster, const std::string& root) {
  auto client = cluster.NewClient(fs::NamenodePolicy::kRoundRobin, "walker");
  std::vector<std::string> out;
  std::vector<std::string> stack{root};
  while (!stack.empty()) {
    std::string dir = stack.back();
    stack.pop_back();
    auto children = client.List(dir);
    if (!children.ok()) continue;
    for (const fs::FileStatus& c : *children) {
      std::string path = dir + "/" + c.name;
      out.push_back(path + "|" + (c.is_dir ? "d" : "f") + "|" + std::to_string(c.perm) +
                    "|" + c.owner + "|" + c.group);
      if (c.is_dir) stack.push_back(path);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// One deterministic metadata script, both backends, identical namespaces.
// (When HOPS_KV_ENGINE is set both clusters resolve to the pinned engine and
// the comparison degenerates to a self-check; the unpinned tier-1 run is the
// leg that actually crosses engines.)
TEST(EngineEquivalenceTest, ScriptedNamespaceFingerprintsMatchAcrossEngines) {
  auto run = [](kv::EngineKind engine) {
    MiniClusterOptions o;
    o.fs.kv_engine = engine;
    auto cluster = MiniCluster::Start(std::move(o));
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    auto client = (*cluster)->NewClient(fs::NamenodePolicy::kRoundRobin, "script");
    EXPECT_TRUE(client.Mkdirs("/eq/a/b").ok());
    EXPECT_TRUE(client.Mkdirs("/eq/c").ok());
    for (int i = 0; i < 8; ++i) {
      EXPECT_TRUE(client.CreateFile("/eq/a/b/f" + std::to_string(i)).ok());
    }
    EXPECT_TRUE(client.SetPermission("/eq/a/b/f0", 0600).ok());
    EXPECT_TRUE(client.SetOwner("/eq/a/b/f1", "alice", "eng").ok());
    EXPECT_TRUE(client.Rename("/eq/a/b/f2", "/eq/c/moved").ok());
    EXPECT_TRUE(client.Delete("/eq/a/b/f3").ok());
    EXPECT_TRUE(client.Rename("/eq/a", "/eq/a2").ok());
    return NamespaceLines(**cluster, "/eq");
  };
  std::vector<std::string> pessimistic = run(kv::EngineKind::kNdb);
  std::vector<std::string> optimistic = run(kv::EngineKind::kOcc);
  ASSERT_FALSE(pessimistic.empty());
  EXPECT_EQ(pessimistic, optimistic);
}

}  // namespace
}  // namespace hops
