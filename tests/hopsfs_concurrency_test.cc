// Multi-threaded, multi-namenode behaviour: parallel non-conflicting ops,
// serialization of conflicting ops, client failover with zero downtime,
// database-node failure handling (§7.6), and the handler-pool stress
// offensive: many concurrent clients funneled through a bounded pool of
// handler threads, verified against a single-threaded oracle replay of the
// same deterministic op scripts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "hopsfs/mini_cluster.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace hops::fs {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MiniClusterOptions options;
    options.db.num_datanodes = 4;
    options.db.replication = 2;
    options.db.lock_wait_timeout = std::chrono::milliseconds(250);
    options.num_namenodes = 3;
    options.num_datanodes = 3;
    auto cluster = MiniCluster::Start(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = *std::move(cluster);
  }

  std::unique_ptr<MiniCluster> cluster_;
};

TEST_F(ConcurrencyTest, ParallelCreatesInDistinctDirs) {
  constexpr int kThreads = 4;
  constexpr int kFilesEach = 25;
  {
    Client setup = cluster_->NewClient(NamenodePolicy::kRoundRobin, "setup");
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(setup.Mkdirs("/w" + std::to_string(t)).ok());
    }
  }
  hops::ThreadPool pool(kThreads);
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&, t] {
      Client c = cluster_->NewClient(NamenodePolicy::kRoundRobin,
                                     "c" + std::to_string(t), 100 + t);
      for (int i = 0; i < kFilesEach; ++i) {
        std::string path = "/w" + std::to_string(t) + "/f" + std::to_string(i);
        if (!c.WriteFile(path, 1, 10).ok()) failures.fetch_add(1);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(failures.load(), 0);
  Client check = cluster_->NewClient(NamenodePolicy::kRandom, "check");
  for (int t = 0; t < kThreads; ++t) {
    auto listing = check.List("/w" + std::to_string(t));
    ASSERT_TRUE(listing.ok());
    EXPECT_EQ(listing->size(), static_cast<size_t>(kFilesEach));
  }
}

TEST_F(ConcurrencyTest, ConflictingCreatesExactlyOneWins) {
  Client setup = cluster_->NewClient(NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/race").ok());
  constexpr int kThreads = 4;
  hops::ThreadPool pool(kThreads);
  std::atomic<int> wins{0};
  std::atomic<int> already{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&, t] {
      // Each contender uses a different namenode when possible.
      Namenode& nn = cluster_->namenode(t % cluster_->num_namenodes());
      auto st = nn.Create("/race/same", "client" + std::to_string(t));
      if (st.ok()) {
        wins.fetch_add(1);
      } else if (st.code() == hops::StatusCode::kAlreadyExists ||
                 st.code() == hops::StatusCode::kLeaseConflict) {
        already.fetch_add(1);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(wins.load(), 1);
  EXPECT_EQ(already.load(), kThreads - 1);
}

TEST_F(ConcurrencyTest, ConcurrentRenamesOfSameSourceOneWins) {
  Client setup = cluster_->NewClient(NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/mv").ok());
  ASSERT_TRUE(setup.WriteFile("/mv/f", 1, 1).ok());
  std::atomic<int> wins{0};
  std::thread t1([&] {
    if (cluster_->namenode(0).Rename("/mv/f", "/mv/a").ok()) wins.fetch_add(1);
  });
  std::thread t2([&] {
    if (cluster_->namenode(1).Rename("/mv/f", "/mv/b").ok()) wins.fetch_add(1);
  });
  t1.join();
  t2.join();
  EXPECT_EQ(wins.load(), 1);
  int present = 0;
  present += setup.Stat("/mv/a").ok() ? 1 : 0;
  present += setup.Stat("/mv/b").ok() ? 1 : 0;
  EXPECT_EQ(present, 1);
  EXPECT_FALSE(setup.Stat("/mv/f").ok());
}

TEST_F(ConcurrencyTest, CrossingRenamesSerializeWithoutDeadlock) {
  // Two renames whose lock sets cross: /x/a -> /y/pa while /y/b -> /x/pb.
  // Each transaction's batched lock phase must wait in the left-ordered
  // path total order (kStagedOrder), so the two lock sets conflict in the
  // same sequence and queue instead of deadlocking into lock timeouts.
  Client setup = cluster_->NewClient(NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/x").ok());
  ASSERT_TRUE(setup.Mkdirs("/y").ok());
  constexpr int kIters = 20;
  std::atomic<int> failures{0};
  auto flip = [&](Namenode& nn, const std::string& from_dir, const std::string& to_dir,
                  const std::string& name) {
    for (int i = 0; i < kIters; ++i) {
      std::string src = from_dir + "/" + name + std::to_string(i);
      std::string dst = to_dir + "/" + name + std::to_string(i);
      if (!nn.Create(src, "c").ok() || !nn.CompleteFile(src, "c").ok() ||
          !nn.Rename(src, dst).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  };
  std::thread t1([&] { flip(cluster_->namenode(0), "/x", "/y", "pa"); });
  std::thread t2([&] { flip(cluster_->namenode(1), "/y", "/x", "pb"); });
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0);
  // The renames retried past any transient conflict without a single lock
  // timeout: the crossing lock phases queued, they never cycled.
  EXPECT_EQ(cluster_->db().StatsSnapshot().lock_timeouts, 0u);
  auto in_x = setup.List("/x");
  auto in_y = setup.List("/y");
  ASSERT_TRUE(in_x.ok());
  ASSERT_TRUE(in_y.ok());
  EXPECT_EQ(in_x->size(), static_cast<size_t>(kIters));  // pb files landed in /x
  EXPECT_EQ(in_y->size(), static_cast<size_t>(kIters));  // pa files landed in /y
}

TEST_F(ConcurrencyTest, MixedReadWriteLoadKeepsNamespaceConsistent) {
  Client setup = cluster_->NewClient(NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/mix/a").ok());
  ASSERT_TRUE(setup.Mkdirs("/mix/b").ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(setup.WriteFile("/mix/a/f" + std::to_string(i), 1, 10).ok());
  }
  hops::ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::atomic<int> hard_failures{0};
  // Two readers...
  for (int t = 0; t < 2; ++t) {
    pool.Submit([&, t] {
      Client c = cluster_->NewClient(NamenodePolicy::kSticky, "r" + std::to_string(t),
                                     200 + t);
      while (!stop.load()) {
        (void)c.List("/mix/a");
        (void)c.Stat("/mix/a/f3");
        (void)c.Read("/mix/a/f3");
      }
    });
  }
  // ...against a renamer and a create/delete churner.
  pool.Submit([&] {
    Client c = cluster_->NewClient(NamenodePolicy::kSticky, "mv", 300);
    for (int i = 0; i < 30; ++i) {
      if (!c.Rename("/mix/a/f0", "/mix/b/f0").ok()) hard_failures.fetch_add(1);
      if (!c.Rename("/mix/b/f0", "/mix/a/f0").ok()) hard_failures.fetch_add(1);
    }
    stop.store(true);
  });
  pool.Submit([&] {
    Client c = cluster_->NewClient(NamenodePolicy::kSticky, "churn", 400);
    int i = 0;
    while (!stop.load()) {
      std::string path = "/mix/b/tmp" + std::to_string(i++);
      if (c.WriteFile(path, 1, 5).ok()) {
        if (!c.Delete(path, false).ok()) hard_failures.fetch_add(1);
      }
    }
  });
  pool.Wait();
  EXPECT_EQ(hard_failures.load(), 0);
  EXPECT_TRUE(setup.Stat("/mix/a/f0").ok());
  auto listing = setup.List("/mix/a");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 10u);
}

TEST_F(ConcurrencyTest, ClientFailsOverWhenNamenodeDies) {
  Client c = cluster_->NewClient(NamenodePolicy::kSticky, "c1");
  ASSERT_TRUE(c.Mkdirs("/ha").ok());
  ASSERT_TRUE(c.WriteFile("/ha/f", 1, 10).ok());
  // Kill namenodes one at a time; the sticky client keeps working with no
  // downtime as long as one namenode survives (§7.6.1).
  for (int killed = 0; killed + 1 < cluster_->num_namenodes(); ++killed) {
    cluster_->KillNamenode(killed);
    auto st = c.Stat("/ha/f");
    EXPECT_TRUE(st.ok()) << "after killing nn" << killed << ": "
                         << st.status().ToString();
    EXPECT_TRUE(c.WriteFile("/ha/g" + std::to_string(killed), 1, 5).ok());
  }
  EXPECT_GT(c.failovers(), 0u);
  // All namenodes dead: unavailable.
  cluster_->KillNamenode(cluster_->num_namenodes() - 1);
  EXPECT_EQ(c.Stat("/ha/f").status().code(), hops::StatusCode::kUnavailable);
  // A restarted namenode restores service.
  ASSERT_TRUE(cluster_->RestartNamenode(0).ok());
  EXPECT_TRUE(c.Stat("/ha/f").ok());
}

TEST_F(ConcurrencyTest, OperationsSurviveNdbDatanodeFailure) {
  Client c = cluster_->NewClient(NamenodePolicy::kRoundRobin, "c1");
  ASSERT_TRUE(c.Mkdirs("/ndb").ok());
  ASSERT_TRUE(c.WriteFile("/ndb/f", 1, 10).ok());
  // Kill one NDB datanode per node group: every partition still has a
  // replica, so the file system keeps working (§7.6.2).
  cluster_->db().KillDatanode(0);
  cluster_->db().KillDatanode(2);
  EXPECT_TRUE(cluster_->db().Available());
  EXPECT_TRUE(c.Stat("/ndb/f").ok());
  EXPECT_TRUE(c.WriteFile("/ndb/g", 1, 10).ok());
  // Kill the second member of group 0: the cluster is down.
  cluster_->db().KillDatanode(1);
  EXPECT_FALSE(cluster_->db().Available());
  bool saw_unavailable = false;
  for (int i = 0; i < 20 && !saw_unavailable; ++i) {
    auto st = c.Stat("/ndb/probe" + std::to_string(i));
    if (st.status().code() == hops::StatusCode::kUnavailable) saw_unavailable = true;
  }
  EXPECT_TRUE(saw_unavailable);
  // Recovery: restart the NDB node; the namespace is intact.
  cluster_->db().RestartDatanode(1);
  EXPECT_TRUE(c.Stat("/ndb/f").ok());
}

TEST_F(ConcurrencyTest, HotspotDirectoryStillCorrectUnderContention) {
  // All operations hammer one directory (§7.2.1): throughput is bounded by
  // one shard but correctness must hold.
  Client setup = cluster_->NewClient(NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/shared-dir").ok());
  hops::ThreadPool pool(4);
  std::atomic<int> created{0};
  for (int t = 0; t < 4; ++t) {
    pool.Submit([&, t] {
      Client c = cluster_->NewClient(NamenodePolicy::kRoundRobin,
                                     "hot" + std::to_string(t), 500 + t);
      for (int i = 0; i < 20; ++i) {
        std::string path = "/shared-dir/t" + std::to_string(t) + "_" + std::to_string(i);
        if (c.WriteFile(path, 1, 1).ok()) created.fetch_add(1);
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(created.load(), 80);
  auto listing = setup.List("/shared-dir");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), 80u);
}

// ---------------------------------------------------------------------------
// Multi-namenode hint staleness (§5.1): a rename / subtree op on NN-A leaves
// NN-B's hints stale. NN-B must resolve correctly through them with no
// heartbeat in between, and a resolution that proves a hint dead evicts it.
// ---------------------------------------------------------------------------

TEST_F(ConcurrencyTest, CrossNamenodeRenameStalenessRepairsLazilyBeforeTheTick) {
  Namenode& a = cluster_->namenode(0);
  Namenode& b = cluster_->namenode(1);
  ASSERT_TRUE(a.Mkdirs("/stale").ok());
  ASSERT_TRUE(a.Create("/stale/f", "c").ok());
  ASSERT_TRUE(a.CompleteFile("/stale/f", "c").ok());
  // NN-B caches the full chain for /stale/f.
  ASSERT_TRUE(b.GetFileInfo("/stale/f").ok());
  ASSERT_EQ(b.hint_cache().PeekChain({"stale", "f"}).size(), 2u);
  // Rename on NN-A. No heartbeat has run: NN-B still holds the stale hints.
  ASSERT_TRUE(a.Rename("/stale/f", "/stale/g").ok());
  ASSERT_EQ(b.hint_cache().PeekChain({"stale", "f"}).size(), 2u);
  // Lazy repair: NN-B must resolve correctly THROUGH the stale hint.
  EXPECT_EQ(b.GetFileInfo("/stale/f").status().code(), hops::StatusCode::kNotFound);
  EXPECT_TRUE(b.GetFileInfo("/stale/g").ok());
  // Regression (stale-hint fallback): the NotFound resolution must have
  // evicted the dead target hint -- the next resolution is not doomed to
  // re-lock the same dead key.
  EXPECT_LT(b.hint_cache().PeekChain({"stale", "f"}).size(), 2u);
}

TEST_F(ConcurrencyTest, SubtreeRenameRepairsPeerHintsLazily) {
  Namenode& a = cluster_->namenode(0);
  Namenode& b = cluster_->namenode(1);
  ASSERT_TRUE(a.Mkdirs("/pro/dir").ok());
  ASSERT_TRUE(a.Create("/pro/dir/f", "c").ok());
  ASSERT_TRUE(a.CompleteFile("/pro/dir/f", "c").ok());
  ASSERT_TRUE(b.GetFileInfo("/pro/dir/f").ok());
  // /pro/dir has a child, so this goes through the subtree protocol (§6).
  ASSERT_TRUE(a.Rename("/pro/dir", "/pro/dir2").ok());
  // No heartbeat: NN-B still holds the whole 3-deep stale chain.
  ASSERT_EQ(b.hint_cache().PeekChain({"pro", "dir", "f"}).size(), 3u);
  EXPECT_TRUE(b.GetFileInfo("/pro/dir2/f").ok());
  EXPECT_EQ(b.GetFileInfo("/pro/dir/f").status().code(), hops::StatusCode::kNotFound);
  // The NotFound resolution erased the dead /pro/dir entry, which breaks
  // the chain there; /pro itself is still live.
  EXPECT_EQ(b.hint_cache().PeekChain({"pro", "dir", "f"}).size(), 1u);
  EXPECT_EQ(b.GetFileInfo("/pro/dir/f").status().code(), hops::StatusCode::kNotFound);
}

TEST_F(ConcurrencyTest, SubtreeDeleteRepairsPeerHintsLazily) {
  Namenode& a = cluster_->namenode(0);
  Namenode& b = cluster_->namenode(1);
  ASSERT_TRUE(a.Mkdirs("/gone/sub").ok());
  ASSERT_TRUE(a.Create("/gone/sub/f", "c").ok());
  ASSERT_TRUE(a.CompleteFile("/gone/sub/f", "c").ok());
  ASSERT_TRUE(b.GetFileInfo("/gone/sub/f").ok());
  ASSERT_TRUE(a.Delete("/gone", true).ok());
  ASSERT_EQ(b.hint_cache().PeekChain({"gone", "sub", "f"}).size(), 3u);
  EXPECT_EQ(b.GetFileInfo("/gone/sub/f").status().code(), hops::StatusCode::kNotFound);
  EXPECT_TRUE(b.hint_cache().PeekChain({"gone"}).empty());
  // Recreating the path on NN-A is visible on NN-B at once.
  ASSERT_TRUE(a.Mkdirs("/gone/sub").ok());
  EXPECT_TRUE(b.GetFileInfo("/gone/sub").ok());
}

TEST_F(ConcurrencyTest, ConcurrentDatanodePicksAreAlwaysDistinct) {
  // Every namenode of the cluster places replicas through this one picker,
  // and namenodes pick concurrently. A call's targets must never repeat a
  // datanode (a duplicate fails addBlock with ALREADY_EXISTS).
  constexpr int kThreads = 8, kPicks = 2000;
  const int replicas = cluster_->num_datanodes();
  std::atomic<int> bad{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPicks; ++i) {
        std::vector<DatanodeId> targets = cluster_->PickDatanodes(replicas);
        std::sort(targets.begin(), targets.end());
        if (static_cast<int>(targets.size()) != replicas ||
            std::adjacent_find(targets.begin(), targets.end()) != targets.end()) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(ConcurrencyTest, ConcurrentAddBlockAcrossNamenodesNeverDuplicatesATarget) {
  constexpr int kThreads = 8, kBlocks = 200;
  Client setup = cluster_->NewClient(NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/blk").ok());
  std::atomic<int> already_exists{0}, other_failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Namenode& nn = cluster_->namenode(t % 2);
      const std::string client = "w" + std::to_string(t);
      const std::string path = "/blk/f" + std::to_string(t);
      if (!nn.Create(path, client).ok()) {
        other_failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kBlocks; ++i) {
        auto block = nn.AddBlock(path, client, 1);
        if (block.ok()) continue;
        if (block.status().code() == hops::StatusCode::kAlreadyExists) {
          already_exists.fetch_add(1);
        } else {
          other_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(already_exists.load(), 0);
  EXPECT_EQ(other_failures.load(), 0);
}

TEST_F(ConcurrencyTest, RenameInvalidatesDestinationPrefixHints) {
  // Regression: Rename used to invalidate only the src prefix, leaving hints
  // under the dst prefix pointing at a previous occupant's inode.
  Namenode& nn = cluster_->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/c").ok());
  ASSERT_TRUE(nn.Create("/srcfile", "c").ok());
  ASSERT_TRUE(nn.CompleteFile("/srcfile", "c").ok());
  auto c_info = nn.GetFileInfo("/c");
  ASSERT_TRUE(c_info.ok());
  // A hint under the destination prefix, as a since-replaced occupant of
  // /c/d would have left behind.
  nn.hint_cache().Put(c_info->inode_id, "d", /*inode_id=*/999999);
  ASSERT_TRUE(nn.Rename("/srcfile", "/c/d").ok());
  auto hints = nn.hint_cache().PeekChain({"c", "d"});
  ASSERT_LT(hints.size(), 2u) << "the stale /c/d hint must be gone";
  // And the renamed file is fully usable at its new path.
  auto moved = nn.GetFileInfo("/c/d");
  ASSERT_TRUE(moved.ok());
  EXPECT_NE(moved->inode_id, 999999);
}

TEST_F(ConcurrencyTest, CreateOverStaleHintStillCachesTheNewInode) {
  Namenode& a = cluster_->namenode(0);
  Namenode& b = cluster_->namenode(1);
  ASSERT_TRUE(a.Mkdirs("/adopt").ok());
  ASSERT_TRUE(a.Create("/adopt/f", "c").ok());
  ASSERT_TRUE(a.CompleteFile("/adopt/f", "c").ok());
  ASSERT_TRUE(b.GetFileInfo("/adopt/f").ok());    // B caches the chain
  ASSERT_TRUE(a.Delete("/adopt/f", false).ok());  // delete on A; no tick yet
  ASSERT_EQ(b.hint_cache().PeekChain({"adopt", "f"}).size(), 2u);
  // Create over the stale hint on B: the NotFound fallback erases the dead
  // hint, and the create must still cache its own fresh inode.
  ASSERT_TRUE(b.Create("/adopt/f", "c2").ok());
  auto info = b.GetFileInfo("/adopt/f");
  ASSERT_TRUE(info.ok());
  auto hints = b.hint_cache().PeekChain({"adopt", "f"});
  ASSERT_EQ(hints.size(), 2u);
  EXPECT_EQ(hints[1].inode_id, info->inode_id);
}

TEST_F(ConcurrencyTest, RenamedDirectoryKeepsDescendantHints) {
  // Hints are keyed by (parent id, name) and a move keeps the directory's
  // id: renaming a non-empty directory stales only its own entry, so one
  // resolution of the new name makes its whole cached subtree reachable.
  Namenode& nn = cluster_->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/r/d").ok());
  ASSERT_TRUE(nn.Create("/r/d/f", "c").ok());
  ASSERT_TRUE(nn.CompleteFile("/r/d/f", "c").ok());
  ASSERT_TRUE(nn.GetFileInfo("/r/d/f").ok());
  ASSERT_TRUE(nn.Rename("/r/d", "/r/e").ok());
  ASSERT_TRUE(nn.GetFileInfo("/r/e").ok());
  EXPECT_EQ(nn.hint_cache().PeekChain({"r", "e", "f"}).size(), 3u);
  EXPECT_TRUE(nn.GetFileInfo("/r/e/f").ok());
  EXPECT_EQ(nn.GetFileInfo("/r/d/f").status().code(), hops::StatusCode::kNotFound);
}

TEST_F(ConcurrencyTest, RecursiveDeleteLeavesNoHintForDeletedInodes) {
  // A subtree delete erases every deleted inode's entry as its batch
  // commits; without that the entries, unreachable from the root, would
  // sit in the cache until LRU eviction.
  Namenode& nn = cluster_->namenode(0);
  const size_t before = nn.hint_cache().size();
  ASSERT_TRUE(nn.Mkdirs("/j").ok());
  for (int i = 0; i < 64; ++i) {
    const std::string path = "/j/f" + std::to_string(i);
    ASSERT_TRUE(nn.Create(path, "c").ok());
    ASSERT_TRUE(nn.CompleteFile(path, "c").ok());
  }
  ASSERT_GT(nn.hint_cache().size(), before);
  ASSERT_TRUE(nn.Delete("/j", true).ok());
  EXPECT_EQ(nn.hint_cache().size(), before);
}

// ---------------------------------------------------------------------------
// Handler-pool stress offensive: concurrent clients through a bounded
// handler pool, verified against a single-threaded oracle.
// ---------------------------------------------------------------------------

class HandlerPoolTest : public ::testing::Test {
 protected:
  static std::unique_ptr<MiniCluster> MakeCluster(int num_handlers, int num_namenodes) {
    MiniClusterOptions options;
    options.db.num_datanodes = 4;
    options.db.replication = 2;
    options.db.lock_wait_timeout = std::chrono::milliseconds(500);
    options.fs.num_handlers = num_handlers;
    options.num_namenodes = num_namenodes;
    options.num_datanodes = 3;
    auto cluster = MiniCluster::Start(options);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    return *std::move(cluster);
  }

  // One worker's deterministic op script (mixed mkdir / create / rename /
  // delete / getBlockLocations / stat in its own directory). The sampled
  // stream depends only on (worker, ops) and prior statuses, so replaying
  // it single-threaded on a second cluster must produce the identical
  // status sequence and final namespace.
  static std::vector<hops::StatusCode> RunScript(Client& c, int worker, int ops) {
    std::vector<hops::StatusCode> statuses;
    hops::Rng rng(1000 + static_cast<uint64_t>(worker));
    const std::string base = "/stress/w" + std::to_string(worker);
    statuses.push_back(c.Mkdirs(base).code());
    std::vector<std::string> files;
    int counter = 0;
    auto record = [&](const hops::Status& st) { statuses.push_back(st.code()); };
    for (int i = 0; i < ops; ++i) {
      switch (rng.Below(6)) {
        case 0:
          record(c.Mkdirs(base + "/d" + std::to_string(counter++)));
          break;
        case 1: {
          std::string path = base + "/f" + std::to_string(counter++);
          hops::Status st = c.WriteFile(path, 1, 64);
          record(st);
          if (st.ok()) files.push_back(path);
          break;
        }
        case 2: {
          if (files.empty()) break;
          size_t k = rng.Below(files.size());
          std::string dst = base + "/r" + std::to_string(counter++);
          hops::Status st = c.Rename(files[k], dst);
          record(st);
          if (st.ok()) files[k] = dst;
          break;
        }
        case 3: {
          if (files.empty()) break;
          size_t k = rng.Below(files.size());
          hops::Status st = c.Delete(files[k], false);
          record(st);
          if (st.ok()) files.erase(files.begin() + static_cast<long>(k));
          break;
        }
        case 4:
          if (!files.empty()) record(c.Read(files[rng.Below(files.size())]).status());
          break;
        case 5:
          if (!files.empty()) record(c.Stat(files[rng.Below(files.size())]).status());
          break;
      }
    }
    return statuses;
  }

  // Recursive listing under `path`: sorted (path, is_dir, size) triples --
  // the namespace fingerprint compared between the stressed cluster and the
  // oracle.
  static void ListTree(Client& c, const std::string& path,
                       std::vector<std::tuple<std::string, bool, int64_t>>& out) {
    auto listing = c.List(path);
    ASSERT_TRUE(listing.ok()) << path << ": " << listing.status().ToString();
    for (const auto& st : *listing) {
      std::string child = path + "/" + st.name;
      out.emplace_back(child, st.is_dir, st.is_dir ? 0 : st.size);
      if (st.is_dir) ListTree(c, child, out);
    }
  }

  static std::vector<std::tuple<std::string, bool, int64_t>> Fingerprint(Client& c) {
    std::vector<std::tuple<std::string, bool, int64_t>> out;
    ListTree(c, "/stress", out);
    std::sort(out.begin(), out.end());
    return out;
  }
};

TEST_F(HandlerPoolTest, StressedPoolMatchesSingleThreadedOracleReplay) {
  constexpr int kWorkers = 6;
  constexpr int kOps = 40;

  // Stressed run: 6 concurrent clients behind 3 handlers per namenode.
  auto stressed = MakeCluster(/*num_handlers=*/3, /*num_namenodes=*/2);
  {
    Client setup = stressed->NewClient(NamenodePolicy::kRoundRobin, "setup");
    ASSERT_TRUE(setup.Mkdirs("/stress").ok());
  }
  std::vector<std::vector<hops::StatusCode>> stressed_statuses(kWorkers);
  {
    std::vector<std::thread> threads;
    for (int w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        Client c = stressed->NewClient(NamenodePolicy::kRoundRobin,
                                       "c" + std::to_string(w), 100 + w);
        stressed_statuses[static_cast<size_t>(w)] = RunScript(c, w, kOps);
      });
    }
    for (auto& t : threads) t.join();
  }
  // The pool really served the requests.
  uint64_t served = 0;
  for (int i = 0; i < stressed->num_namenodes(); ++i) {
    ASSERT_NE(stressed->namenode(i).handler_pool(), nullptr);
    served += stressed->namenode(i).handler_pool()->requests_served();
  }
  EXPECT_GT(served, 0u);

  // Oracle: the same scripts replayed one worker at a time on an inline
  // (no pool) cluster.
  auto oracle = MakeCluster(/*num_handlers=*/0, /*num_namenodes=*/1);
  {
    Client setup = oracle->NewClient(NamenodePolicy::kSticky, "setup");
    ASSERT_TRUE(setup.Mkdirs("/stress").ok());
  }
  for (int w = 0; w < kWorkers; ++w) {
    Client c = oracle->NewClient(NamenodePolicy::kSticky, "o" + std::to_string(w), 100 + w);
    auto statuses = RunScript(c, w, kOps);
    EXPECT_EQ(statuses, stressed_statuses[static_cast<size_t>(w)])
        << "worker " << w << ": op outcomes must match the oracle";
  }

  // Final namespaces are identical.
  Client sc = stressed->NewClient(NamenodePolicy::kRoundRobin, "verify-s");
  Client oc = oracle->NewClient(NamenodePolicy::kSticky, "verify-o");
  auto stressed_tree = Fingerprint(sc);
  auto oracle_tree = Fingerprint(oc);
  EXPECT_EQ(stressed_tree, oracle_tree);
  EXPECT_FALSE(stressed_tree.empty());
}

TEST_F(HandlerPoolTest, ManyMoreClientsThanHandlersAllSucceed) {
  auto cluster = MakeCluster(/*num_handlers=*/2, /*num_namenodes=*/1);
  {
    Client setup = cluster->NewClient(NamenodePolicy::kSticky, "setup");
    ASSERT_TRUE(setup.Mkdirs("/q").ok());
  }
  constexpr int kClients = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      Client c = cluster->NewClient(NamenodePolicy::kSticky, "q" + std::to_string(t), 40 + t);
      for (int i = 0; i < 10; ++i) {
        std::string path = "/q/t" + std::to_string(t) + "_" + std::to_string(i);
        if (!c.WriteFile(path, 1, 8).ok()) failures.fetch_add(1);
        if (!c.Read(path).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  Client check = cluster->NewClient(NamenodePolicy::kSticky, "check");
  auto listing = check.List("/q");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), static_cast<size_t>(kClients * 10));
  // 8 clients funneled through 2 handlers: the pool stayed the bottleneck,
  // never a correctness hazard.
  EXPECT_GE(cluster->namenode(0).handler_pool()->requests_served(),
            static_cast<uint64_t>(kClients * 10));
}

TEST_F(HandlerPoolTest, SubtreeWaitersDoNotStarveTheSubtreeOperation) {
  // Regression: subtree-lock waiters used to back off while HOLDING their
  // handler slot, so with as many waiters as handlers the subtree
  // operation's own phase transactions starved behind them (priority
  // inversion) and every waiter deterministically exhausted its retries.
  // Backoff sleeps now happen on the caller's thread, so waiters drain from
  // the pool, the subtree delete progresses, and the waiters' retries
  // succeed once the lock clears.
  auto cluster = MakeCluster(/*num_handlers=*/2, /*num_namenodes=*/1);
  Client setup = cluster->NewClient(NamenodePolicy::kSticky, "setup");
  ASSERT_TRUE(setup.Mkdirs("/d/sub").ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(setup.WriteFile("/d/sub/f" + std::to_string(i), 1, 8).ok());
  }
  std::atomic<bool> deleting{true};
  std::atomic<int> subtree_locked_failures{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 2; ++t) {  // as many waiters as handlers
    waiters.emplace_back([&, t] {
      Client c = cluster->NewClient(NamenodePolicy::kSticky, "w" + std::to_string(t), 60 + t);
      while (deleting.load()) {
        auto st = c.Stat("/d/sub/f0").status();
        if (st.code() == hops::StatusCode::kSubtreeLocked) {
          subtree_locked_failures.fetch_add(1);
        }
      }
    });
  }
  Client deleter = cluster->NewClient(NamenodePolicy::kSticky, "del", 99);
  hops::Status del = deleter.Delete("/d", true);
  deleting.store(false);
  for (auto& t : waiters) t.join();
  EXPECT_TRUE(del.ok()) << del.ToString();
  EXPECT_EQ(subtree_locked_failures.load(), 0)
      << "waiters must outwait the delete, not exhaust their retries";
  EXPECT_FALSE(setup.Stat("/d").ok());
}

TEST_F(HandlerPoolTest, ConflictingClientsThroughThePoolKeepInvariants) {
  // Cross-thread conflicts (same directory, crossing renames) through the
  // pool: outcomes are racy but the namespace invariants are not.
  auto cluster = MakeCluster(/*num_handlers=*/3, /*num_namenodes=*/2);
  Client setup = cluster->NewClient(NamenodePolicy::kRoundRobin, "setup");
  ASSERT_TRUE(setup.Mkdirs("/war/a").ok());
  ASSERT_TRUE(setup.Mkdirs("/war/b").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(setup.WriteFile("/war/a/f" + std::to_string(i), 1, 8).ok());
  }
  std::atomic<int> hard_failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Client c = cluster->NewClient(NamenodePolicy::kRoundRobin,
                                    "w" + std::to_string(t), 300 + t);
      hops::Rng rng(77 + static_cast<uint64_t>(t));
      for (int i = 0; i < 25; ++i) {
        int f = static_cast<int>(rng.Below(6));
        std::string a = "/war/a/f" + std::to_string(f);
        std::string b = "/war/b/f" + std::to_string(f);
        hops::Status st;
        switch (rng.Below(3)) {
          case 0:
            st = c.Rename(a, b);
            break;
          case 1:
            st = c.Rename(b, a);
            break;
          case 2:
            st = c.Read(rng.Chance(0.5) ? a : b).status();
            break;
        }
        // Losing a race (kNotFound / kAlreadyExists) is expected; timeouts,
        // deadlocks or corruption are not.
        if (st.code() == hops::StatusCode::kLockTimeout ||
            st.code() == hops::StatusCode::kInternal) {
          hard_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hard_failures.load(), 0);
  EXPECT_EQ(cluster->db().StatsSnapshot().lock_timeouts, 0u);
  // Every file exists in exactly one of the two directories.
  for (int i = 0; i < 6; ++i) {
    int present = 0;
    present += setup.Stat("/war/a/f" + std::to_string(i)).ok() ? 1 : 0;
    present += setup.Stat("/war/b/f" + std::to_string(i)).ok() ? 1 : 0;
    EXPECT_EQ(present, 1) << "file " << i;
  }
}

// Asynchronous metadata commits under the handler pool: many concurrent
// clients whose ops ack at intent durability, each immediately re-reading
// its own write. Read-your-writes must hold (the stat blocks on the covering
// intent, never reports NotFound), and after a drain the namespace matches
// what a synchronous cluster produces for the same ops.
TEST(AsyncCommitConcurrencyTest, ReadYourWritesUnderAsyncAck) {
  MiniClusterOptions options;
  options.db.num_datanodes = 4;
  options.db.replication = 2;
  options.db.lock_wait_timeout = std::chrono::milliseconds(500);
  options.fs.async_metadata_commit = true;
  options.fs.num_handlers = 3;
  options.num_namenodes = 2;
  auto made = MiniCluster::Start(options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto cluster = *std::move(made);

  {
    Client setup = cluster->NewClient(NamenodePolicy::kSticky, "setup");
    ASSERT_TRUE(setup.Mkdirs("/ryw").ok());
    cluster->DrainIntents();
  }
  constexpr int kThreads = 6;
  constexpr int kFilesEach = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Sticky clients: read-your-writes is a per-namenode guarantee.
      Client c = cluster->NewClient(NamenodePolicy::kSticky, "c" + std::to_string(t),
                                    200 + static_cast<uint64_t>(t));
      const std::string dir = "/ryw/t" + std::to_string(t);
      if (!c.Mkdirs(dir).ok()) failures.fetch_add(1);
      for (int i = 0; i < kFilesEach; ++i) {
        std::string path = dir + "/f" + std::to_string(i);
        if (!c.CreateFile(path).ok()) {
          failures.fetch_add(1);
          continue;
        }
        // The create may be acknowledged-but-unapplied; its own stat and
        // chmod must still observe it.
        auto st = c.Stat(path);
        if (!st.ok() || st->is_dir) failures.fetch_add(1);
        if (!c.SetPermission(path, 0700).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  cluster->DrainIntents();

  ClusterIntentStats stats = cluster->AggregateIntentStats();
  EXPECT_EQ(stats.log.intents_applied, stats.log.intents_appended);
  EXPECT_EQ(stats.log.apply_failures, 0u);
  EXPECT_GT(stats.log.acked_ops, 0u);

  // The drained namespace is exactly what the synchronous baseline builds.
  MiniClusterOptions sync_options = options;
  sync_options.fs.async_metadata_commit = false;
  auto oracle_made = MiniCluster::Start(sync_options);
  ASSERT_TRUE(oracle_made.ok());
  auto oracle = *std::move(oracle_made);
  Client oc = oracle->NewClient(NamenodePolicy::kSticky, "oracle");
  ASSERT_TRUE(oc.Mkdirs("/ryw").ok());
  for (int t = 0; t < kThreads; ++t) {
    const std::string dir = "/ryw/t" + std::to_string(t);
    ASSERT_TRUE(oc.Mkdirs(dir).ok());
    for (int i = 0; i < kFilesEach; ++i) {
      std::string path = dir + "/f" + std::to_string(i);
      ASSERT_TRUE(oc.CreateFile(path).ok());
      ASSERT_TRUE(oc.SetPermission(path, 0700).ok());
    }
  }
  Client ac = cluster->NewClient(NamenodePolicy::kSticky, "verify");
  for (int t = 0; t < kThreads; ++t) {
    const std::string dir = "/ryw/t" + std::to_string(t);
    auto async_listing = ac.List(dir);
    auto sync_listing = oc.List(dir);
    ASSERT_TRUE(async_listing.ok());
    ASSERT_TRUE(sync_listing.ok());
    ASSERT_EQ(async_listing->size(), sync_listing->size()) << dir;
    for (size_t i = 0; i < async_listing->size(); ++i) {
      EXPECT_EQ((*async_listing)[i].name, (*sync_listing)[i].name);
      EXPECT_EQ((*async_listing)[i].perm, (*sync_listing)[i].perm);
      EXPECT_EQ((*async_listing)[i].is_dir, (*sync_listing)[i].is_dir);
    }
  }
}

}  // namespace
}  // namespace hops::fs
