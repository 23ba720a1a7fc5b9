// The subtree operations protocol (§6): locking, quiescing, parallel batched
// execution, serialization against inode ops and other subtree ops, and --
// crucially -- consistency under namenode crashes (§6.2).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "hopsfs/mini_cluster.h"
#include "hopsfs/partition.h"

namespace hops::fs {
namespace {

using hops::HashBytes;

class SubtreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MiniClusterOptions options;
    options.db.num_datanodes = 4;
    options.db.replication = 2;
    options.db.lock_wait_timeout = std::chrono::milliseconds(300);
    options.fs.subtree_delete_batch = 8;
    options.fs.subtree_parallelism = 2;
    options.num_namenodes = 3;
    options.num_datanodes = 3;
    Configure(options);
    auto cluster = MiniCluster::Start(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = *std::move(cluster);
    client_ = std::make_unique<Client>(cluster_->NewClient(NamenodePolicy::kSticky, "c1"));
  }

  virtual void Configure(MiniClusterOptions& /*options*/) {}

  // Sets (or, with kNoSubtreeLock, clears) the subtree lock flag of the
  // top-level directory `name` by hand.
  void SetSubtreeLockOwner(const std::string& name, NamenodeId owner) {
    auto tx = cluster_->db().Begin();
    auto row = tx->Read(cluster_->schema().inodes, {kRootInode, name},
                        ndb::LockMode::kExclusive, HashBytes(name));
    ASSERT_TRUE(row.ok());
    Inode dir = InodeFromRow(*row);
    dir.subtree_lock_owner = owner;
    ASSERT_TRUE(tx->Update(cluster_->schema().inodes, ToRow(dir), HashBytes(name)).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }

  // Builds a 2-level tree under `base`: `dirs` subdirectories each holding
  // `files` one-block files, plus `files` files directly under base.
  void BuildTree(const std::string& base, int dirs, int files) {
    ASSERT_TRUE(client_->Mkdirs(base).ok());
    for (int f = 0; f < files; ++f) {
      ASSERT_TRUE(client_->WriteFile(base + "/f" + std::to_string(f), 1, 10).ok());
    }
    for (int d = 0; d < dirs; ++d) {
      std::string dir = base + "/d" + std::to_string(d);
      ASSERT_TRUE(client_->Mkdirs(dir).ok());
      for (int f = 0; f < files; ++f) {
        ASSERT_TRUE(client_->WriteFile(dir + "/f" + std::to_string(f), 1, 10).ok());
      }
    }
  }

  int64_t CountInodes() {
    return static_cast<int64_t>(cluster_->db().TableRowCount(cluster_->schema().inodes));
  }

  std::unique_ptr<MiniCluster> cluster_;
  std::unique_ptr<Client> client_;
};

TEST_F(SubtreeTest, RecursiveDeleteRemovesEverything) {
  BuildTree("/big", 4, 6);
  int64_t before = CountInodes();
  ASSERT_GT(before, 30);
  ASSERT_TRUE(client_->Delete("/big", true).ok());
  EXPECT_EQ(client_->Stat("/big").status().code(), hops::StatusCode::kNotFound);
  EXPECT_EQ(CountInodes(), 1) << "only the root remains";
  EXPECT_EQ(cluster_->db().TableRowCount(cluster_->schema().blocks), 0u);
  EXPECT_EQ(cluster_->db().TableRowCount(cluster_->schema().replicas), 0u);
  EXPECT_EQ(cluster_->db().TableRowCount(cluster_->schema().active_subtree_ops), 0u);
}

TEST_F(SubtreeTest, RenameNonEmptyDirectoryMovesSubtree) {
  BuildTree("/srcdir", 2, 3);
  ASSERT_TRUE(client_->Mkdirs("/elsewhere").ok());
  ASSERT_TRUE(client_->Rename("/srcdir", "/elsewhere/moved").ok());
  EXPECT_EQ(client_->Stat("/srcdir").status().code(), hops::StatusCode::kNotFound);
  EXPECT_TRUE(client_->Stat("/elsewhere/moved/d1/f2").ok());
  auto cs = client_->ContentSummaryOf("/elsewhere/moved");
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(cs->file_count, 9);
  EXPECT_EQ(cs->dir_count, 3);
  // All subtree locks and registrations are cleared.
  EXPECT_EQ(cluster_->db().TableRowCount(cluster_->schema().active_subtree_ops), 0u);
  EXPECT_TRUE(client_->WriteFile("/elsewhere/moved/new", 1, 1).ok());
}

TEST_F(SubtreeTest, MoveUpdatesResolutionOnAllNamenodes) {
  BuildTree("/from", 1, 2);
  for (int i = 0; i < cluster_->num_namenodes(); ++i) {
    ASSERT_TRUE(cluster_->namenode(i).GetFileInfo("/from/d0/f0").ok());
  }
  ASSERT_TRUE(client_->Rename("/from", "/to").ok());
  for (int i = 0; i < cluster_->num_namenodes(); ++i) {
    EXPECT_TRUE(cluster_->namenode(i).GetFileInfo("/to/d0/f0").ok()) << "nn" << i;
    EXPECT_EQ(cluster_->namenode(i).GetFileInfo("/from/d0/f0").status().code(),
              hops::StatusCode::kNotFound);
  }
}

TEST_F(SubtreeTest, InodeOpWaitsForSubtreeLockRelease) {
  BuildTree("/locked", 2, 4);
  // Manually set a subtree lock owned by an alive namenode (nn1), then watch
  // an inode op from nn0 abort-and-retry until the flag clears.
  Namenode& owner = cluster_->namenode(1);
  Namenode& worker = cluster_->namenode(0);
  SetSubtreeLockOwner("locked", owner.id());
  std::atomic<bool> created{false};
  std::thread t([&] {
    if (worker.Create("/locked/newfile", "c9").ok()) created.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(created.load()) << "op must back off while the subtree lock is held";
  SetSubtreeLockOwner("locked", kNoSubtreeLock);
  t.join();
  EXPECT_TRUE(created.load()) << "op must proceed once the lock clears";
}

class SubtreeOpTimeoutTest : public SubtreeTest {
 protected:
  void Configure(MiniClusterOptions& options) override {
    options.fs.op_timeout = std::chrono::milliseconds(100);
  }
};

// A subtree lock held past op_timeout fails the waiting inode op with the
// lock's own status code, no sooner than the timeout and no later than one
// capped (16 ms) backoff step after it, plus slack for a loaded host; the
// message names the stage that spent the time.
TEST_F(SubtreeOpTimeoutTest, InodeOpGivesUpOnAHeldSubtreeLockAfterOpTimeout) {
  BuildTree("/locked", 2, 4);
  SetSubtreeLockOwner("locked", cluster_->namenode(1).id());
  constexpr auto kTimeout = std::chrono::milliseconds(100);
  constexpr auto kBackoffStep = std::chrono::milliseconds(16);
  constexpr auto kSlack = std::chrono::milliseconds(84);
  const auto start = std::chrono::steady_clock::now();
  hops::Status st = cluster_->namenode(0).Create("/locked/newfile", "c9");
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(st.code(), hops::StatusCode::kSubtreeLocked) << st.ToString();
  EXPECT_NE(st.message().find("subtree wait: op_timeout 100 ms passed after"), std::string::npos)
      << st.ToString();
  EXPECT_GE(waited, kTimeout);
  EXPECT_LE(waited, kTimeout + kBackoffStep + kSlack);
  SetSubtreeLockOwner("locked", kNoSubtreeLock);
  EXPECT_TRUE(cluster_->namenode(0).Create("/locked/newfile", "c9").ok());
}

TEST_F(SubtreeTest, DeadOwnerSubtreeLockIsLazilyCleared) {
  BuildTree("/stale", 1, 2);
  Namenode& doomed = cluster_->namenode(2);
  NamenodeId doomed_id = doomed.id();
  {
    auto tx = cluster_->db().Begin();
    auto row = tx->Read(cluster_->schema().inodes, {kRootInode, std::string("stale")},
                        ndb::LockMode::kExclusive, HashBytes("stale"));
    ASSERT_TRUE(row.ok());
    Inode dir = InodeFromRow(*row);
    dir.subtree_lock_owner = doomed_id;
    ASSERT_TRUE(tx->Update(cluster_->schema().inodes, ToRow(dir), HashBytes("stale")).ok());
    ASSERT_TRUE(tx->Commit().ok());
  }
  cluster_->KillNamenode(2);
  // Surviving namenodes advance their views; the dead peer misses rounds.
  cluster_->TickHeartbeats(4);
  // An op from nn0 trips over the stale lock, sees the owner is dead, clears
  // it, and proceeds (§6.2).
  EXPECT_TRUE(cluster_->namenode(0).Create("/stale/after", "c1").ok());
  auto tx = cluster_->db().Begin();
  auto row = tx->Read(cluster_->schema().inodes, {kRootInode, std::string("stale")},
                      ndb::LockMode::kReadCommitted, HashBytes("stale"));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(InodeFromRow(*row).subtree_lock_owner, kNoSubtreeLock);
}

TEST_F(SubtreeTest, ConcurrentSubtreeOpsOnOverlappingPathsSerialize) {
  BuildTree("/outer/inner", 2, 3);
  std::atomic<int> successes{0};
  std::thread t1([&] {
    if (cluster_->namenode(0).Delete("/outer", true).ok()) successes.fetch_add(1);
  });
  std::thread t2([&] {
    if (cluster_->namenode(1).Delete("/outer/inner", true).ok()) successes.fetch_add(1);
  });
  t1.join();
  t2.join();
  // Both may succeed (serialized) or the inner one may find the tree gone;
  // in every case the namespace must be consistent: /outer fully deleted by
  // at least one op or /outer exists without /outer/inner.
  auto outer = client_->Stat("/outer");
  auto inner = client_->Stat("/outer/inner");
  EXPECT_GE(successes.load(), 1);
  if (outer.ok()) {
    EXPECT_FALSE(inner.ok());
  } else {
    EXPECT_EQ(inner.status().code(), hops::StatusCode::kNotFound);
  }
  EXPECT_EQ(cluster_->db().TableRowCount(cluster_->schema().active_subtree_ops), 0u);
}

TEST_F(SubtreeTest, CrashAfterFlagLeavesRecoverableState) {
  BuildTree("/crashy", 2, 3);
  int64_t before = CountInodes();
  Namenode& doomed = cluster_->namenode(2);
  doomed.set_die_at([](std::string_view point) { return point == "subtree:flagged"; });
  auto st = doomed.Delete("/crashy", true);
  EXPECT_EQ(st.code(), hops::StatusCode::kFailover);
  EXPECT_FALSE(doomed.alive());
  EXPECT_EQ(CountInodes(), before) << "nothing was deleted";
  // Survivors detect the death and clear the stale flag lazily; the retried
  // delete on another namenode succeeds.
  cluster_->TickHeartbeats(4);
  EXPECT_TRUE(cluster_->namenode(0).Delete("/crashy", true).ok());
  EXPECT_EQ(CountInodes(), 1);
}

TEST_F(SubtreeTest, CrashMidDeleteNeverOrphansInodes) {
  BuildTree("/victim", 3, 5);
  Namenode& doomed = cluster_->namenode(2);
  // Die after a few delete batches have committed.
  std::atomic<int> batches{0};
  doomed.set_die_at([&](std::string_view point) {
    return point == "subtree:batch" && batches.fetch_add(1) == 2;
  });
  auto st = doomed.Delete("/victim", true);
  EXPECT_EQ(st.code(), hops::StatusCode::kFailover);

  // Invariant (§6.2): every surviving inode is reachable from the root --
  // post-order deletion means a deleted parent implies deleted children.
  auto tx = cluster_->db().Begin();
  auto rows = tx->FullTableScan(cluster_->schema().inodes);
  ASSERT_TRUE(rows.ok());
  std::map<InodeId, InodeId> parent_of;
  std::set<InodeId> ids;
  for (const auto& row : *rows) {
    Inode n = InodeFromRow(row);
    ids.insert(n.id);
    parent_of[n.id] = n.parent_id;
  }
  for (const auto& [id, parent] : parent_of) {
    if (id == kRootInode) continue;
    EXPECT_TRUE(ids.count(parent)) << "inode " << id << " is orphaned";
  }

  // The client retries the delete on a surviving namenode and finishes the
  // job (paper: "clients will transparently resubmit the operation").
  cluster_->TickHeartbeats(4);
  ASSERT_TRUE(client_->Delete("/victim", true).ok());
  EXPECT_EQ(CountInodes(), 1);
  EXPECT_EQ(cluster_->db().TableRowCount(cluster_->schema().active_subtree_ops), 0u);
}

TEST_F(SubtreeTest, CrashAfterQuiesceOnRenameLeavesTreeIntact) {
  BuildTree("/mv", 2, 2);
  ASSERT_TRUE(client_->Mkdirs("/dest").ok());
  Namenode& doomed = cluster_->namenode(2);
  doomed.set_die_at([](std::string_view point) { return point == "subtree:quiesced"; });
  EXPECT_EQ(doomed.Rename("/mv", "/dest/mv").code(), hops::StatusCode::kFailover);
  // Until failure detection, the stale subtree lock correctly blocks
  // operations under /mv; after the survivors notice the death the lock is
  // lazily cleared and the tree is exactly where it was.
  cluster_->TickHeartbeats(4);
  EXPECT_TRUE(client_->Stat("/mv/d0/f0").ok());
  EXPECT_EQ(client_->Stat("/dest/mv").status().code(), hops::StatusCode::kNotFound);
  ASSERT_TRUE(client_->Rename("/mv", "/dest/mv").ok());
  EXPECT_TRUE(client_->Stat("/dest/mv/d0/f0").ok());
}

TEST_F(SubtreeTest, QuiesceWaitsForInFlightInodeOp) {
  BuildTree("/busy", 1, 2);
  // An in-flight create holds an X lock on its parent; the quiesce scan must
  // wait it out rather than skip it.
  std::atomic<bool> delete_done{false};
  std::thread creator([&] {
    for (int i = 0; i < 50; ++i) {
      (void)client_->WriteFile("/busy/d0/extra" + std::to_string(i), 1, 1);
    }
  });
  std::thread deleter([&] {
    Client c2 = cluster_->NewClient(NamenodePolicy::kSticky, "c2", 9);
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (c2.Delete("/busy", true).ok()) {
        delete_done.store(true);
        break;
      }
    }
  });
  creator.join();
  deleter.join();
  EXPECT_TRUE(delete_done.load());
  // Whatever interleaving happened, nothing may be orphaned or left locked.
  EXPECT_EQ(client_->Stat("/busy").status().code(), hops::StatusCode::kNotFound);
  auto tx = cluster_->db().Begin();
  auto rows = tx->FullTableScan(cluster_->schema().inodes);
  ASSERT_TRUE(rows.ok());
  std::set<InodeId> ids;
  std::map<InodeId, InodeId> parent_of;
  for (const auto& row : *rows) {
    Inode n = InodeFromRow(row);
    ids.insert(n.id);
    parent_of[n.id] = n.parent_id;
  }
  for (const auto& [id, parent] : parent_of) {
    if (id != kRootInode) {
      EXPECT_TRUE(ids.count(parent)) << id << " orphaned";
    }
  }
}

TEST_F(SubtreeTest, SubtreeDeleteOfDeepChain) {
  ASSERT_TRUE(client_->Mkdirs("/c1/c2/c3/c4/c5/c6").ok());
  ASSERT_TRUE(client_->WriteFile("/c1/c2/c3/c4/c5/c6/leaf", 1, 1).ok());
  ASSERT_TRUE(client_->Delete("/c1", true).ok());
  EXPECT_EQ(CountInodes(), 1);
}

}  // namespace
}  // namespace hops::fs
