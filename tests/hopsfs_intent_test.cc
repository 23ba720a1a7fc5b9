// Asynchronous metadata commits: the ordered intent log's acknowledgment
// semantics (validate -> reserve -> durable append), read-your-writes via
// the pending index + covering waits, conflict detection against
// acknowledged-but-unapplied state, and the crash path -- acknowledged
// intents surviving namenode death and being replayed in order by the
// leader's adoption sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "hopsfs/mini_cluster.h"

namespace hops::fs {
namespace {

class IntentLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MiniClusterOptions options;
    options.db.num_datanodes = 4;
    options.db.replication = 2;
    options.fs.async_metadata_commit = true;
    options.num_namenodes = 2;
    auto cluster = MiniCluster::Start(options);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = *std::move(cluster);
  }

  // Sorted (path, is_dir) fingerprint of the committed namespace under `root`.
  static void ListTree(Namenode& nn, const std::string& root,
                       std::vector<std::tuple<std::string, bool>>& out) {
    auto listing = nn.ListStatus(root);
    ASSERT_TRUE(listing.ok()) << root << ": " << listing.status().ToString();
    for (const auto& st : *listing) {
      std::string child = root + "/" + st.name;
      out.emplace_back(child, st.is_dir);
      if (st.is_dir) ListTree(nn, child, out);
    }
  }
  static std::vector<std::tuple<std::string, bool>> Fingerprint(Namenode& nn,
                                                                const std::string& root) {
    std::vector<std::tuple<std::string, bool>> out;
    ListTree(nn, root, out);
    std::sort(out.begin(), out.end());
    return out;
  }

  std::unique_ptr<MiniCluster> cluster_;
};

TEST_F(IntentLogTest, CreateAcksBeforeApplyAndReadWaitsForIt) {
  Namenode& nn = cluster_->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/d").ok());
  nn.FlushIntents();

  IntentLogStats before = nn.intent_stats();
  nn.SetIntentApplierPausedForTesting(true);
  // Acknowledged while the apply stage is parked: the op returned at intent
  // durability, not at transaction commit.
  ASSERT_TRUE(nn.Create("/d/f", "writer").ok());
  IntentLogStats stats = nn.intent_stats();
  EXPECT_EQ(stats.intents_appended - before.intents_appended, 1u);
  EXPECT_EQ(stats.intents_applied, before.intents_applied);
  EXPECT_EQ(stats.acked_ops - before.acked_ops, 1u);
  // Durable in the log, not yet in the inode table.
  EXPECT_GT(cluster_->db().TableRowCount(cluster_->schema().op_intents), 0u);

  // A read of the covered path blocks until the covering intent applies
  // (read-your-writes), instead of reporting NotFound from committed state.
  std::atomic<bool> stat_done{false};
  std::thread reader([&] {
    auto info = nn.GetFileInfo("/d/f");
    EXPECT_TRUE(info.ok()) << info.status().ToString();
    if (info.ok()) {
      EXPECT_FALSE(info->is_dir);
    }
    stat_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(stat_done.load()) << "the stat must wait out the unapplied intent";
  nn.SetIntentApplierPausedForTesting(false);
  reader.join();
  EXPECT_TRUE(stat_done.load());

  nn.FlushIntents();
  stats = nn.intent_stats();
  EXPECT_EQ(stats.intents_applied, stats.intents_appended);
  EXPECT_GE(stats.covering_waits, 1u);
  EXPECT_EQ(cluster_->db().TableRowCount(cluster_->schema().op_intents), 0u);
}

// A covering wait that outlasts FsConfig::op_timeout fails the op with a
// retryable kUnavailable that names the covering wait: it must neither hang
// nor quietly run against committed state that lacks the acknowledged create
// (which would report NotFound for a file the client was told exists).
TEST(IntentWaitTimeoutTest, CoveringWaitTimeoutFailsTheOpInsteadOfReadingStale) {
  MiniClusterOptions options;
  options.db.num_datanodes = 4;
  options.db.replication = 2;
  options.fs.async_metadata_commit = true;
  options.fs.op_timeout = std::chrono::milliseconds(50);
  options.num_namenodes = 1;
  auto made = MiniCluster::Start(options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto cluster = *std::move(made);
  Namenode& nn = cluster->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/d").ok());
  nn.FlushIntents();

  nn.SetIntentApplierPausedForTesting(true);
  ASSERT_TRUE(nn.Create("/d/f", "writer").ok());
  auto info = nn.GetFileInfo("/d/f");
  ASSERT_FALSE(info.ok()) << "a timed-out covering wait must not serve committed state";
  EXPECT_EQ(info.status().code(), hops::StatusCode::kUnavailable) << info.status().ToString();
  EXPECT_NE(info.status().message().find("covering wait: op_timeout 50 ms passed"),
            std::string::npos)
      << info.status().ToString();
  EXPECT_GE(nn.intent_stats().covering_waits, 1u);

  // Once the applier runs again, a retry observes the acknowledged create.
  nn.SetIntentApplierPausedForTesting(false);
  nn.FlushIntents();
  auto retried = nn.GetFileInfo("/d/f");
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_FALSE(retried->is_dir);
}

// Read-your-writes across namenodes for acknowledged writes: a create on
// namenode B under a directory whose mkdirs namenode A acknowledged but has
// not applied must wait for that intent, not fail with NotFound -- B's own
// pending index cannot see A's log.
TEST_F(IntentLogTest, CreateUnderAPeersUnappliedMkdirsWaitsForIt) {
  Namenode& a = cluster_->namenode(0);
  Namenode& b = cluster_->namenode(1);
  a.SetIntentApplierPausedForTesting(true);
  ASSERT_TRUE(a.Mkdirs("/peer").ok());

  std::atomic<bool> done{false};
  hops::Status st;
  std::thread creator([&] {
    st = b.Create("/peer/f", "writer");
    done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(done.load()) << "the create must wait out the peer's mkdirs intent";
  a.SetIntentApplierPausedForTesting(false);
  creator.join();
  ASSERT_TRUE(st.ok()) << st.ToString();

  a.FlushIntents();
  b.FlushIntents();
  auto info = a.GetFileInfo("/peer/f");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(info->is_dir);
}

TEST_F(IntentLogTest, ConflictsValidateAgainstAcknowledgedState) {
  Namenode& nn = cluster_->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/c").ok());
  nn.FlushIntents();
  nn.SetIntentApplierPausedForTesting(true);

  ASSERT_TRUE(nn.Create("/c/f", "w1").ok());
  // A second create of the same path must lose against the PENDING file --
  // without waiting for it to apply.
  EXPECT_EQ(nn.Create("/c/f", "w2").code(), hops::StatusCode::kAlreadyExists);
  // A path through the pending file is not a directory.
  EXPECT_EQ(nn.Create("/c/f/x", "w3").code(), hops::StatusCode::kNotDirectory);
  EXPECT_EQ(nn.Mkdirs("/c/f/x").code(), hops::StatusCode::kNotDirectory);

  // Creating UNDER an acknowledged-but-unapplied mkdirs chain validates
  // against the pending index alone (nothing below an unapplied directory
  // exists committed) and acks without blocking.
  ASSERT_TRUE(nn.Mkdirs("/c/a/b").ok());
  ASSERT_TRUE(nn.Create("/c/a/b/leaf", "w4").ok());
  // Re-acknowledged mkdirs over the pending chain is idempotent.
  ASSERT_TRUE(nn.Mkdirs("/c/a/b").ok());
  // Missing pending level under a pending chain is NotFound.
  EXPECT_EQ(nn.Create("/c/a/missing/leaf", "w5").code(), hops::StatusCode::kNotFound);

  nn.SetIntentApplierPausedForTesting(false);
  nn.FlushIntents();
  // Everything acknowledged materialized, in order.
  EXPECT_TRUE(nn.GetFileInfo("/c/f").ok());
  auto leaf = nn.GetFileInfo("/c/a/b/leaf");
  ASSERT_TRUE(leaf.ok());
  EXPECT_FALSE(leaf->is_dir);
  EXPECT_EQ(nn.intent_stats().apply_failures, 0u);
}

TEST_F(IntentLogTest, SetattrRidesTheLogOnPendingAndCommittedFiles) {
  Namenode& nn = cluster_->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/s").ok());
  ASSERT_TRUE(nn.Create("/s/committed", "w").ok());
  nn.FlushIntents();

  nn.SetIntentApplierPausedForTesting(true);
  ASSERT_TRUE(nn.Create("/s/pending", "w").ok());
  // Both the pending and the committed file accept an async chmod/chown.
  ASSERT_TRUE(nn.SetPermission("/s/pending", 0700).ok());
  ASSERT_TRUE(nn.SetPermission("/s/committed", 0711).ok());
  ASSERT_TRUE(nn.SetOwner("/s/pending", "alice", "users").ok());
  nn.SetIntentApplierPausedForTesting(false);
  nn.FlushIntents();

  auto pending = nn.GetFileInfo("/s/pending");
  ASSERT_TRUE(pending.ok());
  EXPECT_EQ(pending->perm, 0700);
  EXPECT_EQ(pending->owner, "alice");
  auto committed = nn.GetFileInfo("/s/committed");
  ASSERT_TRUE(committed.ok());
  EXPECT_EQ(committed->perm, 0711);
  EXPECT_EQ(nn.intent_stats().apply_failures, 0u);
}

TEST_F(IntentLogTest, AppendCoalescesQueuedIntentsIntoOneTransaction) {
  Namenode& nn = cluster_->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/g").ok());
  nn.FlushIntents();
  // Hold group-commit leadership so every thread's first create parks in the
  // append queue -- exactly what happens when they arrive while another
  // leader's append transaction is in flight -- then release: one leader
  // must drain all of them in a single transaction. The remaining creates
  // race naturally.
  constexpr int kThreads = 8;
  nn.SetIntentAppendHoldForTesting(true);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(
            nn.Create("/g/f" + std::to_string(t) + "_" + std::to_string(i), "w").ok());
      }
    });
  }
  while (nn.IntentQueuedAppendsForTesting() < kThreads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  nn.SetIntentAppendHoldForTesting(false);
  for (auto& t : threads) t.join();
  nn.FlushIntents();
  IntentLogStats stats = nn.intent_stats();
  EXPECT_EQ(stats.intents_applied, stats.intents_appended);
  EXPECT_GE(stats.intents_coalesced, static_cast<uint64_t>(kThreads - 1))
      << "the parked submissions must share one append transaction";
  auto listing = nn.ListStatus("/g");
  ASSERT_TRUE(listing.ok());
  EXPECT_EQ(listing->size(), static_cast<size_t>(kThreads * 8));
}

TEST_F(IntentLogTest, CrashReplayLosesNoAcknowledgedOp) {
  Namenode& nn0 = cluster_->namenode(0);
  ASSERT_TRUE(nn0.Mkdirs("/crash").ok());
  nn0.FlushIntents();

  // Acknowledge a batch of ops and KILL the namenode before any of them
  // applies: durable intents, empty committed namespace below /crash.
  nn0.SetIntentApplierPausedForTesting(true);
  std::vector<std::string> acked_files;
  ASSERT_TRUE(nn0.Mkdirs("/crash/dir/sub").ok());
  for (int i = 0; i < 6; ++i) {
    std::string path = "/crash/f" + std::to_string(i);
    ASSERT_TRUE(nn0.Create(path, "w").ok());
    acked_files.push_back(path);
  }
  ASSERT_TRUE(nn0.Create("/crash/dir/sub/leaf", "w").ok());
  ASSERT_TRUE(nn0.SetPermission("/crash/f0", 0700).ok());
  uint64_t logged = cluster_->db().TableRowCount(cluster_->schema().op_intents);
  ASSERT_GE(logged, 9u);

  cluster_->KillNamenode(0);
  // The survivor's election view must age the dead namenode out before its
  // log partition is adopted; then the leader's heartbeat replays it.
  cluster_->TickHeartbeats(6);
  ASSERT_TRUE(cluster_->RestartNamenode(0).ok());
  cluster_->TickHeartbeats(6);

  // Every acknowledged op survived the crash.
  Namenode& nn1 = cluster_->namenode(1);
  for (const auto& path : acked_files) {
    auto info = nn1.GetFileInfo(path);
    EXPECT_TRUE(info.ok()) << path << " lost in the crash: " << info.status().ToString();
  }
  auto leaf = nn1.GetFileInfo("/crash/dir/sub/leaf");
  ASSERT_TRUE(leaf.ok()) << "ordered replay must materialize parents before children";
  EXPECT_FALSE(leaf->is_dir);
  auto chmodded = nn1.GetFileInfo("/crash/f0");
  ASSERT_TRUE(chmodded.ok());
  EXPECT_EQ(chmodded->perm, 0700) << "the acked chmod must replay after the create";

  // The adopted partition is consumed: no intent rows, no orphaned head row.
  EXPECT_EQ(cluster_->db().TableRowCount(cluster_->schema().op_intents), 0u);
  EXPECT_GE(cluster_->AggregateIntentStats().intents_adopted, 9u);

  // The replayed namespace matches a synchronous oracle of the same ops.
  MiniClusterOptions sync_options;
  sync_options.db.num_datanodes = 4;
  sync_options.db.replication = 2;
  sync_options.num_namenodes = 1;
  auto oracle = MiniCluster::Start(sync_options);
  ASSERT_TRUE(oracle.ok());
  Namenode& onn = (*oracle)->namenode(0);
  ASSERT_TRUE(onn.Mkdirs("/crash").ok());
  ASSERT_TRUE(onn.Mkdirs("/crash/dir/sub").ok());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(onn.Create("/crash/f" + std::to_string(i), "w").ok());
  }
  ASSERT_TRUE(onn.Create("/crash/dir/sub/leaf", "w").ok());
  ASSERT_TRUE(onn.SetPermission("/crash/f0", 0700).ok());
  auto replayed = Fingerprint(nn1, "/crash");
  auto expected = Fingerprint(onn, "/crash");
  EXPECT_EQ(replayed, expected);
  EXPECT_FALSE(replayed.empty());
}

// Status parity across commit modes: one script of mkdirs/create/chmod/chown
// calls returns the same status, row by row, whether it runs synchronously,
// asynchronously with the applier draining, or asynchronously with every
// op still pending (validated against the pending index alone), and all
// three leave the same namespace behind.
TEST(IntentParityTest, StatusesMatchTheSyncPathRowByRow) {
  enum class Op { kMkdirs, kCreate, kChmod, kChown };
  struct Step {
    Op op;
    std::string path;
    std::string user;  // "hdfs" is the superuser
    int64_t perm = 0;
    std::string owner = {};
  };
  using hops::StatusCode;
  // Committed in every leg before the script starts.
  const std::vector<Step> setup = {
      {Op::kMkdirs, "/p", "hdfs"},          {Op::kCreate, "/p/file", "hdfs"},
      {Op::kMkdirs, "/p/locked", "hdfs"},   {Op::kChmod, "/p/locked", "hdfs", 0700},
      {Op::kMkdirs, "/p/ro", "hdfs"},       {Op::kChmod, "/p/ro", "hdfs", 0555},
      {Op::kMkdirs, "/p/open", "hdfs"},     {Op::kChmod, "/p/open", "hdfs", 0777},
      {Op::kMkdirs, "/p/wx", "hdfs"},       {Op::kChmod, "/p/wx", "hdfs", 0722},
  };
  const std::vector<std::pair<Step, StatusCode>> script = {
      {{Op::kCreate, "/p/file/x", "hdfs"}, StatusCode::kNotDirectory},
      {{Op::kMkdirs, "/p/file/y", "hdfs"}, StatusCode::kNotDirectory},
      {{Op::kCreate, "/p/newf", "hdfs"}, StatusCode::kOk},
      {{Op::kCreate, "/p/newf/x", "hdfs"}, StatusCode::kNotDirectory},
      {{Op::kMkdirs, "/p/newf/y", "hdfs"}, StatusCode::kNotDirectory},
      {{Op::kCreate, "/p", "hdfs"}, StatusCode::kIsDirectory},
      {{Op::kMkdirs, "/p/nd", "hdfs"}, StatusCode::kOk},
      {{Op::kCreate, "/p/nd", "hdfs"}, StatusCode::kIsDirectory},
      {{Op::kCreate, "/p/file", "hdfs"}, StatusCode::kAlreadyExists},
      {{Op::kCreate, "/p/newf", "hdfs"}, StatusCode::kAlreadyExists},
      {{Op::kCreate, "/q/x", "hdfs"}, StatusCode::kNotFound},
      {{Op::kMkdirs, "/p/a/b", "hdfs"}, StatusCode::kOk},
      {{Op::kCreate, "/p/a/missing/leaf", "hdfs"}, StatusCode::kNotFound},
      {{Op::kCreate, "/p/a/b/leaf", "hdfs"}, StatusCode::kOk},
      {{Op::kMkdirs, "/p/a/b", "hdfs"}, StatusCode::kOk},
      {{Op::kMkdirs, "/p", "hdfs"}, StatusCode::kOk},
      {{Op::kChmod, "/p/file", "bob", 0600}, StatusCode::kPermissionDenied},
      {{Op::kChown, "/p/file", "bob", 0, "bob"}, StatusCode::kPermissionDenied},
      {{Op::kCreate, "/p/ro/x", "bob"}, StatusCode::kPermissionDenied},
      {{Op::kMkdirs, "/p/ro/y", "bob"}, StatusCode::kPermissionDenied},
      {{Op::kCreate, "/p/locked/x", "bob"}, StatusCode::kPermissionDenied},
      {{Op::kMkdirs, "/p/locked/y/z", "bob"}, StatusCode::kPermissionDenied},
      // Write but no exec on /p/wx: the missing level's parent must be
      // traversable, as the sync mkdirs of /p/wx/a checks.
      {{Op::kMkdirs, "/p/wx/a/b", "bob"}, StatusCode::kPermissionDenied},
      // /p/nd is hdfs's (pending) directory: no write bit for bob.
      {{Op::kCreate, "/p/nd/bf", "bob"}, StatusCode::kPermissionDenied},
      {{Op::kMkdirs, "/p/nd/bd", "bob"}, StatusCode::kPermissionDenied},
      {{Op::kMkdirs, "/p/open/bd", "bob"}, StatusCode::kOk},
      {{Op::kCreate, "/p/open/bd/f", "bob"}, StatusCode::kOk},
      {{Op::kCreate, "/p/open/bobf", "bob"}, StatusCode::kOk},
      {{Op::kChmod, "/p/open/bobf", "bob", 0600}, StatusCode::kOk},
      {{Op::kChmod, "/p/newf", "bob", 0600}, StatusCode::kPermissionDenied},
      {{Op::kChown, "/p/newf", "hdfs", 0, "alice"}, StatusCode::kOk},
      {{Op::kChmod, "/p/newf", "alice", 0640}, StatusCode::kOk},
  };
  struct Entry {
    std::string path;
    bool is_dir;
    int64_t perm;
    std::string owner;
    bool operator==(const Entry& o) const {
      return std::tie(path, is_dir, perm, owner) == std::tie(o.path, o.is_dir, o.perm, o.owner);
    }
  };
  struct Leg {
    std::vector<std::string_view> codes;  // StatusCodeName per script row
    std::vector<Entry> tree;
  };
  auto run_leg = [&](bool async, bool paused) {
    MiniClusterOptions options;
    options.db.num_datanodes = 4;
    options.db.replication = 2;
    options.fs.async_metadata_commit = async;
    // A stray covering wait in the paused leg fails fast instead of hanging.
    options.fs.op_timeout = std::chrono::milliseconds(2000);
    options.num_namenodes = 1;
    auto cluster = MiniCluster::Start(options);
    EXPECT_TRUE(cluster.ok()) << cluster.status().ToString();
    Leg leg;
    if (!cluster.ok()) return leg;
    Namenode& nn = (*cluster)->namenode(0);
    auto apply = [&](const Step& s) {
      UserContext user{s.user, s.user == "hdfs"};
      switch (s.op) {
        case Op::kMkdirs:
          return nn.Mkdirs(s.path, user);
        case Op::kCreate:
          return nn.Create(s.path, "client", user);
        case Op::kChmod:
          return nn.SetPermission(s.path, s.perm, user);
        case Op::kChown:
          return nn.SetOwner(s.path, s.owner, "users", user);
      }
      return hops::Status::InvalidArgument("unknown op");
    };
    for (const Step& s : setup) EXPECT_TRUE(apply(s).ok()) << s.path;
    nn.FlushIntents();
    nn.SetIntentApplierPausedForTesting(paused);
    for (const auto& row : script) {
      leg.codes.push_back(hops::StatusCodeName(apply(row.first).code()));
    }
    nn.SetIntentApplierPausedForTesting(false);
    nn.FlushIntents();
    EXPECT_EQ(nn.intent_stats().apply_failures, 0u);
    std::vector<std::string> dirs = {"/p"};
    while (!dirs.empty()) {
      std::string dir = dirs.back();
      dirs.pop_back();
      auto listing = nn.ListStatus(dir);
      EXPECT_TRUE(listing.ok()) << dir << ": " << listing.status().ToString();
      if (!listing.ok()) continue;
      for (const auto& st : *listing) {
        leg.tree.push_back({dir + "/" + st.name, st.is_dir, st.perm, st.owner});
        if (st.is_dir) dirs.push_back(dir + "/" + st.name);
      }
    }
    std::sort(leg.tree.begin(), leg.tree.end(),
              [](const Entry& a, const Entry& b) { return a.path < b.path; });
    return leg;
  };

  const Leg sync = run_leg(/*async=*/false, /*paused=*/false);
  ASSERT_EQ(sync.codes.size(), script.size());
  for (size_t i = 0; i < script.size(); ++i) {
    EXPECT_EQ(sync.codes[i], hops::StatusCodeName(script[i].second))
        << "sync row " << i << ": " << script[i].first.path;
  }
  for (bool paused : {false, true}) {
    const Leg async = run_leg(/*async=*/true, paused);
    const char* name = paused ? "async, applier paused" : "async, applier running";
    ASSERT_EQ(async.codes.size(), script.size()) << name;
    for (size_t i = 0; i < script.size(); ++i) {
      EXPECT_EQ(async.codes[i], sync.codes[i])
          << name << " row " << i << ": " << script[i].first.path;
    }
    EXPECT_TRUE(async.tree == sync.tree) << name << ": namespaces differ after the drain";
    EXPECT_FALSE(async.tree.empty()) << name;
  }
}

TEST_F(IntentLogTest, SyncModeNeverTouchesTheLog) {
  MiniClusterOptions options;
  options.db.num_datanodes = 4;
  options.db.replication = 2;
  options.fs.async_metadata_commit = false;
  options.num_namenodes = 1;
  auto cluster = MiniCluster::Start(options);
  ASSERT_TRUE(cluster.ok());
  Namenode& nn = (*cluster)->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/plain").ok());
  ASSERT_TRUE(nn.Create("/plain/f", "w").ok());
  ASSERT_TRUE(nn.SetPermission("/plain/f", 0700).ok());
  EXPECT_EQ((*cluster)->db().TableRowCount((*cluster)->schema().op_intents), 0u);
  ClusterIntentStats stats = (*cluster)->AggregateIntentStats();
  EXPECT_EQ(stats.log.intents_appended, 0u);
  EXPECT_EQ(stats.log.acked_ops, 0u);
}

// Claimers are woken one at a time, and only when the log holds an intent
// they can take. Serial creates under one directory each wait behind the
// in-flight apply of their sibling, so at most one claimer has work at a
// time: the other seven must stay asleep rather than wake on every append
// and every apply, scan the queue and sleep again.
TEST(IntentWakeupTest, SerialCreatesUnderOneDirectoryLeaveIdleClaimersAsleep) {
  MiniClusterOptions options;
  options.db.num_datanodes = 4;
  options.db.replication = 2;
  options.fs.async_metadata_commit = true;
  options.fs.intent_apply_batch = 8;
  options.num_namenodes = 1;
  auto made = MiniCluster::Start(options);
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  auto cluster = *std::move(made);
  Namenode& nn = cluster->namenode(0);
  ASSERT_TRUE(nn.Mkdirs("/serial").ok());
  nn.FlushIntents();

  const IntentLogStats before = nn.intent_stats();
  constexpr int kCreates = 400;
  for (int i = 0; i < kCreates; ++i) {
    ASSERT_TRUE(nn.Create("/serial/f" + std::to_string(i), "w").ok());
  }
  nn.FlushIntents();
  const IntentLogStats after = nn.intent_stats();
  EXPECT_EQ(after.intents_applied - before.intents_applied, static_cast<uint64_t>(kCreates));
  EXPECT_LT(after.idle_wakeups - before.idle_wakeups, 40u)
      << "claimers woke with nothing to take";
}

// Runs `fn` under a watchdog, so that a lost wakeup fails the test instead
// of hanging it: past `limit` namenode 0 is killed, which abandons its log
// and releases every thread waiting in it.
::testing::AssertionResult FinishesWithin(MiniCluster& cluster, std::chrono::seconds limit,
                                          const char* what, std::function<void()> fn) {
  auto done = std::async(std::launch::async, std::move(fn));
  if (done.wait_for(limit) == std::future_status::ready) return ::testing::AssertionSuccess();
  cluster.KillNamenode(0);
  done.wait();
  return ::testing::AssertionFailure()
         << what << " did not finish within " << limit.count()
         << " s: a waiter slept through the state change it waits for";
}

// No wakeup is lost: mixed creates, chmods, mkdirs and listings from four
// threads, in one shared directory and in each thread's own, while the test
// pauses and resumes the applier and holds and releases the append queue
// mid-stream. Afterwards the log must drain (a claimer, follower or Flush
// left asleep with work pending would hang it) and every acknowledged path
// must exist. Runs one claimer and eight, on both engines. A short op
// timeout turns an op stuck behind a lost wakeup into a failure, after which
// the threads stop early.
TEST(IntentWakeupTest, MixedLoadWithPausesAndHoldsDrainsAndLosesNoAck) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 120;
  for (kv::EngineKind engine : {kv::EngineKind::kNdb, kv::EngineKind::kOcc}) {
    for (int claimers : {1, 8}) {
      SCOPED_TRACE(std::string("engine=") + std::string(kv::EngineKindName(engine)) +
                   " intent_apply_batch=" + std::to_string(claimers));
      MiniClusterOptions options;
      options.db.num_datanodes = 4;
      options.db.replication = 2;
      options.fs.kv_engine = engine;
      options.fs.async_metadata_commit = true;
      options.fs.intent_apply_batch = claimers;
      options.fs.op_timeout = std::chrono::seconds(2);
      options.num_namenodes = 1;
      auto made = MiniCluster::Start(options);
      ASSERT_TRUE(made.ok()) << made.status().ToString();
      auto cluster = *std::move(made);
      Namenode& nn = cluster->namenode(0);
      ASSERT_TRUE(nn.Mkdirs("/mix/shared").ok());
      for (int t = 0; t < kThreads; ++t) {
        ASSERT_TRUE(nn.Mkdirs("/mix/t" + std::to_string(t)).ok());
      }
      ASSERT_TRUE(FinishesWithin(*cluster, std::chrono::seconds(10), "FlushIntents",
                                 [&] { nn.FlushIntents(); }));

      std::atomic<int> ops_done{0};
      std::atomic<bool> failed{false};
      std::mutex acked_mu;
      std::vector<std::string> acked;
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          const std::string own = "/mix/t" + std::to_string(t);
          const std::string tag = std::to_string(t) + "_";
          std::vector<std::string> mine;
          const auto check = [&](bool ok) {
            if (!ok) failed.store(true);
            return ok;
          };
          for (int i = 0; i < kOpsPerThread && !failed.load(); ++i) {
            const std::string dir = (i % 2 == 0) ? std::string("/mix/shared") : own;
            const std::string n = tag + std::to_string(i);
            switch (i % 4) {
              case 0:
              case 1: {
                const std::string path = dir + "/f" + n;
                hops::Status st = nn.Create(path, "w" + std::to_string(t));
                EXPECT_TRUE(check(st.ok())) << path << ": " << st.ToString();
                if (st.ok()) mine.push_back(path);
                break;
              }
              case 2: {
                const std::string path = dir + "/d" + n + "/leaf";
                hops::Status st = nn.Mkdirs(path);
                EXPECT_TRUE(check(st.ok())) << path << ": " << st.ToString();
                if (st.ok()) mine.push_back(path);
                if (!mine.empty()) {
                  const std::string& target = mine[mine.size() / 2];
                  hops::Status ch = nn.SetPermission(target, 0700);
                  EXPECT_TRUE(check(ch.ok())) << target << ": " << ch.ToString();
                }
                break;
              }
              default: {
                auto listing = nn.ListStatus(dir);
                EXPECT_TRUE(check(listing.ok()))
                    << dir << ": " << listing.status().ToString();
                break;
              }
            }
            ops_done.fetch_add(1, std::memory_order_relaxed);
          }
          std::lock_guard<std::mutex> lock(acked_mu);
          acked.insert(acked.end(), mine.begin(), mine.end());
        });
      }

      // Mid-stream: park the applier while appends continue, then park the
      // appends too, then let both go in the opposite order.
      const auto wait_for_ops = [&](int n) {
        for (int spin = 0; spin < 2000 && ops_done.load() < n; ++spin) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      };
      for (int round = 1; round <= 2; ++round) {
        wait_for_ops(round * kThreads * kOpsPerThread / 3);
        nn.SetIntentApplierPausedForTesting(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        nn.SetIntentAppendHoldForTesting(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        nn.SetIntentAppendHoldForTesting(false);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        nn.SetIntentApplierPausedForTesting(false);
      }
      ASSERT_TRUE(FinishesWithin(*cluster, std::chrono::seconds(20), "the client threads", [&] {
        for (auto& th : threads) th.join();
      }));
      ASSERT_TRUE(FinishesWithin(*cluster, std::chrono::seconds(10), "FlushIntents",
                                 [&] { nn.FlushIntents(); }));
      const IntentLogStats stats = nn.intent_stats();
      EXPECT_EQ(stats.intents_applied, stats.intents_appended);
      EXPECT_EQ(stats.apply_failures, 0u);
      if (!failed.load()) {
        EXPECT_EQ(acked.size(), static_cast<size_t>(kThreads * kOpsPerThread * 3 / 4));
      }
      for (const std::string& path : acked) {
        auto info = nn.GetFileInfo(path);
        EXPECT_TRUE(info.ok()) << path << " was acknowledged but is missing: "
                               << info.status().ToString();
      }
      EXPECT_EQ(cluster->db().TableRowCount(cluster->schema().op_intents), 0u);
    }
  }
}

}  // namespace
}  // namespace hops::fs
