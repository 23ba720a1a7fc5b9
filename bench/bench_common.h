// Shared setup for the figure/table benchmarks: build a capture cluster,
// bulk-load a namespace with the paper's shape statistics, and record
// database-access trace pools that the simulator replays (src/sim/model.h
// says why simulation stands in for the paper's testbed).
#pragma once

#include <atomic>
#include <barrier>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "kv/kv.h"
#include "util/clock.h"
#include "sim/model.h"
#include "workload/driver.h"
#include "workload/trace.h"

namespace hops::bench {

// Which KV backend this bench process runs on: the same HOPS_KV_ENGINE
// override MiniCluster::Start consumes, resolved once so the JSON tag and
// the clusters agree. Default (unset/unparseable) is the paper's 2PL engine.
inline kv::EngineKind BenchEngineKind() {
  return kv::EngineKindFromEnv().value_or(kv::EngineKind::kNdb);
}

// --- Machine-readable bench output ------------------------------------------
// When HOPS_BENCH_JSON_DIR is set (the nightly workflow points it at its
// artifact directory), each bench also writes BENCH_<name>.json there --
// flat key -> number metrics mirroring the human-readable table -- so the
// perf trajectory is diffable across runs without scraping stdout. Unset =
// disabled; the bench prints exactly as before. Runs on a non-default KV
// engine write BENCH_<name>.<engine>.json instead, so per-engine snapshots
// coexist in one results directory, and every file records its engine.
class BenchJson {
 public:
  explicit BenchJson(std::string name)
      : name_(std::move(name)), engine_(kv::EngineKindName(BenchEngineKind())) {
    const char* dir = std::getenv("HOPS_BENCH_JSON_DIR");
    if (dir != nullptr && dir[0] != '\0') {
      path_ = std::string(dir) + "/BENCH_" + name_;
      if (BenchEngineKind() != kv::EngineKind::kNdb) path_ += "." + engine_;
      path_ += ".json";
    }
  }
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  ~BenchJson() { Write(); }

  bool enabled() const { return !path_.empty(); }
  // Keys must be plain identifiers (letters, digits, ._-); values must be
  // finite. Cheap no-op when disabled.
  void Metric(const std::string& key, double value) {
    if (enabled()) metrics_.emplace_back(key, value);
  }

  // The per-engine concurrency-control counters next to each other: OCC
  // commit-validation conflicts (split point vs phantom) and the 2PL lock
  // pressure they replace. Whichever engine ran, the other side's counters
  // sit at 0, so cross-engine JSON diffs line up key for key.
  void EngineStats(const std::string& prefix, const kv::ClusterStats& stats) {
    Metric(prefix + "occ_conflicts", static_cast<double>(stats.occ_conflicts));
    Metric(prefix + "occ_key_conflicts", static_cast<double>(stats.occ_key_conflicts));
    Metric(prefix + "occ_range_conflicts", static_cast<double>(stats.occ_range_conflicts));
    Metric(prefix + "tx_aborts", static_cast<double>(stats.aborts));
    Metric(prefix + "lock_waits", static_cast<double>(stats.lock_waits));
    Metric(prefix + "lock_timeouts", static_cast<double>(stats.lock_timeouts));
  }

 private:
  void Write() const {
    if (path_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"engine\": \"%s\",\n  \"metrics\": {",
                 name_.c_str(), engine_.c_str());
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(f, "%s\n    \"%s\": %.10g", i > 0 ? "," : "", metrics_[i].first.c_str(),
                   metrics_[i].second);
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
  }

  std::string name_;
  std::string engine_;
  std::string path_;
  std::vector<std::pair<std::string, double>> metrics_;
};

struct CaptureEnv {
  std::unique_ptr<hops::fs::MiniCluster> cluster;
  wl::GeneratedNamespace ns;
  wl::TracePools pools;
};

inline CaptureEnv MakeCapture(const wl::OpMix& mix, int64_t files = 8000, int top_dirs = 32,
                              int samples_per_op = 16, const char* hotspot_base = nullptr,
                              uint64_t seed = 11) {
  CaptureEnv env;
  hops::fs::MiniClusterOptions options;
  options.db.num_datanodes = 12;  // §7.1 capture topology
  options.db.replication = 2;
  options.db.partitions_per_table = 48;
  options.num_namenodes = 1;
  options.num_datanodes = 3;
  env.cluster = *hops::fs::MiniCluster::Start(options);
  wl::NamespaceShape shape;
  shape.top_level_dirs = top_dirs;
  env.ns = hotspot_base != nullptr
               ? wl::PlanNamespaceUnder(hotspot_base, shape, files, seed)
               : wl::PlanNamespace(shape, files, seed);
  if (hotspot_base != nullptr) {
    auto client = env.cluster->NewClient(hops::fs::NamenodePolicy::kSticky, "mk");
    (void)client.Mkdirs(hotspot_base);
  }
  wl::BulkLoader loader(&env.cluster->db(), &env.cluster->schema(),
                        &env.cluster->fs_config());
  auto loaded = loader.Load(env.ns, 1.3, 0, seed);
  if (!loaded.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n", loaded.status().ToString().c_str());
    std::abort();
  }
  env.pools = wl::CollectTraces(*env.cluster, env.ns, mix, samples_per_op, seed);
  return env;
}

// Enough closed-loop clients to saturate the configured topology.
inline int SaturatingClients(int num_namenodes) {
  return std::min(6000, std::max(128, num_namenodes * 90));
}

// Trace capture under CONCURRENT handler load: runs the closed-loop driver
// against a namenode with a bounded handler pool, each handler flushing its
// own transaction's windows, and collects every committed transaction's
// database-access trace -- so lock waits and contention between concurrent
// handlers shape the captured traces. All traces land in one pool (under
// OpType::kRead) since the mix identity does not matter for the replay cost.
struct HandlerLoadCapture {
  wl::TracePools pools;
  double wall_ops_per_sec = 0;
  // Full end-of-run counter snapshot (the engine-ablation sections read the
  // OCC conflict / 2PL lock counters out of this).
  kv::ClusterStats db_stats;
};

inline HandlerLoadCapture CaptureUnderHandlerLoad(int num_handlers, int clients,
                                                  int64_t ops_per_client, uint64_t seed) {
  HandlerLoadCapture cap;
  hops::fs::MiniClusterOptions options;
  options.db.num_datanodes = 4;
  options.db.replication = 2;
  options.fs.num_handlers = num_handlers;
  options.num_namenodes = 1;
  options.num_datanodes = 3;
  auto cluster = *hops::fs::MiniCluster::Start(options);
  wl::NamespaceShape shape;
  auto ns = wl::PlanNamespace(shape, 1500, seed);
  wl::BulkLoader loader(&cluster->db(), &cluster->schema(), &cluster->fs_config());
  if (!loader.Load(ns, 1.3, 0, seed).ok()) std::abort();

  std::mutex mu;
  std::vector<wl::OpTrace> traces;
  cluster->namenode(0).SetTraceSink([&](const hops::ndb::CostTrace& trace) {
    std::lock_guard<std::mutex> lock(mu);
    traces.push_back(wl::OpTrace{trace.accesses});
  });
  cluster->db().ResetStats();

  wl::DriverOptions opts;
  opts.num_threads = clients;
  opts.ops_per_thread = ops_per_client;
  opts.seed = seed;
  auto mix = wl::OpMix::Spotify();
  auto report = wl::RunDriver(
      [&](int t) {
        return wl::MakeHopsAdapter(cluster->NewClient(hops::fs::NamenodePolicy::kSticky,
                                                      "cap" + std::to_string(t),
                                                      90 + static_cast<uint64_t>(t)));
      },
      ns, mix, opts);
  cluster->namenode(0).SetTraceSink(nullptr);

  cap.wall_ops_per_sec = report.ops_per_second;
  cap.db_stats = cluster->db().StatsSnapshot();
  cap.pools.num_partitions = cluster->db().num_partitions();
  cap.pools.pools[wl::OpType::kRead] = std::move(traces);
  return cap;
}

// --- Engine ablation: contended create hotspot -------------------------------
// Every client thread creates its files in ONE shared directory, so every
// create transaction validates-and-rewrites the same parent inode row (the
// mtime update). This is the workload where the two engines' concurrency
// control actually diverges: under 2PL the collisions serialize on the row
// lock (lock_waits), under OCC they surface as commit-validation conflicts
// that RunTx absorbs with capped-backoff retries (occ_conflicts). Every
// create still succeeds on both engines; only the counters and the ops/s
// differ.
struct ContendedCreateResult {
  double ops_per_sec = 0;
  uint64_t ops = 0;
  kv::ClusterStats db_stats;
};

inline ContendedCreateResult RunContendedCreates(int threads, int files_per_thread,
                                                 uint64_t seed) {
  ContendedCreateResult res;
  hops::fs::MiniClusterOptions options;
  options.db.num_datanodes = 4;
  options.db.replication = 2;
  options.fs.num_handlers = 4;
  options.num_namenodes = 2;
  options.num_datanodes = 3;
  auto cluster = *hops::fs::MiniCluster::Start(options);
  {
    auto mk = cluster->NewClient(hops::fs::NamenodePolicy::kSticky, "mk");
    if (!mk.Mkdirs("/hotspot").ok()) std::abort();
  }
  cluster->db().ResetStats();
  const int64_t start = MonotonicMicros();
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto client = cluster->NewClient(hops::fs::NamenodePolicy::kSticky,
                                       "hot" + std::to_string(t),
                                       seed + static_cast<uint64_t>(t));
      for (int i = 0; i < files_per_thread; ++i) {
        hops::Status st = client.CreateFile("/hotspot/t" + std::to_string(t) + "_f" +
                                            std::to_string(i));
        if (!st.ok()) {
          std::fprintf(stderr, "contended create failed: %s\n", st.ToString().c_str());
          std::abort();
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const double wall_s = static_cast<double>(MonotonicMicros() - start) / 1e6;
  res.ops = static_cast<uint64_t>(threads) * static_cast<uint64_t>(files_per_thread);
  res.ops_per_sec = wall_s > 0 ? static_cast<double>(res.ops) / wall_s : 0;
  res.db_stats = cluster->db().StatsSnapshot();
  return res;
}

// Deterministic two-claimant probe against the raw kv engine. The FS-level
// hotspot above shows collisions at workload-realistic rates -- transactions
// span microseconds, so two claimants rarely overlap even on a shared row.
// This probe forces one overlap per round with a holder/challenger
// handshake: the holder read-claims (kExclusive) the row, keeps its
// transaction open until the challenger signals that its own claim is
// imminent (plus a short fixed hold covering the signal-to-read stretch),
// and only then commits. The wait is on an atomic flag, not a timer, so
// arbitrary scheduler wake-up delays cannot let the holder slip out before
// the challenger arrives. Under 2PL the challenger's read blocks on the
// held row lock until the holder commits (lock_waits climbs, both commits
// succeed); under OCC neither read blocks, so both claim the same version
// and whichever commit lands second fails validation (occ_conflicts climbs)
// and is retried -- the counters thus quantify what each engine pays per
// collision.
struct ContentionProbeResult {
  uint64_t rounds = 0;
  uint64_t retries = 0;  // losing attempts re-run after kConflict/kTxAborted
  double wall_us_per_round = 0;
  kv::ClusterStats db_stats;
};

inline ContentionProbeResult RunContentionProbe(int rounds) {
  ContentionProbeResult res;
  res.rounds = static_cast<uint64_t>(rounds);
  auto engine = kv::MakeEngine(BenchEngineKind(),
                               kv::EngineConfig{.num_datanodes = 2, .replication = 2});
  kv::Schema s;
  s.table_name = "probe";
  s.columns = {{"k", kv::ColumnType::kInt64}, {"v", kv::ColumnType::kInt64}};
  s.primary_key = {0};
  s.partition_key = {0};
  auto table = *engine->CreateTable(s);
  {
    auto tx = engine->Begin();
    if (!tx->Insert(table, kv::Row{int64_t{0}, int64_t{0}}).ok() || !tx->Commit().ok()) {
      std::abort();
    }
  }
  engine->ResetStats();
  std::barrier sync(2);
  std::atomic<uint64_t> retries{0};
  // Handshake flags, monotonically set to the 1-based round number.
  std::atomic<uint64_t> holder_claimed{0}, challenger_engaged{0};
  const int64_t start = MonotonicMicros();
  auto run_attempt = [&](kv::Txn& tx, const kv::Row& row) {
    if (!tx.Update(table, kv::Row{int64_t{0}, row[1].i64() + 1}).ok()) std::abort();
    hops::Status st = tx.Commit();
    if (!st.ok() && !st.IsRetryableTx()) std::abort();
    return st.ok();
  };
  auto claim = [&](kv::Txn& tx) {
    auto row = tx.Read(table, kv::Key{int64_t{0}}, kv::LockMode::kExclusive);
    if (!row.ok()) {
      tx.Abort();
      if (!row.status().IsRetryableTx()) std::abort();
    }
    return row;
  };
  auto holder = [&] {
    for (uint64_t r = 1; r <= static_cast<uint64_t>(rounds); ++r) {
      sync.arrive_and_wait();
      bool engaged = false;
      for (;;) {
        auto tx = engine->Begin();
        auto row = claim(*tx);
        if (!row.ok()) {
          retries.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!engaged) {
          engaged = true;
          // Row claimed (2PL: X lock held; OCC: version observed). Invite the
          // challenger in and hold the transaction open until it reports its
          // claim is imminent, then a touch longer so the few instructions
          // between its signal and its Read land while we still hold.
          holder_claimed.store(r, std::memory_order_release);
          while (challenger_engaged.load(std::memory_order_acquire) < r) {
          }
          auto hold_until = std::chrono::steady_clock::now() + std::chrono::microseconds(100);
          while (std::chrono::steady_clock::now() < hold_until) {
          }
        }
        if (run_attempt(*tx, *row)) break;
        retries.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  auto challenger = [&] {
    for (uint64_t r = 1; r <= static_cast<uint64_t>(rounds); ++r) {
      sync.arrive_and_wait();
      while (holder_claimed.load(std::memory_order_acquire) < r) {
      }
      bool signaled = false;
      for (;;) {
        auto tx = engine->Begin();
        if (!signaled) {
          signaled = true;
          challenger_engaged.store(r, std::memory_order_release);
        }
        auto row = claim(*tx);
        if (row.ok() && run_attempt(*tx, *row)) break;
        retries.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::thread a(holder), b(challenger);
  a.join();
  b.join();
  res.wall_us_per_round =
      rounds > 0 ? static_cast<double>(MonotonicMicros() - start) / rounds : 0;
  res.retries = retries.load();
  res.db_stats = engine->StatsSnapshot();
  // Every successful claim incremented the row exactly once, collisions and
  // retries notwithstanding -- a cheap first-committer-wins sanity check.
  auto check = engine->Begin();
  auto row = check->Read(table, kv::Key{int64_t{0}}, kv::LockMode::kReadCommitted);
  if (!row.ok() || (*row)[1].i64() != 2 * static_cast<int64_t>(rounds)) std::abort();
  check->Abort();
  return res;
}

}  // namespace hops::bench
