// hopsbench: live, wall-clock benchmark of the HopsFS metadata service.
//
// One invocation runs one named workload (workloads.h) on a live in-process
// cluster -- 2 namenodes x 4 handlers, a 4-datanode KV engine with
// replication 2, 3 fs datanodes -- with 3 closed-loop client threads and one
// housekeeping thread (heartbeat ticks every 500 ms, handler-queue samples
// every 1 ms). It sets up (cluster start + bulk load) kSetups times and
// keeps the last deployment, warms up, measures a window whose clock stops
// only after every acknowledged async intent is applied, runs the
// correctness oracle outside the window, and writes every metric by name and
// unit into a JSON result file. With --trace 1 it splits --seconds between
// two windows: untraced on a MiniCluster (the count metrics and the overhead
// baseline), then on the same topology rebuilt around a TimedEngine (the
// per-layer timings). The engine is in-process, so a round trip costs CPU
// only: round-trip savings show as counts (ndb.round_trips_per_op), never as
// wall-clock time.
//
// Usage: hopsbench --workload NAME --seed N --seconds S --out RESULT.json
//                  [--trace 0|1] [--trace-out CHROME_TRACE.json]
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hopsfs/mini_cluster.h"
#include "timed_engine.h"
#include "workload/namespace_gen.h"
#include "workloads.h"

namespace hopsbench {
namespace {

namespace fs = hops::fs;
namespace kv = hops::kv;
namespace wl = hops::wl;

constexpr int kClients = 3;
constexpr int kNamenodes = 2;
constexpr int kHandlers = 4;
constexpr int kFsDatanodes = 3;
constexpr int kReplicasPerBlock = 3;
constexpr double kBlocksPerFile = 1.3;
constexpr auto kTickInterval = std::chrono::milliseconds(500);
constexpr auto kSampleInterval = std::chrono::milliseconds(1);
constexpr size_t kSpanCapacity = size_t{1} << 18;
// The warm-up is a fixed number of ops per client, not a time, so the state
// the window starts from (and the memory metrics read there) does not
// depend on how fast the host ran. 10k ops fill the hint caches with the hot
// set and take 0.7-3 s.
constexpr uint64_t kWarmupOpsPerClient = 10000;
// setup_s is the median of this many set-ups in one process, which damps a
// one-off stall of the host during a single set-up.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val), have_seed = true;
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--out") a.out = val;
    else if (key == "--trace-out") a.trace_out = val;
    else return false;
  }
  return argc % 2 == 1 && !a.workload.empty() && !a.out.empty() && have_seed && a.seconds > 0;
}

// --- Deployment: the cluster under test ----------------------------------------

// Either a MiniCluster (the product path) or the same topology assembled
// from public pieces around a TimedEngine (the traced path). Callers see
// only the engine, schema, config and namenodes.
class Deployment {
 public:
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  static std::unique_ptr<Deployment> StartMini(const fs::MiniClusterOptions& options) {
    auto dep = std::make_unique<Deployment>();
    auto cluster = fs::MiniCluster::Start(options);
    if (!cluster.ok()) return Fail(cluster.status());
    dep->cluster_ = std::move(*cluster);
    for (int i = 0; i < dep->cluster_->num_datanodes(); ++i) {
      dep->datanodes_.push_back(&dep->cluster_->datanode(i));
    }
    for (int i = 0; i < dep->cluster_->num_namenodes(); ++i) {
      dep->namenodes_.push_back(&dep->cluster_->namenode(i));
      dep->InstallDatanodePicker(*dep->namenodes_.back());
    }
    return dep;
  }

  static std::unique_ptr<Deployment> StartTraced(const fs::MiniClusterOptions& options) {
    auto dep = std::make_unique<Deployment>();
    {
      // Copy the RESOLVED knobs (e.g. the adaptive-gather policy) from a
      // throwaway MiniCluster so the rebuilt topology matches the product.
      auto probe = fs::MiniCluster::Start(options);
      if (!probe.ok()) return Fail(probe.status());
      dep->db_config_ = (*probe)->db().config();
      dep->fs_config_ = (*probe)->fs_config();
    }
    dep->engine_ = std::make_unique<TimedEngine>(
        kv::MakeEngine(dep->fs_config_.kv_engine, dep->db_config_));
    auto schema = fs::MetadataSchema::Format(*dep->engine_);
    if (!schema.ok()) return Fail(schema.status());
    dep->schema_ = *schema;
    for (int i = 0; i < options.num_datanodes; ++i) {
      dep->owned_datanodes_.push_back(std::make_unique<fs::Datanode>(i + 1));
      dep->datanodes_.push_back(dep->owned_datanodes_.back().get());
    }
    for (int i = 0; i < options.num_namenodes; ++i) {
      auto nn = std::make_unique<fs::Namenode>(dep->engine_.get(), &dep->schema_,
                                               &dep->fs_config_, "nn-slot-" + std::to_string(i));
      hops::Status st = nn->Start();
      if (!st.ok()) return Fail(st);
      dep->InstallDatanodePicker(*nn);
      dep->namenodes_.push_back(nn.get());
      dep->owned_namenodes_.push_back(std::move(nn));
    }
    dep->Tick();
    return dep;
  }

  kv::Engine& db() { return cluster_ ? cluster_->db() : *engine_; }
  const fs::MetadataSchema& schema() const { return cluster_ ? cluster_->schema() : schema_; }
  const fs::FsConfig& fs_config() const { return cluster_ ? cluster_->fs_config() : fs_config_; }
  const std::vector<fs::Namenode*>& namenodes() const { return namenodes_; }
  std::vector<fs::Namenode*> Alive() const {
    std::vector<fs::Namenode*> alive;
    for (fs::Namenode* nn : namenodes_) {
      if (nn->alive()) alive.push_back(nn);
    }
    return alive;
  }

  // One heartbeat round (hint publishes flushed first), as
  // MiniCluster::TickHeartbeats.
  void Tick() {
    if (cluster_) return cluster_->TickHeartbeats();
    for (fs::Namenode* nn : Alive()) nn->FlushHintInvalidations();
    for (fs::Namenode* nn : Alive()) (void)nn->Heartbeat();
  }
  // Blocks until every acknowledged intent is applied.
  void Drain() {
    if (cluster_) return cluster_->DrainIntents();
    for (fs::Namenode* nn : Alive()) nn->FlushIntents();
  }

 private:
  // Round-robin block placement over alive datanodes with ONE counter step
  // per call, so a call's targets are always distinct. MiniCluster's own
  // picker steps the shared counter once per target, and two namenodes
  // picking concurrently can interleave into a duplicate target, failing
  // addBlock with ALREADY_EXISTS on replica_under_cons; both deployments
  // use this one instead.
  void InstallDatanodePicker(fs::Namenode& nn) {
    nn.SetDatanodePicker([this](int count) {
      std::vector<fs::DatanodeId> targets;
      const size_t n = datanodes_.size();
      const size_t start = dn_rr_.fetch_add(1, std::memory_order_relaxed);
      for (size_t i = 0; i < n && targets.size() < static_cast<size_t>(count); ++i) {
        fs::Datanode& dn = *datanodes_[(start + i) % n];
        if (dn.alive()) targets.push_back(dn.id());
      }
      return targets;
    });
  }

  static std::unique_ptr<Deployment> Fail(const hops::Status& st) {
    std::fprintf(stderr, "hopsbench: cluster start failed: %s\n", st.ToString().c_str());
    return nullptr;
  }

  std::unique_ptr<fs::MiniCluster> cluster_;
  // Traced path. Declaration order is teardown order reversed: namenodes go
  // first, then the datanodes their picker reads, then schema and engine.
  kv::EngineConfig db_config_;
  fs::FsConfig fs_config_;
  std::unique_ptr<kv::Engine> engine_;
  fs::MetadataSchema schema_;
  std::vector<std::unique_ptr<fs::Datanode>> owned_datanodes_;
  std::vector<fs::Datanode*> datanodes_;
  std::atomic<size_t> dn_rr_{0};
  std::vector<std::unique_ptr<fs::Namenode>> owned_namenodes_;
  std::vector<fs::Namenode*> namenodes_;
};

fs::MiniClusterOptions OptionsFor(const WorkloadDef& def) {
  fs::MiniClusterOptions o;
  o.db.num_datanodes = 4;
  o.db.replication = 2;
  o.fs.kv_engine = def.engine;
  o.fs.num_handlers = kHandlers;
  o.fs.async_metadata_commit = def.async_commit;
  o.fs.hint_cache_capacity = def.hint_cache_capacity;
  o.num_namenodes = kNamenodes;
  o.num_datanodes = kFsDatanodes;
  return o;
}

// Cluster start + bulk load: what setup_s times.
std::unique_ptr<Deployment> SetUp(const fs::MiniClusterOptions& options, const Generator& gen,
                                  uint64_t seed, bool traced) {
  auto dep = traced ? Deployment::StartTraced(options) : Deployment::StartMini(options);
  if (dep == nullptr) return nullptr;
  wl::BulkLoader loader(&dep->db(), &dep->schema(), &dep->fs_config());
  hops::Status st = loader.Load(gen.ns(), kBlocksPerFile, kReplicasPerBlock, seed).status();
  if (!st.ok()) {
    std::fprintf(stderr, "hopsbench: bulk load failed: %s\n", st.ToString().c_str());
    return nullptr;
  }
  return dep;
}

// --- Housekeeping thread --------------------------------------------------------

class Housekeeper {
 public:
  explicit Housekeeper(Deployment& dep) : dep_(dep), thread_([this] { Loop(); }) {}
  ~Housekeeper() { Stop(); }
  Housekeeper(const Housekeeper&) = delete;
  Housekeeper& operator=(const Housekeeper&) = delete;

  void SetSampling(bool on) {
    std::lock_guard<std::mutex> lock(mu_);
    sampling_ = on;
  }
  // Mean summed handler-queue depth over the samples taken while sampling.
  double MeanQueueDepth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_ == 0 ? 0.0 : static_cast<double>(depth_sum_) / static_cast<double>(samples_);
  }
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void Loop() {
    LayerClock::ExcludeThisThread();
    auto next_tick = SteadyClock::now() + kTickInterval;
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (sampling_) {
        uint64_t depth = 0;
        for (fs::Namenode* nn : dep_.namenodes()) depth += nn->handler_pool()->queue_depth();
        depth_sum_ += depth;
        samples_++;
      }
      if (SteadyClock::now() >= next_tick) {
        lock.unlock();
        dep_.Tick();
        lock.lock();
        next_tick += kTickInterval;
      }
      cv_.wait_for(lock, kSampleInterval, [&] { return stop_; });
    }
  }

  Deployment& dep_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool sampling_ = false;
  uint64_t depth_sum_ = 0;
  uint64_t samples_ = 0;
  std::thread thread_;
};

// --- Counter snapshots ------------------------------------------------------------

struct Snapshot {
  kv::ClusterStats db;
  fs::InodeHintCache::Stats cache;
  uint64_t proactive_applied = 0, publish_events = 0, publish_coalesced = 0, gc_acked = 0,
           gc_ttl = 0;
  fs::IntentLogStats intents;
  uint64_t served = 0;
};

Snapshot Take(Deployment& dep) {
  Snapshot s;
  s.db = dep.db().StatsSnapshot();
  for (fs::Namenode* nn : dep.namenodes()) {
    const fs::InodeHintCache::Stats c = nn->hint_cache().stats();
    s.cache.hits += c.hits;
    s.cache.misses += c.misses;
    s.cache.evictions += c.evictions;
    s.cache.invalidations += c.invalidations;
    s.cache.stale_put_rejections += c.stale_put_rejections;
    s.proactive_applied += nn->proactive_invalidations_applied();
    s.publish_events += nn->hint_publish_events();
    s.publish_coalesced += nn->hint_publish_ops_coalesced();
    s.gc_acked += nn->election().hint_gc_acked_reaps();
    s.gc_ttl += nn->election().hint_gc_ttl_reaps();
    const fs::IntentLogStats i = nn->intent_stats();
    s.intents.intents_appended += i.intents_appended;
    s.intents.intents_applied += i.intents_applied;
    s.intents.intents_coalesced += i.intents_coalesced;
    s.intents.apply_failures += i.apply_failures;
    s.intents.acked_ops += i.acked_ops;
    s.intents.ack_latency_us += i.ack_latency_us;
    s.intents.apply_latency_us += i.apply_latency_us;
    s.intents.covering_waits += i.covering_waits;
    s.served += nn->handler_pool()->requests_served();
  }
  return s;
}

// --- One workload run -------------------------------------------------------------

struct Oracle {
  bool ok = true;
  int64_t initial_inodes = 0, created = 0, deleted = 0, final_inodes = 0;
  uint64_t live_checked = 0, removed_checked = 0;
  std::vector<std::string> errors;

  void Fail(std::string msg) {
    ok = false;
    if (errors.size() < 20) errors.push_back(std::move(msg));
  }
};

struct RunResult {
  uint64_t ops = 0;  // measured window
  double window_s = 0, ack_s = 0, drain_s = 0;
  std::vector<float> read_us, write_us;
  std::array<std::vector<float>, kNumRpcs> rpc_us;
  uint64_t attempted = 0, failed = 0;  // every phase
  std::map<std::string, uint64_t> failures_by_code;
  std::vector<std::string> failure_examples;
  uint64_t failovers = 0;
  Snapshot before, after;
  double queue_depth_mean = 0;
  KvTotals kv;  // traced runs only
  double peak_rss_mb = 0, db_bytes_per_inode = 0;  // at the end of the warm-up
  Oracle oracle;
};

template <typename T>
void Append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// Runs every worker closed-loop, for `seconds` or, when `ops_per_client` is
// nonzero, until each worker has done that many ops; returns per-thread
// samples.
std::vector<ThreadSamples> RunPhase(std::vector<std::unique_ptr<Worker>>& workers, int phase,
                                    double seconds, uint64_t ops_per_client = 0) {
  std::vector<ThreadSamples> samples(workers.size());
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < workers.size(); ++t) {
    threads.emplace_back([&, t] {
      Worker& w = *workers[t];
      ThreadSamples& s = samples[t];
      w.BeginPhase(phase);
      w.rpc().set_samples(&s);
      while (!stop.load(std::memory_order_relaxed) &&
             (ops_per_client == 0 || s.ops < ops_per_client)) {
        const SteadyClock::time_point t0 = SteadyClock::now();
        OpResult r = w.Step();
        const float us = static_cast<float>(MicrosBetween(t0, SteadyClock::now()));
        (r.read ? s.read_us : s.write_us).push_back(us);
        s.ops++;
        if (!r.status.ok()) {
          s.failed++;
          s.failures_by_code[std::string(hops::StatusCodeName(r.status.code()))]++;
          if (s.failure_examples.size() < 5) s.failure_examples.push_back(r.status.ToString());
        }
      }
      w.rpc().set_samples(nullptr);
    });
  }
  if (ops_per_client == 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    stop.store(true);
  }
  for (auto& th : threads) th.join();
  return samples;
}

void AccountFailures(const std::vector<ThreadSamples>& phase, RunResult& r) {
  for (const ThreadSamples& s : phase) {
    r.attempted += s.ops;
    r.failed += s.failed;
    for (const auto& [code, n] : s.failures_by_code) r.failures_by_code[code] += n;
    for (const std::string& e : s.failure_examples) {
      if (r.failure_examples.size() < 10) r.failure_examples.push_back(e);
    }
  }
}

// After the drain: the inode-row tally and a stat sweep of every file each
// client believes is live, with its acknowledged attributes (no lost ack).
void RunOracle(Deployment& dep, const std::vector<std::unique_ptr<Worker>>& workers,
               uint64_t seed, Oracle& o) {
  o.final_inodes = static_cast<int64_t>(dep.db().TableRowCount(dep.schema().inodes));
  for (const auto& w : workers) {
    o.created += w->inodes_created();
    o.deleted += w->inodes_deleted();
  }
  if (o.final_inodes != o.initial_inodes + o.created - o.deleted) {
    o.Fail("inode rows: " + std::to_string(o.final_inodes) + " != initial " +
           std::to_string(o.initial_inodes) + " + created " + std::to_string(o.created) +
           " - deleted " + std::to_string(o.deleted));
  }
  fs::Client checker([&dep] { return dep.Alive(); }, fs::NamenodePolicy::kRandom, "oracle",
                     seed);
  for (const auto& w : workers) {
    for (const LiveFile& f : w->LiveFiles()) {
      o.live_checked++;
      auto st = checker.Stat(f.path);
      if (!st.ok()) {
        o.Fail("live file " + f.path + ": " + st.status().ToString());
        continue;
      }
      if (st->is_dir) o.Fail("live file " + f.path + " is a directory");
      if (f.perm >= 0 && st->perm != f.perm) {
        o.Fail("live file " + f.path + ": perm " + std::to_string(st->perm) + " != acked " +
               std::to_string(f.perm));
      }
      if (!f.owner.empty() && st->owner != f.owner) {
        o.Fail("live file " + f.path + ": owner " + st->owner + " != acked " + f.owner);
      }
      if (f.blocks >= 0 && st->num_blocks != f.blocks) {
        o.Fail("live file " + f.path + ": blocks " + std::to_string(st->num_blocks) +
               " != acked " + std::to_string(f.blocks));
      }
    }
    for (const std::string& path : w->RemovedPaths()) {
      o.removed_checked++;
      auto st = checker.Stat(path);
      if (st.ok() || st.status().code() != hops::StatusCode::kNotFound) {
        o.Fail("removed path " + path + " still resolves: " + st.status().ToString());
      }
    }
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

RunResult RunWorkload(Deployment& dep, const WorkloadDef& def, const Generator& gen,
                      uint64_t seed, double seconds, bool traced) {
  RunResult r;
  std::vector<std::unique_ptr<Worker>> workers;
  for (int t = 0; t < kClients; ++t) {
    const uint64_t client_seed = seed * 7919 + static_cast<uint64_t>(t);
    const std::string name = "hb" + std::to_string(t);
    fs::Client client =
        def.pinned
            ? fs::Client(
                  [nn = dep.namenodes()[static_cast<size_t>(t) % dep.namenodes().size()]] {
                    return std::vector<fs::Namenode*>{nn};
                  },
                  fs::NamenodePolicy::kSticky, name, client_seed)
            : fs::Client([&dep] { return dep.Alive(); }, fs::NamenodePolicy::kRandom, name,
                         client_seed);
    workers.push_back(gen.MakeWorker(t, TimedClient(std::move(client))));
  }
  r.oracle.initial_inodes = static_cast<int64_t>(dep.db().TableRowCount(dep.schema().inodes));

  Housekeeper housekeeper(dep);
  AccountFailures(RunPhase(workers, 0, 0, kWarmupOpsPerClient), r);
  dep.Drain();
  // Memory is read here, not after the window: rows some ops leave behind
  // (invalidated blocks, OCC tombstones) pile up with every op, so at the
  // end of a timed window memory would track the host's speed, while the
  // warm-up's op count is fixed.
  r.peak_rss_mb = PeakRssMb();
  const size_t inode_rows = dep.db().TableRowCount(dep.schema().inodes);
  r.db_bytes_per_inode = inode_rows == 0 ? 0
                                         : static_cast<double>(dep.db().TotalMemoryBytes()) /
                                               static_cast<double>(inode_rows);

  r.before = Take(dep);
  LayerClock& clock = LayerClock::Get();
  if (traced) clock.SetRecording(true);
  housekeeper.SetSampling(true);
  const SteadyClock::time_point t0 = SteadyClock::now();
  std::vector<ThreadSamples> measured = RunPhase(workers, 1, seconds);
  const SteadyClock::time_point t_ack = SteadyClock::now();
  dep.Drain();
  const SteadyClock::time_point t1 = SteadyClock::now();
  housekeeper.SetSampling(false);
  if (traced) {
    clock.SetRecording(false);
    r.kv = clock.Totals();
  }
  r.after = Take(dep);
  r.queue_depth_mean = housekeeper.MeanQueueDepth();
  housekeeper.Stop();

  r.window_s = MicrosBetween(t0, t1) / 1e6;
  r.ack_s = MicrosBetween(t0, t_ack) / 1e6;
  r.drain_s = MicrosBetween(t_ack, t1) / 1e6;
  AccountFailures(measured, r);
  for (ThreadSamples& s : measured) {
    r.ops += s.ops;
    Append(r.read_us, s.read_us);
    Append(r.write_us, s.write_us);
    for (int i = 0; i < kNumRpcs; ++i) Append(r.rpc_us[i], s.rpc_us[i]);
  }
  for (const auto& w : workers) r.failovers += w->rpc().failovers();
  RunOracle(dep, workers, seed, r.oracle);
  return r;
}

// --- Metrics -----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = -1;  // percentiles: the sample count they rest on
};

// Exact nearest-rank percentile of the raw samples.
double Percentile(std::vector<float> v, double q) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  k = std::clamp<size_t>(k, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

double Mean(const std::vector<float>& v) {
  double sum = 0;
  for (float x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void AddPercentiles(std::vector<Metric>& m, const std::string& prefix,
                    const std::vector<float>& v) {
  const auto n = static_cast<int64_t>(v.size());
  m.push_back({prefix + "_p50_us", Percentile(v, 0.50), "us", n});
  m.push_back({prefix + "_p99_us", Percentile(v, 0.99), "us", n});
}

// The window's clock stops after the drain, so throughput counts applied ops.
double OpsPerSecond(const RunResult& r) { return Ratio(static_cast<double>(r.ops), r.window_s); }

std::vector<Metric> EndToEnd(const RunResult& r, double setup_s) {
  std::vector<Metric> m;
  m.push_back({"ops_per_s", OpsPerSecond(r), "ops/s"});
  AddPercentiles(m, "read", r.read_us);
  AddPercentiles(m, "write", r.write_us);
  m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"peak_rss_mb", r.peak_rss_mb, "MB"});
  m.push_back({"db_bytes_per_inode", r.db_bytes_per_inode, "B"});
  return m;
}

// Per-layer metrics that come from the system's own counters: free in
// every run (deltas over the measured window, drain included).
std::vector<Metric> CountMetrics(const RunResult& r) {
  std::vector<Metric> m;
  const double ops = static_cast<double>(r.ops);
  const double kops = ops / 1000.0;
  for (int i = 0; i < kNumRpcs; ++i) {
    const std::string p = std::string("client.") + RpcName(static_cast<Rpc>(i));
    const auto n = static_cast<int64_t>(r.rpc_us[i].size());
    m.push_back({p + ".p50_us", Percentile(r.rpc_us[i], 0.50), "us", n});
    m.push_back({p + ".p99_us", Percentile(r.rpc_us[i], 0.99), "us", n});
    m.push_back({p + ".ops", static_cast<double>(n), "count"});
  }
  m.push_back({"client.failovers", static_cast<double>(r.failovers), "count"});
  m.push_back({"client.failed_pct",
               100.0 * Ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
               "%"});

  const double served = static_cast<double>(r.after.served - r.before.served);
  m.push_back({"handler_pool.queue_depth_mean", r.queue_depth_mean, "requests"});
  // Little's law: mean queue length / arrival (= served) rate.
  m.push_back({"handler_pool.wait_us_est", 1e6 * Ratio(r.queue_depth_mean, served / r.window_s),
               "us"});
  m.push_back({"handler_pool.requests_per_op", Ratio(served, ops), "req/op"});

  const auto& c0 = r.before.cache;
  const auto& c1 = r.after.cache;
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double misses = static_cast<double>(c1.misses - c0.misses);
  m.push_back({"inode_cache.hit_ratio", Ratio(hits, hits + misses), "ratio"});
  m.push_back({"inode_cache.misses_per_op", Ratio(misses, ops), "1/op"});
  m.push_back({"inode_cache.evictions_per_kop",
               Ratio(static_cast<double>(c1.evictions - c0.evictions), kops), "1/kop"});
  m.push_back({"inode_cache.invalidations_per_kop",
               Ratio(static_cast<double>(c1.invalidations - c0.invalidations), kops), "1/kop"});
  m.push_back({"inode_cache.stale_put_rejections",
               static_cast<double>(c1.stale_put_rejections - c0.stale_put_rejections), "count"});

  const double events = static_cast<double>(r.after.publish_events - r.before.publish_events);
  const double coalesced =
      static_cast<double>(r.after.publish_coalesced - r.before.publish_coalesced);
  m.push_back({"hint_log.publish_events_per_kop", Ratio(events, kops), "1/kop"});
  m.push_back({"hint_log.coalesced_ratio", Ratio(coalesced, events + coalesced), "ratio"});
  m.push_back({"hint_log.applied_per_kop",
               Ratio(static_cast<double>(r.after.proactive_applied - r.before.proactive_applied),
                     kops),
               "1/kop"});
  m.push_back({"hint_log.gc_acked_reaps", static_cast<double>(r.after.gc_acked - r.before.gc_acked),
               "count"});
  m.push_back({"hint_log.gc_ttl_reaps", static_cast<double>(r.after.gc_ttl - r.before.gc_ttl),
               "count"});

  const auto& i0 = r.before.intents;
  const auto& i1 = r.after.intents;
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  m.push_back({"intent_log.ack_us_mean",
               Ratio(d(i0.ack_latency_us, i1.ack_latency_us), d(i0.acked_ops, i1.acked_ops)),
               "us"});
  m.push_back({"intent_log.apply_us_mean",
               Ratio(d(i0.apply_latency_us, i1.apply_latency_us),
                     d(i0.intents_applied, i1.intents_applied)),
               "us"});
  m.push_back({"intent_log.covering_waits_per_kop",
               Ratio(d(i0.covering_waits, i1.covering_waits), kops), "1/kop"});
  m.push_back({"intent_log.drain_tail_ms", r.drain_s * 1e3, "ms"});
  m.push_back({"intent_log.coalesced_ratio",
               Ratio(d(i0.intents_coalesced, i1.intents_coalesced),
                     d(i0.intents_appended, i1.intents_appended)),
               "ratio"});
  m.push_back({"intent_log.apply_failures", d(i0.apply_failures, i1.apply_failures), "count"});

  const kv::ClusterStats& s0 = r.before.db;
  const kv::ClusterStats& s1 = r.after.db;
  m.push_back({"ndb.round_trips_per_op", Ratio(d(s0.round_trips, s1.round_trips), ops),
               "trips/op"});
  m.push_back({"ndb.overlapped_round_trips_per_op",
               Ratio(d(s0.overlapped_round_trips, s1.overlapped_round_trips), ops), "trips/op"});
  m.push_back({"ndb.cross_tx_merged_per_op",
               Ratio(d(s0.cross_tx_overlapped_round_trips, s1.cross_tx_overlapped_round_trips),
                     ops),
               "trips/op"});
  m.push_back({"ndb.mux_windows_per_round",
               Ratio(d(s0.mux_windows, s1.mux_windows), d(s0.mux_rounds, s1.mux_rounds)),
               "windows/round"});
  m.push_back({"ndb.mux_rounds_per_s", Ratio(d(s0.mux_rounds, s1.mux_rounds), r.window_s),
               "1/s"});
  m.push_back({"ndb.lock_waits_per_kop", Ratio(d(s0.lock_waits, s1.lock_waits), kops), "1/kop"});
  m.push_back({"ndb.lock_timeouts", d(s0.lock_timeouts, s1.lock_timeouts), "count"});
  m.push_back({"ndb.aborts_per_kop", Ratio(d(s0.aborts, s1.aborts), kops), "1/kop"});
  m.push_back({"ndb.rows_read_per_op", Ratio(d(s0.rows_read, s1.rows_read), ops), "rows/op"});
  m.push_back({"ndb.rows_written_per_op", Ratio(d(s0.rows_written, s1.rows_written), ops),
               "rows/op"});

  m.push_back({"occ.conflicts_per_kop", Ratio(d(s0.occ_conflicts, s1.occ_conflicts), kops),
               "1/kop"});
  m.push_back({"occ.key_conflicts_per_kop",
               Ratio(d(s0.occ_key_conflicts, s1.occ_key_conflicts), kops), "1/kop"});
  m.push_back({"occ.range_conflicts_per_kop",
               Ratio(d(s0.occ_range_conflicts, s1.occ_range_conflicts), kops), "1/kop"});
  return m;
}

// Per-layer timings of the traced run, plus the tracing overhead against
// the untraced run.
std::vector<Metric> TracedMetrics(const RunResult& plain, const RunResult& traced) {
  std::vector<Metric> m;
  const KvTotals& k = traced.kv;
  const double ops = static_cast<double>(traced.ops);
  m.push_back({"kv.txns_per_op", Ratio(static_cast<double>(k.begun), ops), "txns/op"});
  m.push_back({"kv.commit_ratio",
               Ratio(static_cast<double>(k.committed), static_cast<double>(k.begun)), "ratio"});
  m.push_back({"kv.fg_txn_us_per_op", Ratio(k.fg_txn_us, ops), "us/op"});
  m.push_back({"kv.bg_txn_us_per_op", Ratio(k.bg_txn_us, ops), "us/op"});
  m.push_back({"kv.read_us_per_op", Ratio(k.read_us, ops), "us/op"});
  m.push_back({"kv.read_p99_us", Percentile(k.read_samples, 0.99), "us",
               static_cast<int64_t>(k.read_samples.size())});
  m.push_back({"kv.write_us_per_op", Ratio(k.write_us, ops), "us/op"});
  m.push_back({"kv.wait_us_per_op", Ratio(k.wait_us, ops), "us/op"});
  m.push_back({"kv.wait_p99_us", Percentile(k.wait_samples, 0.99), "us",
               static_cast<int64_t>(k.wait_samples.size())});
  m.push_back({"kv.commit_us_per_op", Ratio(k.commit_us, ops), "us/op"});
  m.push_back({"kv.commit_p99_us", Percentile(k.commit_samples, 0.99), "us",
               static_cast<int64_t>(k.commit_samples.size())});
  m.push_back({"kv.calls_per_op", Ratio(static_cast<double>(k.calls), ops), "calls/op"});

  // Client mean minus the handler-queue wait (Little's law, per request,
  // times requests per op) minus foreground transaction time: what is left
  // approximates resolution and planning CPU outside the transactions.
  std::vector<float> all = traced.read_us;
  Append(all, traced.write_us);
  const double served = static_cast<double>(traced.after.served - traced.before.served);
  const double wait_per_req = 1e6 * Ratio(traced.queue_depth_mean, served / traced.window_s);
  m.push_back({"namenode.residual_us_per_op",
               Mean(all) - wait_per_req * Ratio(served, ops) - Ratio(k.fg_txn_us, ops),
               "us/op"});

  const double plain_rate = OpsPerSecond(plain);
  const double traced_rate = OpsPerSecond(traced);
  m.push_back({"trace.overhead_pct", 100.0 * Ratio(plain_rate - traced_rate, plain_rate), "%"});
  return m;
}

// --- Result file -------------------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i > 0 ? ",\n    " : "\n    ") + Quote(m.name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + Quote(m.unit);
    if (m.samples >= 0) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "\n  }";
}

std::string RunJson(const RunResult& r) {
  std::string out = "{\"ops\": " + std::to_string(r.ops) + ", \"window_s\": " + Num(r.window_s) +
                    ", \"ack_s\": " + Num(r.ack_s) + ", \"drain_s\": " + Num(r.drain_s) +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) + ", \"failures_by_code\": {";
  size_t i = 0;
  for (const auto& [code, n] : r.failures_by_code) {
    out += (i++ > 0 ? ", " : "") + Quote(code) + ": " + std::to_string(n);
  }
  out += "}, \"failure_examples\": [";
  for (size_t j = 0; j < r.failure_examples.size(); ++j) {
    out += (j > 0 ? ", " : "") + Quote(r.failure_examples[j]);
  }
  const Oracle& o = r.oracle;
  out += "], \"oracle\": {\"ok\": " + std::string(o.ok ? "true" : "false") +
         ", \"initial_inodes\": " + std::to_string(o.initial_inodes) +
         ", \"created\": " + std::to_string(o.created) +
         ", \"deleted\": " + std::to_string(o.deleted) +
         ", \"final_inodes\": " + std::to_string(o.final_inodes) +
         ", \"live_files_checked\": " + std::to_string(o.live_checked) +
         ", \"removed_paths_checked\": " + std::to_string(o.removed_checked) + ", \"errors\": [";
  for (size_t j = 0; j < o.errors.size(); ++j) out += (j > 0 ? ", " : "") + Quote(o.errors[j]);
  return out + "]}}";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: hopsbench --workload NAME --seed N --seconds S --out FILE "
                 "[--trace 0|1] [--trace-out FILE]\n");
    return 2;
  }
  // MiniCluster::Start lets HOPS_KV_ENGINE override the configured engine,
  // which would silently relabel a workload's engine: refuse instead.
  if (const char* env = std::getenv("HOPS_KV_ENGINE"); env != nullptr && *env != '\0') {
    std::fprintf(stderr, "hopsbench: HOPS_KV_ENGINE=%s is set; each workload pins its engine, "
                 "unset it\n", env);
    return 2;
  }
  const WorkloadDef* def = FindWorkload(args.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "hopsbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const fs::MiniClusterOptions options = OptionsFor(*def);
  const Generator gen(*def, kClients, args.seed);

  // Each set-up but the last is torn down before the next one starts, so
  // they never hold memory at the same time.
  std::unique_ptr<Deployment> dep;
  std::vector<double> setups_s;
  for (int i = 0; i < kSetups; ++i) {
    dep.reset();
    const SteadyClock::time_point setup_start = SteadyClock::now();
    dep = SetUp(options, gen, args.seed, /*traced=*/false);
    if (dep == nullptr) return 4;
    setups_s.push_back(MicrosBetween(setup_start, SteadyClock::now()) / 1e6);
  }
  std::vector<double> sorted_setups = setups_s;
  std::sort(sorted_setups.begin(), sorted_setups.end());
  const double setup_s = sorted_setups[kSetups / 2];

  const kv::EngineConfig& dbc = dep->db().config();
  const fs::FsConfig& fsc = dep->fs_config();
  std::string config =
      "{\"engine\": " + Quote(std::string(kv::EngineKindName(fsc.kv_engine))) +
      ", \"namenodes\": " + std::to_string(kNamenodes) +
      ", \"handlers_per_namenode\": " + std::to_string(fsc.num_handlers) +
      ", \"use_completion_mux\": " + (dbc.use_completion_mux ? "true" : "false") +
      ", \"mux_adaptive_gather\": " + (dbc.mux_adaptive_gather ? "true" : "false") +
      ", \"async_metadata_commit\": " + (fsc.async_metadata_commit ? "true" : "false") +
      ", \"hint_cache_capacity\": " + std::to_string(fsc.hint_cache_capacity) +
      ", \"kv_datanodes\": " + std::to_string(dbc.num_datanodes) +
      ", \"replication\": " + std::to_string(dbc.replication) +
      ", \"fs_datanodes\": " + std::to_string(kFsDatanodes) +
      ", \"client_threads\": " + std::to_string(kClients) +
      ", \"namenode_policy\": " + Quote(def->pinned ? "sticky, client t on namenode t%2" : "random") +
      ", \"namespace_dirs\": " + std::to_string(gen.ns().dirs.size()) +
      ", \"namespace_files\": " + std::to_string(gen.ns().files.size()) + "}";

  // A traced run measures half of --seconds untraced and half traced.
  const double window_s = args.trace ? args.seconds / 2 : args.seconds;
  RunResult plain = RunWorkload(*dep, *def, gen, args.seed, window_s, /*traced=*/false);
  std::vector<Metric> metrics;
  std::string runs = "\"run\": " + RunJson(plain);
  bool ok = plain.oracle.ok;
  uint64_t attempted = plain.attempted, failed = plain.failed;
  if (!args.trace) {
    metrics = EndToEnd(plain, setup_s);
    for (Metric& m : CountMetrics(plain)) metrics.push_back(std::move(m));
  } else {
    dep.reset();
    LayerClock::Get().EnableSpans(kSpanCapacity);
    dep = SetUp(options, gen, args.seed, /*traced=*/true);
    if (dep == nullptr) return 4;
    RunResult traced = RunWorkload(*dep, *def, gen, args.seed, window_s, /*traced=*/true);
    dep.reset();  // every thread that records spans is joined before the write
    metrics = CountMetrics(plain);
    for (Metric& m : TracedMetrics(plain, traced)) metrics.push_back(std::move(m));
    runs += ", \"traced_run\": " + RunJson(traced);
    ok = ok && traced.oracle.ok;
    attempted += traced.attempted;
    failed += traced.failed;
    if (!args.trace_out.empty() && !LayerClock::Get().WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "hopsbench: cannot write %s\n", args.trace_out.c_str());
    }
  }

  std::string setups_json = "[";
  for (size_t i = 0; i < setups_s.size(); ++i) {
    setups_json += (i > 0 ? ", " : "") + Num(setups_s[i]);
  }
  setups_json += "]";
  const std::string json =
      "{\n  \"workload\": " + Quote(def->name) + ",\n  \"seed\": " + std::to_string(args.seed) +
      ",\n  \"seconds\": " + Num(args.seconds) + ",\n  \"warmup_ops_per_client\": " +
      std::to_string(kWarmupOpsPerClient) + ",\n  \"setups_s\": " + setups_json +
      ",\n  \"trace\": " + (args.trace ? "true" : "false") + ",\n  \"config\": " + config +
      ",\n  \"correct\": " +
      (ok ? "true" : "false") + ",\n  \"attempted\": " + std::to_string(attempted) +
      ",\n  \"failed\": " + std::to_string(failed) + ",\n  " + runs +
      ",\n  \"metrics\": " + MetricsJson(metrics) + "\n}\n";
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr || std::fputs(json.c_str(), f) < 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "hopsbench: cannot write %s\n", args.out.c_str());
    return 4;
  }
  if (!ok) {
    std::fprintf(stderr, "hopsbench: ORACLE FAILED on %s; see %s\n", def->name,
                 args.out.c_str());
    return 3;
  }
  return 0;
}

}  // namespace
}  // namespace hopsbench

int main(int argc, char** argv) { return hopsbench::Main(argc, argv); }
