#include "chaos/chaos.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <set>
#include <thread>

#include "util/rng.h"

namespace hops::chaos {
namespace {

using Clock = std::chrono::steady_clock;

// Availability-failure codes for oracle 3: what a client sees when the
// cluster (not its own request) is at fault. NotFound is deliberately
// absent -- an acked-but-unapplied path read through another namenode is
// async-commit visibility lag, not unavailability, and the workload retries
// it without recording a failure. kTxAborted / kLockTimeout are also absent:
// transaction backpressure (a stat S-lock waiting out the mux deadline
// behind an in-flight apply's X-lock, injected transient aborts) happens
// under plain contention with no fault applied, so counting it would make
// oracle 3 flake on a loaded machine; real clients retry those codes.
// Unavailability here means nobody could serve the request at all.
bool IsAvailabilityCode(hops::StatusCode c) {
  return c == hops::StatusCode::kFailover || c == hops::StatusCode::kUnavailable ||
         c == hops::StatusCode::kInternal;
}

// Recursive namespace walk under `root`: one sorted line per inode, the
// convergence fingerprint's preimage. Reads go through the namenode's
// ordinary transactions, so the walk sees exactly the committed metadata.
std::vector<std::string> FingerprintLines(fs::Namenode& nn, const std::string& root) {
  std::vector<std::string> out;
  auto line = [](const std::string& path, bool is_dir, int64_t perm,
                 const std::string& owner, const std::string& group) {
    return path + "|" + (is_dir ? "d" : "f") + "|" + std::to_string(perm) + "|" + owner +
           "|" + group;
  };
  auto self = nn.GetFileInfo(root);
  if (!self.ok()) return out;  // nothing under the chaos namespace
  out.push_back(line(root, self->is_dir, self->perm, self->owner, self->group));
  std::vector<std::string> stack{root};
  while (!stack.empty()) {
    std::string dir = stack.back();
    stack.pop_back();
    auto children = nn.ListStatus(dir);
    if (!children.ok()) {
      out.push_back("LIST-ERROR " + dir + ": " + children.status().ToString());
      continue;
    }
    for (const fs::FileStatus& c : *children) {
      std::string path = dir + "/" + c.name;
      out.push_back(line(path, c.is_dir, c.perm, c.owner, c.group));
      if (c.is_dir) stack.push_back(path);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

std::string_view FaultClassName(FaultClass c) {
  switch (c) {
    case FaultClass::kNamenodeCrash: return "namenode-crash";
    case FaultClass::kNamenodeCrashSameId: return "namenode-crash-same-id";
    case FaultClass::kHeartbeatStall: return "heartbeat-stall";
    case FaultClass::kDatanodeFlap: return "datanode-flap";
    case FaultClass::kNdbNodeFlap: return "ndb-node-flap";
    case FaultClass::kPausedApplier: return "paused-applier";
    case FaultClass::kPausedCleaner: return "paused-cleaner";
    case FaultClass::kNdbTableFaults: return "ndb-table-faults";
    case FaultClass::kNdbLatency: return "ndb-latency";
  }
  return "unknown";
}

uint64_t FaultPlan::Fingerprint() const {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(seed);
  for (const FaultEvent& e : events) {
    mix(static_cast<uint64_t>(e.fault));
    mix(static_cast<uint64_t>(e.at_ms));
    mix(static_cast<uint64_t>(e.dwell_ms));
    mix(static_cast<uint64_t>(e.target));
    mix(static_cast<uint64_t>(e.probability * 1e6));
    mix(static_cast<uint64_t>(e.delay_us));
  }
  return h;
}

FaultPlan GeneratePlan(const ChaosOptions& options) {
  // Pure function of the options: no clock, no global state. The schedule
  // Rng is decoupled from the workload Rngs (seed * 1000003 + thread) by an
  // arbitrary odd multiplier.
  Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 0xc4a05);
  FaultPlan plan;
  plan.seed = options.seed;
  const int64_t dur = options.duration.count();
  for (int i = 0; i < options.num_faults; ++i) {
    FaultEvent ev;
    // Draw every field regardless of class so the stream stays aligned
    // across only_class filters of the same seed.
    auto cls = static_cast<FaultClass>(rng.Below(kNumFaultClasses));
    int64_t at = rng.Range(dur / 10, dur * 7 / 10);
    int64_t dwell = rng.Range(150, 450);
    ev.fault = options.only_class.value_or(cls);
    ev.at_ms = options.pin_at_ms.value_or(at);
    ev.dwell_ms = options.pin_dwell_ms.value_or(dwell);
    ev.target = static_cast<int>(rng.Below(1u << 16));
    ev.probability = 0.05 + 0.20 * rng.NextDouble();
    ev.delay_us = rng.Range(200, 1500);
    plan.events.push_back(ev);
  }
  std::stable_sort(plan.events.begin(), plan.events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) { return a.at_ms < b.at_ms; });
  return plan;
}

ChaosReport RunChaos(const ChaosOptions& options) {
  ChaosReport report;
  report.plan = GeneratePlan(options);
  const std::string seed_tag = "seed " + std::to_string(options.seed) + ": ";

  fs::MiniClusterOptions mc;
  mc.num_namenodes = options.num_namenodes;
  mc.num_datanodes = options.num_datanodes;
  mc.fs.kv_engine = options.engine;
  mc.fs.num_handlers = options.num_handlers;
  mc.fs.async_metadata_commit = true;
  auto cluster_or = fs::MiniCluster::Start(mc);
  if (!cluster_or.ok()) {
    report.violations.push_back(seed_tag + "cluster start failed: " +
                                cluster_or.status().ToString());
    return report;
  }
  std::unique_ptr<fs::MiniCluster> cluster = std::move(*cluster_or);
  kv::FaultInjector& injector = cluster->db().fault_injector();
  injector.Seed(options.seed ^ 0xfa5e1ed5ULL);
  const uint64_t errors0 = injector.injected_errors();
  const uint64_t delays0 = injector.injected_delays();

  const Clock::time_point t0 = Clock::now();
  auto now_us = [&t0]() {
    return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0).count();
  };
  const int64_t deadline_us = options.duration.count() * 1000;

  // --- Heartbeat ticker -----------------------------------------------------
  // Drives failure detection and intent adoption throughout the
  // run AND the heal phase; the stall set implements kHeartbeatStall.
  std::vector<std::atomic<bool>> stalled(static_cast<size_t>(options.num_namenodes));
  std::atomic<bool> tick_stop{false};
  std::thread ticker([&] {
    while (!tick_stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < options.num_namenodes; ++i) {
        if (stalled[static_cast<size_t>(i)].load(std::memory_order_relaxed)) continue;
        fs::Namenode& nn = cluster->namenode(i);
        if (nn.alive()) (void)nn.Heartbeat();
      }
      std::this_thread::sleep_for(options.tick);
    }
  });

  // --- Workload threads -----------------------------------------------------
  struct ThreadLog {
    std::vector<AckedOp> acked;
    std::vector<ChaosReport::Sample> samples;
    uint64_t attempted = 0;
    std::vector<std::string> violations;
  };
  std::vector<ThreadLog> logs(static_cast<size_t>(options.num_threads));
  std::atomic<bool> hard_stop{false};

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(options.num_threads));
  for (int t = 0; t < options.num_threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadLog& log = logs[static_cast<size_t>(t)];
      Rng rng(options.seed * 1000003ULL + static_cast<uint64_t>(t) + 1);
      const std::string cname = "chaos-t" + std::to_string(t);
      fs::Client client = cluster->NewClient(fs::NamenodePolicy::kSticky, cname,
                                             options.seed + static_cast<uint64_t>(t));
      const std::string root = "/chaos/t" + std::to_string(t);

      // Retries an idempotent mutation until acknowledged. Mutations are
      // retried on EVERY failure -- NotFound included (async-commit
      // visibility lag through another namenode) -- because the oracles
      // need each attempted mutation to end acknowledged: an op abandoned
      // un-acked but secretly applied would fail the convergence oracle.
      auto retry_until_acked = [&](const std::function<hops::Status()>& op,
                                   bool exists_is_ack, bool record) -> bool {
        const int64_t give_up = now_us() + 60'000'000;  // healed cluster acks fast
        for (;;) {
          hops::Status st = op();
          int64_t at = now_us();
          if (st.ok() ||
              (exists_is_ack && st.code() == hops::StatusCode::kAlreadyExists)) {
            if (record) log.samples.push_back({at, true});
            return true;
          }
          if (record && IsAvailabilityCode(st.code())) log.samples.push_back({at, false});
          if (at > give_up || hard_stop.load(std::memory_order_relaxed)) {
            log.violations.push_back(seed_tag + "mutation never acknowledged: " +
                                     st.ToString());
            return false;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1 + rng.Below(4)));
        }
      };

      // Setup (before any fault fires): the thread's private subtree root.
      // Unsampled: the only cross-thread contention of the run (the shared
      // /chaos parent) lives here, and oracle 3 must not see its lock noise.
      if (!retry_until_acked([&] { return client.Mkdirs(root); },
                             /*exists_is_ack=*/true, /*record=*/false)) {
        return;
      }
      log.acked.push_back({AckedOp::Kind::kMkdirs, root, 0, "", "", cname, now_us()});

      std::vector<std::string> dirs{root};
      std::vector<std::string> all_paths{root};
      std::set<std::string> perm_done, owner_done;
      uint64_t counter = 0;

      while (now_us() < deadline_us && !hard_stop.load(std::memory_order_relaxed)) {
        uint64_t die = rng.Below(100);
        ++log.attempted;
        if (die < 30) {  // mkdirs
          std::string path =
              dirs[rng.Below(dirs.size())] + "/d" + std::to_string(counter++);
          if (retry_until_acked([&] { return client.Mkdirs(path); }, true, true)) {
            log.acked.push_back({AckedOp::Kind::kMkdirs, path, 0, "", "", cname, now_us()});
            dirs.push_back(path);
            all_paths.push_back(path);
          }
        } else if (die < 55) {  // create
          std::string path =
              dirs[rng.Below(dirs.size())] + "/f" + std::to_string(counter++);
          if (retry_until_acked([&] { return client.CreateFile(path); }, true, true)) {
            log.acked.push_back({AckedOp::Kind::kCreate, path, 0, "", "", cname, now_us()});
            all_paths.push_back(path);
          }
        } else if (die < 70 && perm_done.size() < all_paths.size()) {
          // setperm: at most ONE per path. A second value racing the first
          // through different namenodes' appliers could settle in either
          // order; one value per path keeps replay order-independent.
          std::string path = all_paths[rng.Below(all_paths.size())];
          auto perm = static_cast<int64_t>(rng.Below(512));
          if (perm_done.count(path) != 0) continue;
          if (retry_until_acked([&] { return client.SetPermission(path, perm); }, false,
                                true)) {
            perm_done.insert(path);
            log.acked.push_back({AckedOp::Kind::kSetPerm, path, perm, "", "", cname,
                                 now_us()});
          }
        } else if (die < 80 && owner_done.size() < all_paths.size()) {
          std::string path = all_paths[rng.Below(all_paths.size())];
          std::string owner = "u" + std::to_string(rng.Below(10));
          std::string group = "g" + std::to_string(rng.Below(10));
          if (owner_done.count(path) != 0) continue;
          if (retry_until_acked([&] { return client.SetOwner(path, owner, group); },
                                false, true)) {
            owner_done.insert(path);
            log.acked.push_back({AckedOp::Kind::kSetOwner, path, 0, owner, group, cname,
                                 now_us()});
          }
        } else if (die < 92) {  // stat (single attempt; failures feed oracle 3)
          std::string path = all_paths[rng.Below(all_paths.size())];
          hops::Status st = client.Stat(path).status();
          log.samples.push_back({now_us(), !IsAvailabilityCode(st.code())});
        } else {  // list
          std::string dir = dirs[rng.Below(dirs.size())];
          hops::Status st = client.List(dir).status();
          log.samples.push_back({now_us(), !IsAvailabilityCode(st.code())});
        }
      }
    });
  }

  // --- Conductor (this thread): apply / dwell / heal ------------------------
  struct ActiveFault {
    FaultEvent* ev;
    int64_t heal_at_ms;
    int slot = -1;            // namenode slot (crash / stall / pause classes)
    fs::Namenode* nn = nullptr;  // pause target (survives a slot swap)
    int dn = -1;              // fs datanode index
    uint32_t node = 0;        // NDB data node
    kv::TableId table{};     // armed injector key
  };
  std::vector<ActiveFault> active;

  auto apply_fault = [&](FaultEvent& ev) {
    ActiveFault a{&ev, ev.at_ms + ev.dwell_ms};
    switch (ev.fault) {
      case FaultClass::kNamenodeCrash:
      case FaultClass::kNamenodeCrashSameId:
        a.slot = ev.target % options.num_namenodes;
        cluster->KillNamenode(a.slot);
        break;
      case FaultClass::kHeartbeatStall:
        a.slot = ev.target % options.num_namenodes;
        stalled[static_cast<size_t>(a.slot)].store(true, std::memory_order_relaxed);
        break;
      case FaultClass::kDatanodeFlap:
        a.dn = ev.target % options.num_datanodes;
        cluster->datanode(a.dn).Kill();
        break;
      case FaultClass::kNdbNodeFlap:
        a.node = static_cast<uint32_t>(ev.target) % cluster->db().num_datanodes();
        cluster->db().KillDatanode(a.node);
        break;
      case FaultClass::kPausedApplier:
        a.slot = ev.target % options.num_namenodes;
        a.nn = &cluster->namenode(a.slot);
        a.nn->SetIntentApplierPausedForTesting(true);
        break;
      case FaultClass::kPausedCleaner:
        a.slot = ev.target % options.num_namenodes;
        a.nn = &cluster->namenode(a.slot);
        a.nn->SetIntentCleanerPausedForTesting(true);
        break;
      case FaultClass::kNdbTableFaults: {
        const fs::MetadataSchema& s = cluster->schema();
        kv::TableId choices[3] = {s.inodes, s.op_intents, kv::FaultInjector::kAllTables};
        a.table = choices[ev.target % 3];
        injector.Arm(a.table, {ev.probability, 0.0, std::chrono::microseconds{0}});
        break;
      }
      case FaultClass::kNdbLatency:
        a.table = kv::FaultInjector::kAllTables;
        injector.Arm(a.table,
                     {0.0, 0.5, std::chrono::microseconds{ev.delay_us}});
        break;
    }
    if (options.verbose) {
      std::fprintf(stderr, "[chaos] t=%lldms apply %s target=%d\n",
                   static_cast<long long>(ev.at_ms),
                   std::string(FaultClassName(ev.fault)).c_str(), ev.target);
    }
    active.push_back(a);
  };

  auto heal_fault = [&](ActiveFault& a) {
    switch (a.ev->fault) {
      case FaultClass::kNamenodeCrash:
        // May fail while another fault holds the database down; the global
        // heal's restart net below retries dead slots.
        (void)cluster->RestartNamenode(a.slot);
        break;
      case FaultClass::kNamenodeCrashSameId:
        (void)cluster->RestartNamenodeSameId(a.slot);
        break;
      case FaultClass::kHeartbeatStall:
        stalled[static_cast<size_t>(a.slot)].store(false, std::memory_order_relaxed);
        break;
      case FaultClass::kDatanodeFlap:
        cluster->datanode(a.dn).Restart();
        break;
      case FaultClass::kNdbNodeFlap:
        cluster->db().RestartDatanode(a.node);
        break;
      case FaultClass::kPausedApplier:
        a.nn->SetIntentApplierPausedForTesting(false);
        break;
      case FaultClass::kPausedCleaner:
        a.nn->SetIntentCleanerPausedForTesting(false);
        break;
      case FaultClass::kNdbTableFaults:
      case FaultClass::kNdbLatency:
        injector.Disarm(a.table);
        break;
    }
    a.ev->healed_us = now_us();
    if (options.verbose) {
      std::fprintf(stderr, "[chaos] t=%lldms heal %s\n",
                   static_cast<long long>(a.ev->healed_us / 1000),
                   std::string(FaultClassName(a.ev->fault)).c_str());
    }
  };

  size_t next_ev = 0;
  std::vector<FaultEvent>& events = report.plan.events;
  while (now_us() < deadline_us) {
    int64_t now_ms = now_us() / 1000;
    for (size_t i = 0; i < active.size();) {
      if (active[i].heal_at_ms <= now_ms) {
        heal_fault(active[i]);
        active.erase(active.begin() + static_cast<long>(i));
      } else {
        ++i;
      }
    }
    while (next_ev < events.size() && events[next_ev].at_ms <= now_ms) {
      events[next_ev].applied_us = now_us();
      apply_fault(events[next_ev]);
      ++next_ev;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // --- Global heal -----------------------------------------------------------
  report.heal_start_us = now_us();
  injector.DisarmAll();
  for (ActiveFault& a : active) heal_fault(a);
  active.clear();
  // Events the conductor never reached (a laggy run): count them as applied
  // and healed instantly so the oracle windows stay well-defined.
  for (; next_ev < events.size(); ++next_ev) {
    events[next_ev].applied_us = now_us();
    events[next_ev].healed_us = now_us();
  }
  for (int i = 0; i < options.num_namenodes; ++i) {
    stalled[static_cast<size_t>(i)].store(false, std::memory_order_relaxed);
  }
  for (int i = 0; i < options.num_datanodes; ++i) cluster->datanode(i).Restart();
  for (uint32_t n = 0; n < cluster->db().num_datanodes(); ++n) {
    if (!cluster->db().IsAlive(n)) cluster->db().RestartDatanode(n);
  }
  // Restart net: every dead slot gets a fresh namenode (retrying -- an
  // in-run heal may have failed while the database was down).
  {
    int64_t net_deadline = now_us() + 10'000'000;
    for (int i = 0; i < options.num_namenodes; ++i) {
      while (!cluster->namenode(i).alive() && now_us() < net_deadline) {
        if (cluster->RestartNamenode(i).ok()) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (!cluster->namenode(i).alive()) {
        report.violations.push_back(seed_tag + "slot " + std::to_string(i) +
                                    " never restarted during heal");
      }
    }
  }

  for (std::thread& w : workers) w.join();

  // Drain: every surviving intent row must apply (owners' appliers for live
  // partitions, the leader's heartbeat adoption for dead ones) and the
  // cleaners must delete the applied rows. Oracle 2's first half.
  {
    int64_t drain_deadline = now_us() + 20'000'000;
    for (;;) {
      cluster->DrainIntents();
      size_t rows = cluster->db().TableRowCount(cluster->schema().op_intents);
      if (rows == 0) break;
      if (now_us() > drain_deadline) {
        report.violations.push_back(seed_tag + "op_intents never drained: " +
                                    std::to_string(rows) + " rows stranded");
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  report.heal_end_us = now_us();
  tick_stop.store(true);
  ticker.join();

  // --- Collect ---------------------------------------------------------------
  for (ThreadLog& log : logs) {
    report.ops_acked += log.acked.size();
    report.ops_attempted += log.attempted;
    for (const auto& s : log.samples) {
      if (!s.ok) ++report.availability_failures;
    }
    report.samples.insert(report.samples.end(), log.samples.begin(), log.samples.end());
    for (std::string& v : log.violations) report.violations.push_back(std::move(v));
  }
  std::sort(report.samples.begin(), report.samples.end(),
            [](const ChaosReport::Sample& a, const ChaosReport::Sample& b) {
              return a.at_us < b.at_us;
            });
  report.injected_errors = injector.injected_errors() - errors0;
  report.injected_delays = injector.injected_delays() - delays0;

  // --- Oracle 2: no acknowledged op lost -------------------------------------
  fs::Namenode* reader = cluster->leader();
  if (reader == nullptr) {
    auto alive = cluster->AliveNamenodes();
    reader = alive.empty() ? nullptr : alive.front();
  }
  if (reader == nullptr) {
    report.violations.push_back(seed_tag + "no alive namenode after heal");
  } else {
    for (const ThreadLog& log : logs) {
      for (const AckedOp& op : log.acked) {
        auto info = reader->GetFileInfo(op.path);
        if (!info.ok()) {
          report.violations.push_back(seed_tag + "acked op lost: " + op.path + " (" +
                                      info.status().ToString() + ")");
          continue;
        }
        if (op.kind == AckedOp::Kind::kSetPerm && info->perm != op.perm) {
          report.violations.push_back(seed_tag + "acked setperm lost on " + op.path);
        }
        if (op.kind == AckedOp::Kind::kSetOwner &&
            (info->owner != op.owner || info->group != op.group)) {
          report.violations.push_back(seed_tag + "acked setowner lost on " + op.path);
        }
        if (op.kind == AckedOp::Kind::kMkdirs && !info->is_dir) {
          report.violations.push_back(seed_tag + "acked mkdirs became a file: " + op.path);
        }
      }
    }
  }

  // --- Oracle 1: convergence against a crash-free replay ---------------------
  if (reader != nullptr) {
    fs::MiniClusterOptions oo;
    oo.num_namenodes = 1;
    oo.num_datanodes = 1;
    oo.fs.kv_engine = options.engine;
    oo.fs.num_handlers = 0;
    oo.fs.async_metadata_commit = false;
    auto oracle_or = fs::MiniCluster::Start(oo);
    if (!oracle_or.ok()) {
      report.violations.push_back(seed_tag + "oracle cluster start failed: " +
                                  oracle_or.status().ToString());
    } else {
      fs::Namenode& onn = (*oracle_or)->namenode(0);
      for (const ThreadLog& log : logs) {
        for (const AckedOp& op : log.acked) {
          hops::Status st = hops::Status::Ok();
          switch (op.kind) {
            case AckedOp::Kind::kMkdirs: st = onn.Mkdirs(op.path); break;
            case AckedOp::Kind::kCreate: st = onn.Create(op.path, op.client); break;
            case AckedOp::Kind::kSetPerm: st = onn.SetPermission(op.path, op.perm); break;
            case AckedOp::Kind::kSetOwner:
              st = onn.SetOwner(op.path, op.owner, op.group);
              break;
          }
          if (!st.ok() && st.code() != hops::StatusCode::kAlreadyExists) {
            report.violations.push_back(seed_tag + "oracle replay failed on " + op.path +
                                        ": " + st.ToString());
          }
        }
      }
      report.fingerprint = FingerprintLines(*reader, "/chaos");
      std::vector<std::string> expect = FingerprintLines(onn, "/chaos");
      if (report.fingerprint != expect) {
        size_t n = std::max(report.fingerprint.size(), expect.size());
        for (size_t i = 0; i < n; ++i) {
          const std::string* got =
              i < report.fingerprint.size() ? &report.fingerprint[i] : nullptr;
          const std::string* want = i < expect.size() ? &expect[i] : nullptr;
          if (got != nullptr && want != nullptr && *got == *want) continue;
          report.violations.push_back(
              seed_tag + "fingerprint diverged: cluster=" + (got ? *got : "<missing>") +
              " oracle=" + (want ? *want : "<missing>"));
          break;
        }
      }
    }
  }

  // --- Oracle 3: bounded unavailability --------------------------------------
  const int64_t horizon_us = options.recovery_horizon.count() * 1000;
  for (const ChaosReport::Sample& s : report.samples) {
    if (s.ok) continue;
    bool covered = s.at_us >= report.heal_start_us &&
                   s.at_us <= report.heal_end_us + horizon_us;
    for (const FaultEvent& e : events) {
      if (covered) break;
      if (e.applied_us < 0) continue;
      int64_t close = e.healed_us < 0 ? report.heal_end_us : e.healed_us;
      covered = s.at_us >= e.applied_us && s.at_us <= close + horizon_us;
    }
    if (!covered) {
      report.violations.push_back(
          seed_tag + "availability failure at " + std::to_string(s.at_us) +
          "us outside every fault's recovery window");
    }
  }

  return report;
}

}  // namespace hops::chaos
