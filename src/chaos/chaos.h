// Chaos harness: seeded fault injection under mixed load (the testing half
// of the paper's operational story -- §3 failover, §5 async commits, §6
// subtree recovery all claim crash safety; this subsystem checks it).
//
// A run builds a MiniCluster, drives a mixed metadata workload through the
// handler pool from several client threads, and executes a fault PLAN -- a
// pure function of the seed -- against it: namenode crashes (new id and
// resumed id), stalled heartbeats, datanode flaps, NDB data-node flaps,
// paused intent applier/cleaner threads, and NDB-level injected faults
// (per-table transient errors and latency spikes through kv::FaultInjector).
// After a global heal the run is checked against three oracles:
//
//   1. Convergence: the namespace fingerprint equals a crash-free oracle
//      cluster's replay of the acknowledged op streams.
//   2. No lost ack: every acknowledged mutation is visible and the intent
//      log drained to zero rows.
//   3. Bounded unavailability: every client-visible availability failure
//      falls inside a fault's [applied, healed + horizon] window.
//
// Violation messages embed the seed so a failing schedule replays exactly.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hopsfs/mini_cluster.h"

namespace hops::chaos {

enum class FaultClass {
  kNamenodeCrash,        // Kill + restart under a NEW namenode id
  kNamenodeCrashSameId,  // Kill + restart RESUMING the old id (process restart)
  kHeartbeatStall,       // namenode keeps serving but stops heartbeating
  kDatanodeFlap,         // fs datanode failure + rejoin
  kNdbNodeFlap,          // NDB data node failure + recovery
  kPausedApplier,        // intent applier stalls (acked-unapplied backlog)
  kPausedCleaner,        // intent cleaner stalls (applied rows accumulate)
  kNdbTableFaults,       // seeded transient errors on metadata tables
  kNdbLatency,           // seeded latency spikes on every table
};
inline constexpr int kNumFaultClasses = 9;

std::string_view FaultClassName(FaultClass c);

struct FaultEvent {
  FaultClass fault = FaultClass::kNamenodeCrash;
  int64_t at_ms = 0;     // offset into the run when the fault applies
  int64_t dwell_ms = 0;  // how long it stays applied before healing
  int target = 0;        // slot / node index; meaning depends on the class
  double probability = 0.0;  // error probability (kNdbTableFaults)
  int64_t delay_us = 0;      // injected latency (kNdbLatency)
  // Filled in by the run (consumed by the unavailability oracle and the
  // recovery-time bench): microseconds since run start.
  int64_t applied_us = -1;
  int64_t healed_us = -1;
};

struct FaultPlan {
  uint64_t seed = 0;
  std::vector<FaultEvent> events;
  // Stable digest of the schedule (seed, classes, times, targets). Two
  // processes given the same options must print the same fingerprint.
  uint64_t Fingerprint() const;
};

struct ChaosOptions {
  uint64_t seed = 1;
  // KV backend both the chaos cluster AND the crash-free oracle replay
  // cluster run on (the convergence oracle only means something when both
  // sides use the same engine). HOPS_KV_ENGINE still wins inside
  // MiniCluster::Start, so an env-pinned CI leg overrides this field.
  kv::EngineKind engine = kv::EngineKind::kNdb;
  int num_namenodes = 3;
  int num_datanodes = 3;
  int num_handlers = 4;
  int num_threads = 4;
  std::chrono::milliseconds duration{4000};
  std::chrono::milliseconds tick{20};  // heartbeat cadence
  // Oracle 3: a failure is tolerated until this long after its fault healed.
  std::chrono::milliseconds recovery_horizon{4000};
  int num_faults = 6;
  // Restrict the plan to one class (the per-class recovery bench).
  std::optional<FaultClass> only_class;
  // Pin the single-event schedule (per-class bench wants a fixed dip site).
  std::optional<int64_t> pin_at_ms;
  std::optional<int64_t> pin_dwell_ms;
  bool verbose = false;
};

// Generates the fault schedule for `options`: a pure function of the options
// (no clock, no global state), so a seed names one schedule forever.
FaultPlan GeneratePlan(const ChaosOptions& options);

// One acknowledged mutation, as recorded by the workload threads; the
// convergence oracle replays these per-thread streams on a crash-free
// cluster. Threads own disjoint subtrees, so cross-thread order is free.
struct AckedOp {
  enum class Kind { kMkdirs, kCreate, kSetPerm, kSetOwner };
  Kind kind = Kind::kMkdirs;
  std::string path;
  int64_t perm = 0;
  std::string owner, group;
  std::string client;   // create's lease holder
  int64_t acked_us = 0; // since run start
};

struct ChaosReport {
  FaultPlan plan;  // events carry their applied/healed timestamps
  uint64_t ops_acked = 0;
  uint64_t ops_attempted = 0;
  uint64_t availability_failures = 0;
  uint64_t injected_errors = 0;
  uint64_t injected_delays = 0;
  int64_t heal_start_us = 0;
  int64_t heal_end_us = 0;
  // Per-operation completion record (timestamp since run start); ok=false
  // entries are the availability failures oracle 3 judges. The recovery
  // bench bins the ok=true entries into a throughput timeline.
  struct Sample {
    int64_t at_us = 0;
    bool ok = true;
  };
  std::vector<Sample> samples;
  // Sorted "path|kind|perm|owner|group" lines of the final namespace (the
  // convergence fingerprint's preimage; kept for diffing on violation).
  std::vector<std::string> fingerprint;
  std::vector<std::string> violations;  // empty = every oracle passed

  bool ok() const { return violations.empty(); }
};

// Runs the full chaos experiment: cluster up, workload + conductor, global
// heal, oracles. Deterministic in its SCHEDULE and WORKLOAD streams (thread
// interleavings still vary; the oracles hold for every interleaving).
ChaosReport RunChaos(const ChaosOptions& options);

}  // namespace hops::chaos
