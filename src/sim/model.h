// Cluster models: HopsFS (stateless namenodes + NDB node stations, driven by
// measured database-access traces) and HDFS (global readers-writer lock +
// serial dispatch + quorum journal). Used by every throughput/latency
// figure benchmark. Simulation substitutes for the paper's 72-machine testbed,
// which one process cannot host; calibration.h holds the constants.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "sim/calibration.h"
#include "sim/des.h"
#include "util/histogram.h"
#include "workload/spec.h"
#include "workload/trace.h"

namespace hops::sim {

struct WorkloadSpec {
  const wl::OpMix* mix = nullptr;
  const wl::TracePools* traces = nullptr;  // required for the HopsFS model
  int num_clients = 256;
  double duration_s = 0.25;  // measured window (virtual time)
  double warmup_s = 0.05;
  uint64_t seed = 1;
};

struct HopsTopology {
  int num_namenodes = 2;
  int num_db_nodes = 4;
};

// Kill (and optionally revive) namenodes at virtual times, for Figure 10.
struct FailureEvent {
  double at_s = 0;
  int kill_namenode = -1;    // index, -1 = none
  int revive_namenode = -1;  // index, -1 = none
};

struct SimResult {
  uint64_t ops = 0;
  double ops_per_sec = 0;
  hops::Histogram latency_us;
  std::map<wl::OpType, hops::Histogram> per_op_latency_us;
  double nn_utilization = 0;   // HopsFS namenode stations
  double db_utilization = 0;   // NDB datanode stations
  // Completed operations per timeline bucket (including warmup), when
  // timeline_bucket_s > 0.
  std::vector<double> timeline_ops_per_sec;
  double timeline_bucket_s = 0;
};

SimResult SimulateHopsFs(const HopsTopology& topology, const WorkloadSpec& workload,
                         const Calibration& cal = {},
                         const std::vector<FailureEvent>& failures = {},
                         double timeline_bucket_s = 0);

// `kill_active_at_s` < 0 disables the failover experiment.
SimResult SimulateHdfs(const WorkloadSpec& workload, const Calibration& cal = {},
                       double kill_active_at_s = -1, double timeline_bucket_s = 0);

}  // namespace hops::sim
