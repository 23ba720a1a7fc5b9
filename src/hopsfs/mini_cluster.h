// In-process HopsFS cluster for tests, examples and benchmarks: one NDB
// cluster, N namenodes, M simulated datanodes, and client factories.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "hopsfs/client.h"
#include "hopsfs/datanode.h"
#include "hopsfs/namenode.h"
#include "hopsfs/schema.h"
#include "kv/kv.h"

namespace hops::fs {

struct MiniClusterOptions {
  kv::EngineConfig db;
  FsConfig fs;
  int num_namenodes = 2;
  int num_datanodes = 3;
};

// Aggregate hint-cache counters across a cluster's namenodes. Surfaced in
// the workload driver report and the bench_fig06 hint-cache ablation.
struct ClusterHintStats {
  InodeHintCache::Stats cache;

  double HitRate() const {
    uint64_t lookups = cache.hits + cache.misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache.hits) / static_cast<double>(lookups);
  }
};

// Aggregate intent-log counters across a cluster's namenodes (async
// metadata commits), plus the adoption sweeps that replayed dead
// namenodes' orphaned intents. Surfaced in the workload driver report and
// the bench_table2 async-ack ablation.
struct ClusterIntentStats {
  IntentLogStats log;
  uint64_t intents_adopted = 0;

  double MeanAckLatencyUs() const {
    return log.acked_ops == 0 ? 0.0
                              : static_cast<double>(log.ack_latency_us) /
                                    static_cast<double>(log.acked_ops);
  }
  double MeanApplyLatencyUs() const {
    return log.intents_applied == 0 ? 0.0
                                    : static_cast<double>(log.apply_latency_us) /
                                          static_cast<double>(log.intents_applied);
  }
};

class MiniCluster {
 public:
  // Builds the database, formats the schema, and starts the namenodes.
  // Resolves ClusterConfig::mux_adaptive_gather_auto here: the gather delay
  // goes on once the handler pool is wide enough (>= 4 handlers per
  // namenode) that trailing windows are usually in flight to merge with.
  static hops::Result<std::unique_ptr<MiniCluster>> Start(MiniClusterOptions options);

  kv::Engine& db() { return *db_; }
  const MetadataSchema& schema() const { return schema_; }
  const FsConfig& fs_config() const { return options_.fs; }

  int num_namenodes() const { return num_namenode_slots_; }
  // The slot's current occupant. The returned reference stays valid across a
  // concurrent restart (replaced namenodes retire to a graveyard destroyed
  // at teardown), but names the occupant at call time.
  Namenode& namenode(int i);
  std::vector<Namenode*> AliveNamenodes();
  // The current leader among alive namenodes (by the election's view).
  Namenode* leader();

  int num_datanodes() const { return static_cast<int>(datanodes_.size()); }
  Datanode& datanode(int i) { return *datanodes_[static_cast<size_t>(i)]; }
  Datanode* FindDatanode(DatanodeId id);
  // Round-robin block placement over alive datanodes: up to `count` targets,
  // the picker every namenode of this cluster uses. The shared counter steps
  // ONCE per call and the call walks on from there, so a call's targets are
  // always distinct even while other namenodes pick concurrently.
  std::vector<DatanodeId> PickDatanodes(int count);

  // Sums every namenode's hint-cache counters (dead ones included: their
  // history is part of the run).
  ClusterHintStats AggregateHintStats();
  // Sums every namenode's intent-log counters (async metadata commits).
  ClusterIntentStats AggregateIntentStats();
  // Blocks until every alive namenode's acknowledged intents are applied
  // (async commits only; a no-op cluster-wide when the mode is off).
  void DrainIntents();

  // Kills namenode i (simulated process death; its id is retired).
  void KillNamenode(int i);
  // Replaces slot i with a fresh namenode (new id, empty caches). Safe under
  // concurrent client traffic: the dead instance retires to the graveyard so
  // in-flight calls on it finish with kFailover instead of use-after-free.
  hops::Status RestartNamenode(int i);
  // Replaces slot i with a fresh namenode that RESUMES the old instance's
  // nn_id (a process restart keeping its identity): the election counter
  // continues, and the start-up sweep replays the previous incarnation's
  // surviving intent partition. Kills the old instance first if needed.
  hops::Status RestartNamenodeSameId(int i);
  // One election round on every alive namenode.
  void TickHeartbeats(int rounds = 1);

  Client NewClient(NamenodePolicy policy, const std::string& name, uint64_t seed = 42);

  // Simulates the write pipeline for a located block: every target datanode
  // stores the block and acknowledges it to a namenode.
  hops::Status PipelineWrite(const LocatedBlock& block);

 private:
  MiniCluster(MiniClusterOptions options, std::unique_ptr<kv::Engine> db,
              MetadataSchema schema);
  void InstallDatanodePicker(Namenode& nn);

  MiniClusterOptions options_;
  std::unique_ptr<kv::Engine> db_;
  MetadataSchema schema_;
  // Guards namenodes_/retired_ against the chaos conductor restarting slots
  // while client threads pick namenodes. Held only for slot access; the
  // namenode calls themselves run outside it.
  mutable std::mutex nn_mu_;
  std::vector<std::unique_ptr<Namenode>> namenodes_;
  // Dead instances replaced by a restart. Kept until teardown so raw
  // Namenode* held by clients (sticky policies, in-flight calls) stay valid;
  // a retired namenode is Killed, so every call on it fails with kFailover.
  std::vector<std::unique_ptr<Namenode>> retired_;
  int num_namenode_slots_ = 0;
  std::vector<std::unique_ptr<Datanode>> datanodes_;
  std::atomic<uint64_t> dn_rr_{0};
};

}  // namespace hops::fs
