// Leader election and namenode membership using the database as shared
// memory (paper §3, and Niazi et al., "Leader Election using NewSQL
// Systems", DAIS 2015).
//
// Every namenode owns a row of the `leader` table and increments its counter
// on each heartbeat. A peer is alive if its counter advanced within the last
// `leader_missed_rounds` of the local namenode's own heartbeats -- i.e. an
// alive namenode is one that keeps writing to the database in bounded time.
// The leader is the alive namenode with the smallest id; ids are allocated
// from the variables table and change on restart.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "hopsfs/config.h"
#include "hopsfs/schema.h"
#include "kv/kv.h"

namespace hops::fs {

// Read-only view of which namenodes are alive (consumed by the lazy subtree
// lock cleanup, §6.2).
class MembershipView {
 public:
  virtual ~MembershipView() = default;
  virtual bool IsNamenodeAlive(NamenodeId id) const = 0;
};

class LeaderElection : public MembershipView {
 public:
  LeaderElection(kv::Engine* db, const MetadataSchema* schema, const FsConfig* config,
                 std::string location);

  // Allocates a fresh namenode id and joins the group. Must be called once.
  hops::Status Register();
  // Rejoins under an existing identity (a restart that kept its nn_id),
  // instead of Register. The counter CONTINUES from the old row: peers
  // detect liveness by counter advancement, so a counter restarting at zero
  // would read as missed heartbeats until it caught up past the previous
  // incarnation's value -- a false-death window inviting wrongful adoption
  // of the resumed namenode's intent partition.
  hops::Status Resume(NamenodeId id);
  // One election round: bump own counter, refresh the membership view,
  // and (when leader) garbage-collect rows of dead namenodes.
  hops::Status Heartbeat();
  // Graceful departure; removes the row.
  void Deregister();

  NamenodeId id() const { return id_; }
  bool IsLeader() const;
  std::vector<NamenodeId> AliveNamenodes() const;
  bool IsNamenodeAlive(NamenodeId id) const override;

  // Always 0: the cross-namenode hint log and its GC are gone (hints repair
  // lazily on a miss). Kept only because bench/hopsbench still reads them.
  uint64_t hint_gc_acked_reaps() const { return 0; }
  uint64_t hint_gc_ttl_reaps() const { return 0; }

 private:
  struct PeerState {
    int64_t counter = -1;
    int64_t last_advance_round = 0;
  };

  kv::Engine* const db_;
  const MetadataSchema* const schema_;
  const FsConfig* const config_;
  const std::string location_;
  NamenodeId id_ = 0;

  mutable std::mutex mu_;
  int64_t round_ = 0;
  std::map<NamenodeId, PeerState> peers_;
};

}  // namespace hops::fs
