// The normalized HopsFS metadata schema on NDB (paper §4.1) and the
// row <-> entity codecs.
//
// Tables and their partitioning:
//   inodes             PK (parent_id, name)      explicit partition value
//                      (parent id, or hash(name) near the root -- partition.h)
//   blocks             PK (inode_id, block_id)            partition inode_id
//   replicas           PK (inode_id, block_id, datanode)  partition inode_id
//   urb/prb/cr/ruc/er/inv  block life-cycle tables        partition inode_id
//   leases             PK (inode_id)                      partition inode_id
//   quotas             PK (inode_id)                      partition inode_id
//   block_lookup       PK (block_id)  -> inode_id (block reports)
//   active_subtree_ops PK (inode_id)  (paper §6.1 phase 1)
//   leader             PK (namenode_id) (election & membership, §3)
//   variables          PK (var_id)    (id allocation counters)
//   op_intents         PK (nn_id, seq)   partition nn_id
//                      (asynchronous metadata commit intent log, sharded per
//                      acknowledging namenode: one row per acknowledged
//                      mutation, deleted once the apply transaction commits;
//                      rows left by a dead namenode are adopted by the
//                      leader in seq order)
//   intent_heads       PK (nn_id)        partition nn_id
//                      (a namenode's next intent seq; only its owner ever
//                      X-locks it)
#pragma once

#include "hopsfs/types.h"
#include "kv/kv.h"

namespace hops::fs {

// Column indices, kept adjacent to the schema definitions in schema.cc.
namespace col {
// inodes
inline constexpr size_t kInodeParent = 0, kInodeName = 1, kInodeId = 2, kInodeIsDir = 3,
    kInodePerm = 4, kInodeOwner = 5, kInodeGroup = 6, kInodeMtime = 7, kInodeAtime = 8,
    kInodeSize = 9, kInodeReplication = 10, kInodeSubtreeLock = 11, kInodeUnderCons = 12,
    kInodeHasQuota = 13;
// blocks
inline constexpr size_t kBlockInode = 0, kBlockId = 1, kBlockIndex = 2, kBlockState = 3,
    kBlockGenStamp = 4, kBlockBytes = 5, kBlockRepl = 6;
// replicas and the life-cycle tables share the (inode, block, datanode) shape
inline constexpr size_t kReplicaInode = 0, kReplicaBlock = 1, kReplicaDatanode = 2,
    kReplicaState = 3;
// leases
inline constexpr size_t kLeaseInode = 0, kLeaseHolder = 1, kLeaseRenewed = 2;
// quotas
inline constexpr size_t kQuotaInode = 0, kQuotaNs = 1, kQuotaSs = 2, kQuotaNsUsed = 3,
    kQuotaSsUsed = 4;
// block_lookup
inline constexpr size_t kLookupBlock = 0, kLookupInode = 1;
// active_subtree_ops
inline constexpr size_t kSubtreeInode = 0, kSubtreeNn = 1, kSubtreeOp = 2, kSubtreePath = 3;
// leader
inline constexpr size_t kLeaderNn = 0, kLeaderCounter = 1, kLeaderLocation = 2;
// variables
inline constexpr size_t kVarId = 0, kVarValue = 1;
// op_intents
inline constexpr size_t kIntentNn = 0, kIntentSeq = 1, kIntentOp = 2, kIntentPath = 3,
    kIntentClient = 4, kIntentUser = 5, kIntentSuper = 6, kIntentPerm = 7, kIntentOwner = 8,
    kIntentGroup = 9, kIntentMtime = 10;
// intent_heads
inline constexpr size_t kIntentHeadNn = 0, kIntentHeadNext = 1;
}  // namespace col

// Well-known rows of the variables table.
inline constexpr int64_t kVarNextInodeId = 0;
inline constexpr int64_t kVarNextBlockId = 1;
inline constexpr int64_t kVarNextNamenodeId = 2;

// Creates every table and owns their ids.
struct MetadataSchema {
  kv::TableId inodes{}, blocks{}, replicas{}, urb{}, prb{}, cr{}, ruc{}, er{}, inv{},
      leases{}, quotas{}, block_lookup{}, active_subtree_ops{}, leader{}, variables{},
      op_intents{}, intent_heads{};

  // Creates all tables in `cluster` plus the root inode and id counters.
  static hops::Result<MetadataSchema> Format(kv::Engine& cluster);

  // Life-cycle tables in the fixed read order of the lock phase (Figure 4,
  // line 6): URB, PRB, RUC, CR, ER, Inv.
  std::vector<kv::TableId> LifecycleTables() const { return {urb, prb, ruc, cr, er, inv}; }
};

// --- Codecs -----------------------------------------------------------------
kv::Row ToRow(const Inode& inode);
Inode InodeFromRow(const kv::Row& row);
kv::Row ToRow(const Block& block);
Block BlockFromRow(const kv::Row& row);
kv::Row ToRow(const Replica& replica);
Replica ReplicaFromRow(const kv::Row& row);
kv::Row ToRow(const Lease& lease);
Lease LeaseFromRow(const kv::Row& row);
kv::Row ToRow(const DirectoryQuota& quota);
DirectoryQuota QuotaFromRow(const kv::Row& row);

}  // namespace hops::fs
