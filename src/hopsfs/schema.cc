#include "hopsfs/schema.h"

#include "hopsfs/partition.h"

namespace hops::fs {

namespace {

using kv::ColumnType;
using kv::Schema;

Schema InodeSchema() {
  Schema s;
  s.table_name = "inodes";
  s.columns = {{"parent_id", ColumnType::kInt64}, {"name", ColumnType::kString},
               {"id", ColumnType::kInt64},        {"is_dir", ColumnType::kInt64},
               {"perm", ColumnType::kInt64},      {"owner", ColumnType::kString},
               {"grp", ColumnType::kString},      {"mtime", ColumnType::kInt64},
               {"atime", ColumnType::kInt64},     {"size", ColumnType::kInt64},
               {"replication", ColumnType::kInt64}, {"subtree_lock", ColumnType::kInt64},
               {"under_cons", ColumnType::kInt64},  {"has_quota", ColumnType::kInt64}};
  s.primary_key = {col::kInodeParent, col::kInodeName};
  // Partition values are computed by the namenodes (parent id, or hash(name)
  // for the top of the tree) -- see partition.h.
  s.requires_explicit_partition = true;
  return s;
}

Schema BlockSchema() {
  Schema s;
  s.table_name = "blocks";
  s.columns = {{"inode_id", ColumnType::kInt64}, {"block_id", ColumnType::kInt64},
               {"block_index", ColumnType::kInt64}, {"state", ColumnType::kInt64},
               {"gen_stamp", ColumnType::kInt64},   {"num_bytes", ColumnType::kInt64},
               {"replication", ColumnType::kInt64}};
  s.primary_key = {0, 1};
  s.partition_key = {0};
  return s;
}

Schema ReplicaShapedSchema(std::string name) {
  Schema s;
  s.table_name = std::move(name);
  s.columns = {{"inode_id", ColumnType::kInt64},
               {"block_id", ColumnType::kInt64},
               {"datanode_id", ColumnType::kInt64},
               {"state", ColumnType::kInt64}};
  s.primary_key = {0, 1, 2};
  s.partition_key = {0};
  return s;
}

Schema LeaseSchema() {
  Schema s;
  s.table_name = "leases";
  s.columns = {{"inode_id", ColumnType::kInt64},
               {"holder", ColumnType::kString},
               {"last_renewed", ColumnType::kInt64}};
  s.primary_key = {0};
  s.partition_key = {0};
  return s;
}

Schema QuotaSchema() {
  Schema s;
  s.table_name = "quotas";
  s.columns = {{"inode_id", ColumnType::kInt64}, {"ns_quota", ColumnType::kInt64},
               {"ss_quota", ColumnType::kInt64}, {"ns_used", ColumnType::kInt64},
               {"ss_used", ColumnType::kInt64}};
  s.primary_key = {0};
  s.partition_key = {0};
  return s;
}

Schema BlockLookupSchema() {
  Schema s;
  s.table_name = "block_lookup";
  s.columns = {{"block_id", ColumnType::kInt64}, {"inode_id", ColumnType::kInt64}};
  s.primary_key = {0};
  s.partition_key = {0};
  return s;
}

Schema SubtreeOpsSchema() {
  Schema s;
  s.table_name = "active_subtree_ops";
  s.columns = {{"inode_id", ColumnType::kInt64},
               {"nn_id", ColumnType::kInt64},
               {"op", ColumnType::kInt64},
               {"path", ColumnType::kString}};
  s.primary_key = {0};
  s.partition_key = {0};
  return s;
}

Schema LeaderSchema() {
  Schema s;
  s.table_name = "leader";
  s.columns = {{"nn_id", ColumnType::kInt64},
               {"counter", ColumnType::kInt64},
               {"location", ColumnType::kString}};
  s.primary_key = {0};
  s.partition_key = {0};
  return s;
}

Schema VariablesSchema() {
  Schema s;
  s.table_name = "variables";
  s.columns = {{"var_id", ColumnType::kInt64}, {"value", ColumnType::kInt64}};
  s.primary_key = {0};
  s.partition_key = {0};
  return s;
}

Schema OpIntentSchema() {
  // Asynchronous metadata commit intent log (one row per acknowledged
  // mutation), sharded per acknowledging namenode: PK (nn_id, seq)
  // partitioned by nn_id, seq allocated under the owner's intent_heads row
  // so per-namenode seq order == acknowledgment order. A row is deleted once
  // its apply transaction commits; replay is therefore at-least-once and
  // every intent op is idempotent (a re-applied create maps AlreadyExists to
  // applied).
  Schema s;
  s.table_name = "op_intents";
  s.columns = {{"nn_id", ColumnType::kInt64}, {"seq", ColumnType::kInt64},
               {"op", ColumnType::kInt64},    {"path", ColumnType::kString},
               {"client", ColumnType::kString}, {"user", ColumnType::kString},
               {"superuser", ColumnType::kInt64}, {"perm", ColumnType::kInt64},
               {"owner", ColumnType::kString},  {"grp", ColumnType::kString},
               {"mtime", ColumnType::kInt64}};
  s.primary_key = {0, 1};
  s.partition_key = {0};
  return s;
}

Schema IntentHeadSchema() {
  // A namenode's next intent sequence number; only the owner X-locks it
  // (held to commit alongside the intent inserts).
  Schema s;
  s.table_name = "intent_heads";
  s.columns = {{"nn_id", ColumnType::kInt64}, {"next_seq", ColumnType::kInt64}};
  s.primary_key = {0};
  s.partition_key = {0};
  return s;
}

}  // namespace

hops::Result<MetadataSchema> MetadataSchema::Format(kv::Engine& cluster) {
  MetadataSchema m;
  HOPS_ASSIGN_OR_RETURN(inodes, cluster.CreateTable(InodeSchema()));
  m.inodes = inodes;
  HOPS_ASSIGN_OR_RETURN(blocks, cluster.CreateTable(BlockSchema()));
  m.blocks = blocks;
  HOPS_ASSIGN_OR_RETURN(replicas, cluster.CreateTable(ReplicaShapedSchema("replicas")));
  m.replicas = replicas;
  HOPS_ASSIGN_OR_RETURN(urb, cluster.CreateTable(ReplicaShapedSchema("under_replicated")));
  m.urb = urb;
  HOPS_ASSIGN_OR_RETURN(prb, cluster.CreateTable(ReplicaShapedSchema("pending_replication")));
  m.prb = prb;
  HOPS_ASSIGN_OR_RETURN(cr, cluster.CreateTable(ReplicaShapedSchema("corrupt_replicas")));
  m.cr = cr;
  HOPS_ASSIGN_OR_RETURN(ruc, cluster.CreateTable(ReplicaShapedSchema("replica_under_cons")));
  m.ruc = ruc;
  HOPS_ASSIGN_OR_RETURN(er, cluster.CreateTable(ReplicaShapedSchema("excess_replicas")));
  m.er = er;
  HOPS_ASSIGN_OR_RETURN(inv, cluster.CreateTable(ReplicaShapedSchema("invalidated")));
  m.inv = inv;
  HOPS_ASSIGN_OR_RETURN(leases, cluster.CreateTable(LeaseSchema()));
  m.leases = leases;
  HOPS_ASSIGN_OR_RETURN(quotas, cluster.CreateTable(QuotaSchema()));
  m.quotas = quotas;
  HOPS_ASSIGN_OR_RETURN(block_lookup, cluster.CreateTable(BlockLookupSchema()));
  m.block_lookup = block_lookup;
  HOPS_ASSIGN_OR_RETURN(subtree_ops, cluster.CreateTable(SubtreeOpsSchema()));
  m.active_subtree_ops = subtree_ops;
  HOPS_ASSIGN_OR_RETURN(leader, cluster.CreateTable(LeaderSchema()));
  m.leader = leader;
  HOPS_ASSIGN_OR_RETURN(variables, cluster.CreateTable(VariablesSchema()));
  m.variables = variables;
  HOPS_ASSIGN_OR_RETURN(op_intents, cluster.CreateTable(OpIntentSchema()));
  m.op_intents = op_intents;
  HOPS_ASSIGN_OR_RETURN(intent_heads, cluster.CreateTable(IntentHeadSchema()));
  m.intent_heads = intent_heads;

  // Root inode (immutable, id 1) and id counters.
  auto tx = cluster.Begin();
  Inode root;
  root.parent_id = kInvalidInode;
  root.name = "";
  root.id = kRootInode;
  root.is_dir = true;
  root.owner = "hdfs";
  root.group = "hdfs";
  HOPS_RETURN_IF_ERROR(tx->Insert(m.inodes, ToRow(root), RootPartitionValue()));
  HOPS_RETURN_IF_ERROR(
      tx->Insert(m.variables, kv::Row{kVarNextInodeId, kRootInode + 1}));
  HOPS_RETURN_IF_ERROR(tx->Insert(m.variables, kv::Row{kVarNextBlockId, int64_t{1}}));
  HOPS_RETURN_IF_ERROR(tx->Insert(m.variables, kv::Row{kVarNextNamenodeId, int64_t{1}}));
  HOPS_RETURN_IF_ERROR(tx->Commit());
  return m;
}

kv::Row ToRow(const Inode& n) {
  return kv::Row{n.parent_id,    n.name,   n.id,    int64_t{n.is_dir ? 1 : 0},
                  n.perm,         n.owner,  n.group, n.mtime,
                  n.atime,        n.size,   n.replication,
                  n.subtree_lock_owner, int64_t{n.under_construction ? 1 : 0},
                  int64_t{n.has_quota ? 1 : 0}};
}

Inode InodeFromRow(const kv::Row& r) {
  Inode n;
  n.parent_id = r[col::kInodeParent].i64();
  n.name = r[col::kInodeName].str();
  n.id = r[col::kInodeId].i64();
  n.is_dir = r[col::kInodeIsDir].i64() != 0;
  n.perm = r[col::kInodePerm].i64();
  n.owner = r[col::kInodeOwner].str();
  n.group = r[col::kInodeGroup].str();
  n.mtime = r[col::kInodeMtime].i64();
  n.atime = r[col::kInodeAtime].i64();
  n.size = r[col::kInodeSize].i64();
  n.replication = r[col::kInodeReplication].i64();
  n.subtree_lock_owner = r[col::kInodeSubtreeLock].i64();
  n.under_construction = r[col::kInodeUnderCons].i64() != 0;
  n.has_quota = r[col::kInodeHasQuota].i64() != 0;
  return n;
}

kv::Row ToRow(const Block& b) {
  return kv::Row{b.inode_id, b.block_id,  b.block_index,
                  static_cast<int64_t>(b.state), b.gen_stamp, b.num_bytes, b.replication};
}

Block BlockFromRow(const kv::Row& r) {
  Block b;
  b.inode_id = r[col::kBlockInode].i64();
  b.block_id = r[col::kBlockId].i64();
  b.block_index = r[col::kBlockIndex].i64();
  b.state = static_cast<BlockState>(r[col::kBlockState].i64());
  b.gen_stamp = r[col::kBlockGenStamp].i64();
  b.num_bytes = r[col::kBlockBytes].i64();
  b.replication = r[col::kBlockRepl].i64();
  return b;
}

kv::Row ToRow(const Replica& rep) {
  return kv::Row{rep.inode_id, rep.block_id, rep.datanode_id,
                  static_cast<int64_t>(rep.state)};
}

Replica ReplicaFromRow(const kv::Row& r) {
  Replica rep;
  rep.inode_id = r[col::kReplicaInode].i64();
  rep.block_id = r[col::kReplicaBlock].i64();
  rep.datanode_id = r[col::kReplicaDatanode].i64();
  rep.state = static_cast<ReplicaState>(r[col::kReplicaState].i64());
  return rep;
}

kv::Row ToRow(const Lease& l) { return kv::Row{l.inode_id, l.holder, l.last_renewed}; }

Lease LeaseFromRow(const kv::Row& r) {
  Lease l;
  l.inode_id = r[col::kLeaseInode].i64();
  l.holder = r[col::kLeaseHolder].str();
  l.last_renewed = r[col::kLeaseRenewed].i64();
  return l;
}

kv::Row ToRow(const DirectoryQuota& q) {
  return kv::Row{q.inode_id, q.ns_quota, q.ss_quota, q.ns_used, q.ss_used};
}

DirectoryQuota QuotaFromRow(const kv::Row& r) {
  DirectoryQuota q;
  q.inode_id = r[col::kQuotaInode].i64();
  q.ns_quota = r[col::kQuotaNs].i64();
  q.ss_quota = r[col::kQuotaSs].i64();
  q.ns_used = r[col::kQuotaNsUsed].i64();
  q.ss_used = r[col::kQuotaSsUsed].i64();
  return q;
}

}  // namespace hops::fs
