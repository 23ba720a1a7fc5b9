// A stateless HopsFS namenode (paper §3, §5, §6).
//
// Namenodes keep no authoritative state: every file system operation is a
// distributed transaction against the NDB-stored metadata, built from the
// three-phase template of Figure 4 (lock / execute / update). Per-namenode
// soft state is limited to the inode hint cache, chunked id allocators, and
// the leader-election membership view. Any number of Namenode instances can
// serve the same metadata concurrently; clients spread operations across
// them and retry on failure.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "hopsfs/config.h"
#include "hopsfs/handler_pool.h"
#include "hopsfs/inode_cache.h"
#include "hopsfs/intent_log.h"
#include "hopsfs/leader.h"
#include "hopsfs/path.h"
#include "hopsfs/schema.h"
#include "hopsfs/types.h"
#include "kv/kv.h"

namespace hops::fs {

// Chunked allocator over a variables-table counter; namenodes grab id ranges
// in bulk so the counter row never becomes a write hotspot.
class IdAllocator {
 public:
  IdAllocator(kv::Engine* db, const MetadataSchema* schema, const FsConfig* config,
              int64_t var_id)
      : db_(db), schema_(schema), config_(config), var_id_(var_id) {}

  hops::Result<int64_t> Next();

 private:
  kv::Engine* const db_;
  const MetadataSchema* const schema_;
  const FsConfig* const config_;
  const int64_t var_id_;
  std::mutex mu_;
  int64_t next_ = 0;
  int64_t limit_ = 0;
};

// Caller identity for permission enforcement.
struct UserContext {
  std::string user = "hdfs";
  bool superuser = true;
};

// Result of processing one datanode block report (§7.7).
struct BlockReportResult {
  int64_t blocks_matched = 0;
  int64_t replicas_added = 0;    // on-datanode blocks missing from metadata
  int64_t orphans_invalidated = 0;  // blocks unknown to the namespace
  int64_t replicas_removed = 0;  // metadata said present, report disagreed
};

class Namenode {
 public:
  // Fault-injection hook: invoked at named protocol points; returning true
  // simulates the namenode process dying at that point (the operation stops
  // without any cleanup, exactly like a crash).
  using DieAt = std::function<bool(std::string_view point)>;

  Namenode(kv::Engine* db, const MetadataSchema* schema, const FsConfig* config,
           std::string location = "nn");
  ~Namenode();

  // Joins the cluster: allocates the namenode id via leader election. With
  // `resume_id`, rejoins under that existing identity instead (a process
  // restart that kept its nn_id): the election counter continues from the
  // old row, and the start-up sweep replays this namenode's OWN surviving
  // intent partition -- its previous incarnation's acknowledged-but-
  // unapplied ops -- before serving.
  hops::Status Start(std::optional<NamenodeId> resume_id = std::nullopt);
  // One leader-election round; drives failure detection and, on the leader,
  // adoption of dead namenodes' orphaned intents.
  hops::Status Heartbeat();

  NamenodeId id() const { return election_.id(); }
  bool alive() const { return alive_; }
  bool IsLeader() const { return election_.IsLeader(); }
  // Simulates a crash: subsequent calls fail with kFailover, heartbeats stop,
  // and any subtree locks this namenode held are left behind for lazy
  // cleanup by the surviving namenodes. Acknowledged-but-unapplied intents
  // stay durable in op_intents for adoption by the surviving namenodes.
  void Kill() {
    alive_ = false;
    if (intents_) intents_->Abandon();
  }

  LeaderElection& election() { return election_; }
  InodeHintCache& hint_cache() { return hint_cache_; }
  // Always 0 / no-op: hints repair lazily on a miss and no cross-namenode
  // invalidation log exists. Kept only because bench/hopsbench still reads
  // them.
  uint64_t proactive_invalidations_applied() const { return 0; }
  uint64_t hint_publish_events() const { return 0; }
  uint64_t hint_publish_ops_coalesced() const { return 0; }
  void FlushHintInvalidations() {}

  // --- Asynchronous metadata commits (FsConfig::async_metadata_commit) ------
  // Blocks until every acknowledged intent of this namenode has been applied
  // (no-op when async commits are off or after Kill).
  void FlushIntents();
  // Test hook: a paused applier lets acknowledged-but-unapplied intents
  // accumulate durably in the log (the crash-replay tests' setup).
  void SetIntentApplierPausedForTesting(bool paused);
  // Test hook: parks submissions in the append queue so releasing the hold
  // coalesces them deterministically into one group-commit transaction.
  void SetIntentAppendHoldForTesting(bool hold);
  // Submissions currently parked in the append queue (0 when async is off).
  size_t IntentQueuedAppendsForTesting() const;
  // Test hook: simulated process death at a named intent-log boundary (see
  // IntentLog::SetCrashHookForTesting for the point names). The hook usually
  // pairs with Kill() inside the callback so the whole namenode dies there.
  void SetIntentCrashHookForTesting(IntentLog::CrashHook hook);
  // Test hook: a paused cleaner leaves applied intents' rows in op_intents
  // (the paused-cleaner fault class).
  void SetIntentCleanerPausedForTesting(bool paused);
  // Exposes the adoption sweep so tests can race two would-be leaders over a
  // dead namenode's partition (production calls it from Start/Heartbeat).
  void AdoptOrphanedIntentsForTesting() { AdoptOrphanedIntents(); }
  // Counters of the intent log's two stages (zeros when async is off).
  IntentLogStats intent_stats() const;
  // Intents this namenode replayed from dead namenodes' log partitions.
  uint64_t intents_adopted() const {
    return intents_adopted_.load(std::memory_order_relaxed);
  }
  const FsConfig& config() const { return *config_; }
  // The request handler pool (null when FsConfig::num_handlers == 0 and
  // operations run ungated on the calling thread).
  HandlerPool* handler_pool() { return handlers_.get(); }

  // Datanode pool used to place new block replicas.
  void SetDatanodePicker(std::function<std::vector<DatanodeId>(int)> picker);
  void set_die_at(DieAt hook) { die_at_ = std::move(hook); }

  // When set, every committed transaction's database-access trace is
  // delivered to the sink (used by the benchmark calibration pipeline).
  // Forwarded to the intent log so an async op's traces cover both the
  // acknowledged append trip and the background apply drain.
  using TraceSink = std::function<void(const kv::CostTrace&)>;
  void SetTraceSink(TraceSink sink);

  // --- Client API (HDFS-compatible set; Table 1's operations) --------------
  hops::Status Mkdirs(const std::string& path, const UserContext& user = {});
  hops::Status Create(const std::string& path, const std::string& client_name,
                      const UserContext& user = {});
  hops::Result<LocatedBlock> AddBlock(const std::string& path,
                                      const std::string& client_name, int64_t num_bytes,
                                      const UserContext& user = {});
  hops::Status CompleteFile(const std::string& path, const std::string& client_name,
                            const UserContext& user = {});
  hops::Status Append(const std::string& path, const std::string& client_name,
                      const UserContext& user = {});
  hops::Result<std::vector<LocatedBlock>> GetBlockLocations(const std::string& path,
                                                            const UserContext& user = {});
  hops::Result<FileStatus> GetFileInfo(const std::string& path,
                                       const UserContext& user = {});
  hops::Result<std::vector<FileStatus>> ListStatus(const std::string& path,
                                                   const UserContext& user = {});
  hops::Status SetPermission(const std::string& path, int64_t perm,
                             const UserContext& user = {});
  hops::Status SetOwner(const std::string& path, const std::string& owner,
                        const std::string& group, const UserContext& user = {});
  hops::Status SetReplication(const std::string& path, int64_t replication,
                              const UserContext& user = {});
  hops::Result<ContentSummary> GetContentSummary(const std::string& path,
                                                 const UserContext& user = {});
  hops::Status Rename(const std::string& src, const std::string& dst,
                      const UserContext& user = {});
  hops::Status Delete(const std::string& path, bool recursive,
                      const UserContext& user = {});
  // ns_quota / ss_quota of -1 = unlimited; both -1 clears the quota.
  hops::Status SetQuota(const std::string& path, int64_t ns_quota, int64_t ss_quota,
                        const UserContext& user = {});

  // --- Datanode protocol -----------------------------------------------------
  // A datanode finished writing a replica of `block_id`.
  hops::Status BlockReceived(DatanodeId dn, BlockId block_id);
  hops::Result<BlockReportResult> ProcessBlockReport(DatanodeId dn,
                                                     const std::vector<BlockId>& report);
  // Leader housekeeping: drop the failed datanode's replicas, queueing
  // under-replicated blocks.
  hops::Result<int64_t> HandleDatanodeFailure(DatanodeId dn);
  // Leader housekeeping: schedule re-replication for under-replicated blocks
  // (URB -> PRB + RUC on a fresh datanode). Returns blocks scheduled.
  hops::Result<int64_t> RunReplicationMonitor();
  // Drains the invalidation queue for a datanode (blocks it must delete).
  hops::Result<std::vector<BlockId>> FetchInvalidations(DatanodeId dn);

 private:
  friend class SubtreeOperation;

  // One resolved + locked path, the output of the Figure-4 lock phase.
  struct Resolved {
    std::vector<std::string> components;
    // chain[0] is the root inode; chain[i] is components[i-1]'s inode.
    // Contains entries only for components that exist.
    std::vector<Inode> chain;
    // Partition value each chain inode's row was found at (mutations must
    // reuse it).
    std::vector<uint64_t> chain_pvs;
    bool target_exists = false;
    // True when the target was read+locked inside the cached-path batch --
    // i.e. the lock was already held when that flush window's other
    // (pipelined) members ran. Speculative riders are only trustworthy then.
    bool target_locked_in_batch = false;
    Inode& target() { return chain.back(); }
    uint64_t target_pv() const { return chain_pvs.back(); }
    Inode& parent_of_target() { return chain[chain.size() - (target_exists ? 2 : 1)]; }
    uint64_t parent_pv() const { return chain_pvs[chain_pvs.size() - (target_exists ? 2 : 1)]; }
    int target_depth() const { return static_cast<int>(components.size()); }
  };

  struct LockSpec {
    kv::LockMode target_mode = kv::LockMode::kShared;
    bool lock_parent = false;               // X-lock the parent (mutations)
    bool target_must_exist = true;
  };

  // Runs `body` inside a transaction, re-running it after lock timeouts,
  // aborts, OCC conflicts and subtree-lock waits until FsConfig::op_timeout
  // has passed since the first failure (RetryUntilTimeout's backoff). With a
  // handler pool configured, each attempt runs on the calling thread while
  // holding one of the namenode's handler slots (waiting for one if all are
  // busy); backoff sleeps hold no slot, and nested calls run inline on the
  // slot their caller already holds.
  hops::Status RunTx(std::optional<kv::TxHint> hint,
                     const std::function<hops::Status(kv::Txn&)>& body);
  // One attempt: begin, body, commit-or-abort; no retry classification. An
  // attempt on an intent-applier thread marks its cost-trace accesses as
  // background work.
  hops::Status RunTxAttempt(std::optional<kv::TxHint> hint,
                            const std::function<hops::Status(kv::Txn&)>& body,
                            bool want_trace);

  // Figure 4 lines 1-6: resolve the path (hint cache + batched read, with
  // recursive fallback), then lock the last component(s) in total order.
  hops::Result<Resolved> ResolveAndLock(kv::Txn& tx,
                                        const std::vector<std::string>& components,
                                        const LockSpec& spec);
  // Recursive (uncached) resolution of components [from..to); read-committed.
  // Repairs the hint cache as it goes.
  hops::Status ResolveSuffix(kv::Txn& tx, const std::vector<std::string>& components,
                             size_t from, std::vector<Inode>& chain);
  // Erases the path's own hint entry, found through its cached parent chain.
  // An entry the chain cannot reach is repaired on its next miss.
  void EraseHint(const std::vector<std::string>& components);
  // Reads one inode by (parent, name) at `depth`, trying the alternate
  // partition rule if the primary one misses (post-move top-level rows).
  struct ReadInodeOut {
    Inode inode;
    uint64_t pv;  // partition value the row was found at
  };
  hops::Result<ReadInodeOut> ReadInode(kv::Txn& tx, InodeId parent,
                                       const std::string& name, int depth,
                                       kv::LockMode mode);
  // Batched rename lock phase (ROADMAP item 3): reads + X-locks every lock
  // item -- probing both partition rules per item -- through ONE
  // staged-order ReadBatch, so the whole phase costs one round trip while
  // the row-lock waits still happen in the caller's left-ordered path total
  // order (the order every per-row locker shares). `items` must already be
  // sorted in that order. Result slot i is nullopt when item i's row does
  // not exist (its key slots stay locked, guarding the insert slot).
  struct LockItem {
    InodeId parent;
    std::string name;
    int depth;
  };
  hops::Result<std::vector<std::optional<ReadInodeOut>>> ReadLockItemsBatched(
      kv::Txn& tx, const std::vector<LockItem>& items);
  // Checks an inode's subtree lock: kSubtreeLocked while an alive namenode
  // owns it; lazily clears locks owned by dead namenodes (§6.2).
  hops::Status CheckSubtreeLock(kv::Txn& tx, Inode& inode, uint64_t pv);

  // Speculative hint-based fan-out (§5.1 hint reuse): when the hint cache
  // already names a path's target inode, read-committed pruned scans of
  // that inode's shard are put in flight BEFORE resolution, so they share
  // one overlapped window with the resolve+lock batch -- a warm operation
  // costs one round-trip window instead of two. A stale hint wastes only
  // the rider: the scans of the wrong shard lock nothing, and the caller
  // re-reads under the confirmed id.
  struct SpeculativeRider {
    // Heap-held: the engine keeps a pointer to the staged batch until its
    // window flushes, so the batch address must survive the rider moving.
    std::unique_ptr<kv::ReadBatch> batch;
    kv::Pending pending;
    InodeId hinted = kInvalidInode;
    bool flushed_early = false;
    // The rider's rows may be served only when resolution confirmed the
    // hinted inode AND took the target's lock inside the cached-path batch,
    // i.e. in the same flush window the scans ran in (locks precede data
    // work in a window). If resolution fell back -- alternate partition
    // rule, stale or evicted hint chain -- the scans ran before the real
    // lock and a concurrent mutation may sit between them; and an engine
    // auto-flush at prepare time (in-flight window of one) also executed
    // before the lock.
    bool Serveable(InodeId resolved_id, bool target_locked_in_batch) const {
      return pending.valid() && !flushed_early && hinted == resolved_id &&
             target_locked_in_batch;
    }
    // Waits out an unserveable rider; if its failure aborted the
    // transaction the caller's own reads report that on their own.
    void Discard() {
      if (pending.valid()) (void)pending.Wait();
    }
  };
  // --- Metadata ops: validate -> plan -> apply -------------------------------
  // Create, mkdirs and file setattr each have one validation, one plan (an
  // IntentRecord) and one apply body. With async commits off the public op
  // runs its apply body inline, whose locked checks are the validation.
  // With them on, the op validates against acknowledged state, appends the
  // plan to the intent log and acknowledges once it is durable; the applier
  // later runs the same apply body (ApplyIntent).
  bool UseAsyncCommit() const { return intents_ != nullptr; }
  // Read-your-writes barrier: blocks while an acknowledged-but-unapplied
  // intent covers `path` (equals it, is an ancestor, or lies below it);
  // kUnavailable, naming the covering wait, if it is still covered
  // FsConfig::op_timeout after the wait began.
  hops::Status WaitForPendingIntents(const std::string& path) const {
    return intents_ ? intents_->WaitCovering(path) : hops::Status::Ok();
  }
  // Validates a create (`is_dir` false) or mkdirs of `components` against
  // acknowledged state -- committed rows merged with the pending-intent
  // index -- with the statuses and access checks the apply would return.
  // Returns how many leading levels exist, committed or pending (n - 1 for
  // a valid create). With nothing pending on the path this is one
  // hint-batched read-committed resolution; otherwise a per-level walk that
  // restarts when an apply lands mid-walk.
  hops::Result<size_t> ValidateAcknowledged(const std::vector<std::string>& components,
                                            const UserContext& user, bool is_dir);
  // Apply body of create and of one mkdir level: one Figure-4 transaction
  // inserting the inode (plus a file's lease) under an X-locked parent.
  // An existing directory is Ok for a mkdir; a create reports IsDirectory
  // or AlreadyExists.
  hops::Status InsertInodeTx(const std::vector<std::string>& components, bool is_dir,
                             const std::string& client_name, const UserContext& user);
  // Apply body of mkdirs: InsertInodeTx level by level, top-down.
  hops::Status ApplyMkdirs(const std::vector<std::string>& components,
                           const UserContext& user);
  // chmod (`perm`) / chown (`owner` = owner, group) of one path: validates,
  // routes a directory to SubtreeSetAttr, and applies or appends a file's.
  hops::Status SetAttr(const std::vector<std::string>& components,
                       std::optional<int64_t> perm,
                       std::optional<std::pair<std::string, std::string>> owner,
                       const UserContext& user);
  // Apply body of a file setattr: one transaction on the X-locked inode.
  hops::Status SetAttrFileTx(const std::vector<std::string>& components,
                             std::optional<int64_t> perm,
                             std::optional<std::pair<std::string, std::string>> owner,
                             const UserContext& user);
  // Applier callback: runs one intent's apply body under an ApplierScope.
  // At-least-once replay is idempotent (a re-applied create maps
  // AlreadyExists to applied).
  hops::Status ApplyIntent(const IntentRecord& rec);
  // Replays dead namenodes' durable intents in (publisher, seq) order and
  // deletes the consumed rows (head rows are left so a falsely-declared-dead
  // publisher never reuses sequence numbers). Runs at Start (restart
  // recovery) and on the leader's heartbeat (failover adoption).
  // `include_self` replays this namenode's own partition too -- the
  // resumed-identity start path, before any client can reach us.
  void AdoptOrphanedIntents(bool include_self = false);
  // True when a peer namenode's op_intents log holds a mkdirs intent that
  // may create `dir` (its path is an ancestor-or-self of `dir`, or lies
  // below it). The row may already be applied and awaiting cleanup, so this
  // only says whether a NotFound under `dir` is worth re-validating.
  bool PeerMkdirsPending(const std::string& dir);

  // Stages one pruned scan per entry of `tables` (slot i = tables[i]) keyed
  // by the hint-cache candidate for `components` and puts them in flight.
  // Returns an inactive rider (pending invalid) when the path is depth 1
  // (resolved through a per-row read that flushes the window BEFORE the
  // target lock, so the scans would run unlocked), the chain is not fully
  // cached, or the hinted shard's node group is down (a routing failure
  // fails every member of a flush, so it must not ride a shared window).
  SpeculativeRider StageSpeculativeFanout(kv::Txn& tx,
                                          const std::vector<std::string>& components,
                                          std::initializer_list<kv::TableId> tables);
  // AddBlock's pre-resolution rider: the lease X-lock (slot 0, a Get) and
  // the blocks scan (slot 1) ride the resolution window. Unlike the
  // read-only riders this one takes a lock keyed by the hint, so a stale
  // hint's discard must also UnlockRow the hinted lease.
  SpeculativeRider StageAddBlockFanout(kv::Txn& tx,
                                       const std::vector<std::string>& components);

  uint64_t InodePv(int depth, InodeId parent, std::string_view name) const;
  // Both candidate partition rules for an inode row at `depth`: the current
  // rule plus the insert-time alternate (rows that crossed the
  // random-partition boundary in a move keep their old partition). `dual`
  // is false when both rules route to the same partition, so one probe
  // suffices. Every primary/alternate probe derives from here.
  struct InodePvPair {
    uint64_t primary = 0;
    uint64_t alternate = 0;
    bool dual = false;
  };
  InodePvPair InodePvCandidates(int depth, InodeId parent, std::string_view name) const;
  // Children listing that respects the partition scheme: partition-pruned
  // scan below the random-partition depth, index scan at/above it.
  hops::Result<std::vector<kv::Row>> ScanChildren(kv::Txn& tx, const Inode& dir,
                                                   int dir_depth, const kv::ScanOptions& opts);

  hops::Status CheckAccess(const Inode& inode, const UserContext& user, int want) const;
  hops::Status CheckPathTraversal(const Resolved& r, const UserContext& user) const;

  // Quota bookkeeping along the resolved ancestor chain (X-locks quota rows
  // in root->leaf order; call within the operation's transaction).
  hops::Status UpdateQuotaUsage(kv::Txn& tx, const std::vector<Inode>& ancestors,
                                int64_t ns_delta, int64_t ss_delta, bool enforce);

  // Deletes a file inode's satellite rows (blocks, replicas, life-cycle
  // rows, lease, lookup) and stages datanode-side invalidation.
  hops::Status DeleteFileArtifacts(kv::Txn& tx, const Inode& file);
  // The two halves of that fan-out, exposed so DeleteBatchPipelined can put
  // many files' reads in flight together: StageFileArtifactReads stages the
  // satellite scans into `batch`; StageFileArtifactRemovals turns the
  // results into staged deletes + datanode invalidations.
  struct FileArtifactSlots {
    size_t block_slot = 0;
    size_t replica_slot = 0;
    // (life-cycle table, its scan slot): carrying the TableId keeps the
    // read and removal halves in lockstep by construction.
    std::vector<std::pair<kv::TableId, size_t>> lifecycle_slots;
  };
  FileArtifactSlots StageFileArtifactReads(kv::ReadBatch& batch, InodeId file_id);
  void StageFileArtifactRemovals(const kv::ReadBatch& batch, const FileArtifactSlots& slots,
                                 InodeId file_id, kv::WriteBatch& writes);

  // Subtree operations (§6); defined in subtree.cc.
  enum class SubtreeOp : int64_t { kDelete = 1, kMove = 2, kSetAttr = 3, kSetQuota = 4 };
  struct SubtreeNode {
    InodeId id;
    InodeId parent_id;
    std::string name;
    bool is_dir;
    int64_t size;
    int64_t replication;
    bool has_quota;
    int depth;  // absolute path depth
  };
  struct SubtreeSnapshot {
    Inode root;
    std::vector<std::string> root_components;
    std::vector<Inode> ancestors;  // resolved chain above the subtree root
    // Level order: levels[0] = {root}, levels[i+1] = children of levels[i].
    std::vector<std::vector<SubtreeNode>> levels;
    int64_t inode_count = 0;
    int64_t byte_count = 0;  // sum of file size * replication
  };
  hops::Status SubtreeDelete(const std::vector<std::string>& components,
                             const UserContext& user);
  hops::Status SubtreeRename(const std::vector<std::string>& src,
                             const std::vector<std::string>& dst, const UserContext& user);
  hops::Status SubtreeSetAttr(const std::vector<std::string>& components,
                              std::optional<int64_t> perm,
                              std::optional<std::pair<std::string, std::string>> owner,
                              const UserContext& user);
  hops::Status SubtreeSetQuota(const std::vector<std::string>& components, int64_t ns_quota,
                               int64_t ss_quota, const UserContext& user);
  hops::Result<SubtreeSnapshot> SubtreeLockAndQuiesce(
      const std::vector<std::string>& components, SubtreeOp op, const UserContext& user);
  hops::Status SubtreeAbort(const SubtreeSnapshot& snapshot);
  // Phase-2 helper: quiesces one level of directories with one in-flight
  // scan batch per directory (pipelined through the async batch engine) and
  // returns the next level's nodes.
  hops::Result<std::vector<SubtreeNode>> QuiesceLevel(
      const std::vector<const SubtreeNode*>& dirs);
  // Phase-3 helper for delete: removes one batch of inodes in a transaction
  // through the pipelined batch engine.
  hops::Status DeleteBatchPipelined(const std::vector<SubtreeNode>& batch,
                                    const std::vector<Inode>& quota_ancestors);

  hops::Status CheckAlive() const {
    return alive_ ? hops::Status::Ok() : hops::Status::Failover("namenode is down");
  }
  NamenodeId id_safe() const;

  // Single-transaction rename used for files and empty directories; directory
  // renames with children go through SubtreeRename.
  hops::Status RenameInTx(const std::vector<std::string>& src,
                          const std::vector<std::string>& dst, const UserContext& user);

  kv::Engine* const db_;
  const MetadataSchema* const schema_;
  const FsConfig* const config_;
  std::unique_ptr<HandlerPool> handlers_;
  // The async-commit intent log (null when async_metadata_commit is off).
  // Declared after handlers_: its applier's transactions go through RunTx,
  // which reads handlers_, so it must stop first.
  std::unique_ptr<IntentLog> intents_;
  std::atomic<uint64_t> intents_adopted_{0};
  LeaderElection election_;
  InodeHintCache hint_cache_;
  IdAllocator inode_ids_;
  IdAllocator block_ids_;
  Inode root_;  // immutable, cached at every namenode (§4.2.1)
  std::atomic<bool> alive_{true};
  DieAt die_at_;
  std::function<std::vector<DatanodeId>(int)> dn_picker_;
  std::mutex dn_picker_mu_;
  TraceSink trace_sink_;
  std::mutex trace_mu_;
  // Whether trace_sink_ is set; written under trace_mu_, so that RunTx can
  // skip the mutex on every transaction when no sink is installed.
  std::atomic<bool> tracing_{false};

  // Subtree operations currently executing on THIS namenode, keyed by the
  // locked subtree root. A subtree-lock flag carrying our own id exempts the
  // owning operation's transactions, but ordinary inode operations on this
  // same namenode must respect it like everyone else -- this registry tells
  // the two apart (and flags owned by us but absent here are stale residue
  // of a failed cleanup, cleared lazily like dead-owner flags).
  bool IsMySubtreeOpActive(InodeId root) const {
    std::lock_guard<std::mutex> lock(active_subtree_mu_);
    return my_active_subtrees_.count(root) > 0;
  }
  void RegisterMySubtreeOp(InodeId root) {
    std::lock_guard<std::mutex> lock(active_subtree_mu_);
    my_active_subtrees_.insert(root);
  }
  void UnregisterMySubtreeOp(InodeId root) {
    std::lock_guard<std::mutex> lock(active_subtree_mu_);
    my_active_subtrees_.erase(root);
  }
  mutable std::mutex active_subtree_mu_;
  std::set<InodeId> my_active_subtrees_;
};

}  // namespace hops::fs
