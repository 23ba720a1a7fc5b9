// The NDB cluster engine: shared-nothing partitioned storage, node groups
// with replication, transaction coordinators at every datanode, and
// transactions with row locks + two-phase commit.
//
// This is the substrate the paper stores HopsFS metadata in (§2.2):
//  * tables are hash partitioned (application-defined partitioning supported
//    through explicit per-access partition values);
//  * partitions are assigned to node groups of `replication` datanodes; a
//    partition is available while any node of its group is alive, and the
//    cluster is unavailable if a whole group dies (§7.6.2);
//  * transactions start on a coordinator chosen by a distribution-aware hint
//    so single-partition work is node-local (§2.2, DAT);
//  * isolation is read-committed with explicit shared/exclusive row locks
//    (§2.2.2); deadlock resolution is by lock-wait timeout;
//  * a transaction coordinator failure aborts its transactions, which the
//    namenodes transparently retry (§7.6.2).
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ndb/batch.h"
#include "ndb/cost.h"
#include "ndb/fault.h"
#include "ndb/partition.h"
#include "ndb/schema.h"
#include "ndb/value.h"
#include "util/status.h"

namespace hops::ndb {

struct ClusterConfig {
  uint32_t num_datanodes = 4;
  uint32_t replication = 2;          // NDB default (NoOfReplicas)
  uint32_t partitions_per_table = 0; // 0 => 2 * num_datanodes
  std::chrono::milliseconds lock_wait_timeout{1200};  // paper §7.6.2 default
  // Prepared-but-unflushed batches a transaction may hold (NDB's
  // executeAsynchPrepare window). Preparing one more forces a flush of the
  // whole window, so a transaction never exceeds this many in flight.
  uint32_t max_in_flight_batches = 8;
  // Always false; kept only because hopsbench's config echo reads it.
  static constexpr bool use_completion_mux = false;
  // Always false; kept only because hopsbench's config echo reads it.
  static constexpr bool mux_adaptive_gather = false;
};

// Distribution-aware transaction hint: start the coordinator on the primary
// datanode of the partition that `partition_value` routes to in `table`.
struct TxHint {
  TableId table = 0;
  uint64_t partition_value = 0;
};

class Cluster;
class Transaction;

// Future-like handle to a batch submitted through Transaction::ExecuteAsync
// (the executeAsynchPrepare/sendPollNdb idiom). The handle is cheap to copy
// and outlives nothing: it only names the batch within its transaction. The
// staged ReadBatch/WriteBatch object must stay alive until Wait() returns.
class PendingBatch {
 public:
  PendingBatch() = default;

  bool valid() const { return tx_ != nullptr; }
  // True once the batch's flush window executed (result available).
  bool done() const;
  // Flushes the transaction's in-flight window if this batch is still
  // pending, then returns this batch's outcome. Idempotent.
  hops::Status Wait();

 private:
  friend class Transaction;
  PendingBatch(Transaction* tx, uint64_t seq) : tx_(tx), seq_(seq) {}
  Transaction* tx_ = nullptr;
  uint64_t seq_ = 0;
};

class Transaction {
 public:
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  TxId id() const { return id_; }
  uint32_t coordinator() const { return coordinator_; }

  // --- Primary-key operations ---------------------------------------------
  // `pv` overrides the partition routing value (application-defined
  // partitioning); tables with requires_explicit_partition demand it.
  hops::Result<Row> Read(TableId table, const Key& key, LockMode mode,
                         std::optional<uint64_t> pv = std::nullopt);
  // One round trip for any number of keys; result[i] is nullopt when key i
  // does not exist (the inode-hint-cache miss signal, paper §5.1.1).
  hops::Result<std::vector<std::optional<Row>>> BatchRead(
      TableId table, const std::vector<Key>& keys, LockMode mode,
      const std::vector<uint64_t>* pvs = nullptr);
  hops::Status Insert(TableId table, Row row, std::optional<uint64_t> pv = std::nullopt);
  hops::Status Update(TableId table, Row row, std::optional<uint64_t> pv = std::nullopt);
  // Upsert (NDB "write").
  hops::Status Write(TableId table, Row row, std::optional<uint64_t> pv = std::nullopt);
  hops::Status Delete(TableId table, const Key& key, std::optional<uint64_t> pv = std::nullopt);

  // --- Batched operations ----------------------------------------------------
  // Executes every staged read of `batch` in one simulated round trip: ops
  // are grouped by partition, row locks are acquired in the global
  // (table, partition, encoded key) order, and the coordinator fans out to
  // the touched partitions in parallel. Results are read back through the
  // batch's slot accessors. A thin wrapper over ExecuteAsync + immediate
  // Wait, so a sync Execute also flushes any batches already in flight.
  hops::Status Execute(ReadBatch& batch);
  // Locks and stages every write of `batch` in one round trip; the staged
  // rows are applied atomically at Commit() like any other write.
  hops::Status Execute(WriteBatch& batch);

  // --- Pipelined (async) batch execution -------------------------------------
  // Prepares `batch` without executing it and returns a future-like handle
  // (NDB's executeAsynchPrepare). Prepared batches accumulate in an
  // in-flight window that is flushed as one *overlapped* round trip -- cost
  // max, not sum, of the member trips -- when any member's Wait() is called,
  // when a synchronous operation needs the transaction's state, at Commit(),
  // or when the window reaches ClusterConfig::max_in_flight_batches
  // (sendPollNdb). A flush routes every op of every in-flight batch first,
  // then acquires the *combined* lock set in the global (table, partition,
  // encoded key) order -- so the deadlock-freedom guarantee holds across
  // in-flight batches, not just within one -- and finally runs each batch's
  // data work in preparation order (later batches observe earlier batches'
  // staged writes: read-your-writes across the pipeline). Batches prepared
  // after a failed one complete with kTxAborted; errors surface at Wait(),
  // and a transaction with any failed batch refuses to Commit() (the
  // failure leaves that batch partially staged).
  PendingBatch ExecuteAsync(ReadBatch& batch);
  PendingBatch ExecuteAsync(WriteBatch& batch);
  // Prepared batches not yet flushed (bounded by max_in_flight_batches).
  size_t InFlightBatches() const { return in_flight_.size(); }
  // Flushes the in-flight window now; returns the first member's failure, if
  // any (individual outcomes stay readable through their handles).
  hops::Status FlushPending();
  // Releases a row lock this transaction holds without waiting for
  // commit/abort (NDB's unlockable reads). Only safe for a lock whose
  // protected value the caller discarded without acting on it -- e.g. a
  // batched locked read issued against a stale hint-cache entry. Rows with
  // staged writes are never unlocked; unknown locks are a no-op.
  void UnlockRow(TableId table, const Key& key, std::optional<uint64_t> pv = std::nullopt);

  // --- Scans ----------------------------------------------------------------
  using ScanOptions = hops::ndb::ScanOptions;
  // Partition-pruned index scan: rows whose PK starts with `prefix`, within
  // the single partition the prefix (or explicit `pv`) routes to. `pv` must
  // be used consistently with the values used at insert time.
  hops::Result<std::vector<Row>> Ppis(TableId table, const Key& prefix,
                                      const ScanOptions& opts = {},
                                      std::optional<uint64_t> pv = std::nullopt);
  // Ordered-index scan over every partition (PK prefix may be empty).
  hops::Result<std::vector<Row>> IndexScan(TableId table, const Key& prefix,
                                           const ScanOptions& opts = {});
  hops::Result<std::vector<Row>> FullTableScan(TableId table, const ScanOptions& opts = {});

  // --- Outcome ---------------------------------------------------------------
  hops::Status Commit();
  void Abort();
  bool active() const { return state_ == State::kActive; }

  // --- Cost trace -------------------------------------------------------------
  void EnableTrace() { trace_enabled_ = true; }
  const CostTrace& trace() const { return trace_; }
  // Marks every access this transaction records from here on as background
  // work (the asynchronous intent-apply stage): already acknowledged to the
  // client, so the DES model stops the op's latency clock at the first
  // background access while the drain still occupies database stations.
  void SetBackground(bool background) { background_ = background; }
 private:
  friend class Cluster;
  friend class PendingBatch;
  enum class State { kActive, kCommitted, kAborted };

  Transaction(Cluster* cluster, TxId id, uint32_t coordinator);

  hops::Status CheckUsable(uint32_t partition);
  // The chaos harness's fault hook (see ndb/fault.h). `abort_tx` mirrors the
  // coordinator-failure semantics of the per-row path; batch routing and
  // scans report the error without aborting, like their real failure modes.
  hops::Status InjectFault(TableId table, bool abort_tx);
  hops::Status AcquireRowLock(TableId table, uint32_t partition, const std::string& ekey,
                              LockMode mode);
  // One row lock wanted by a batch. Batches acquire their whole lock set
  // through AcquireLockSet, which sorts by (table, partition, ekey) --
  // the global deadlock-free order -- and dedupes to the strongest mode.
  struct LockRequest {
    TableId table;
    uint32_t partition;
    std::string ekey;
    LockMode mode;
  };
  hops::Status AcquireLockSet(std::vector<LockRequest> requests, uint32_t* fresh_locks);
  // Scan of one partition: committed snapshot merged with this transaction's
  // staged writes, filters applied, per-row locks honored. `examined` counts
  // rows touched on the partition (for cost accounting).
  hops::Result<std::vector<Row>> ScanOnePartition(TableId table, uint32_t partition,
                                                  const std::string& eprefix,
                                                  const ScanOptions& opts,
                                                  uint32_t* examined);
  void RecordAccess(AccessKind kind, TableId table,
                    std::initializer_list<PartTouch> parts, uint32_t round_trips = 1);
  void RecordAccess(AccessKind kind, TableId table, std::vector<PartTouch> parts,
                    uint32_t round_trips = 1);
  hops::Result<std::vector<Row>> ScanPartitions(TableId table,
                                                const std::vector<uint32_t>& partitions,
                                                const Key& prefix, const ScanOptions& opts,
                                                AccessKind kind, bool full_scan);

  // --- Pipelined execution internals ---------------------------------------
  // One batch prepared by ExecuteAsync, awaiting the window flush.
  struct InFlightBatch {
    uint64_t seq = 0;
    ReadBatch* read = nullptr;    // exactly one of read/write is set
    WriteBatch* write = nullptr;
  };
  // Registers a prepared batch (or an immediate prepare-time outcome) and
  // flushes the window when it reaches the configured in-flight limit.
  PendingBatch PrepareBatch(ReadBatch* read, WriteBatch* write);
  hops::Status WaitBatch(uint64_t seq);
  bool BatchDone(uint64_t seq) const { return batch_results_.count(seq) > 0; }
  // Routing (partition + encoded key per op) and lock-plan construction.
  hops::Status RouteReadBatch(ReadBatch& batch, std::vector<LockRequest>& plan);
  hops::Status RouteWriteBatch(WriteBatch& batch, std::vector<LockRequest>& plan);
  // Data work for an already-routed, already-locked batch. Appends the
  // batch's accesses (all with round_trips = 0; the flush assigns the
  // carrying trip) and bumps the per-batch cluster counters.
  hops::Status RunReadBatchData(ReadBatch& batch, std::vector<Access>& accesses);
  hops::Status RunWriteBatchData(WriteBatch& batch, std::vector<Access>& accesses);
  // Phase-3 data work for a whole routed + locked window: runs each member
  // in preparation order, stores outcomes in batch_results_, poisons
  // pipeline_error_ on the first failure (members behind it report
  // kTxAborted), counts the sync-equivalent trips of the members that ran,
  // and appends the window's accesses. Returns the first member failure, if
  // any.
  hops::Status RunWindowData(std::vector<InFlightBatch>& flight, const std::vector<bool>& pays,
                             std::vector<Access>& accesses, size_t* sync_equiv,
                             size_t* read_members);
  // Which members would have paid their own round trip on the synchronous
  // path? Read batches always do; a write batch only if some lock in its
  // plan is not already exclusive-held -- by the transaction, or by an
  // earlier member of the same window.
  std::vector<bool> ComputeWindowPays(const std::vector<InFlightBatch>& flight,
                                      const std::vector<std::vector<LockRequest>>& plans) const;

  struct StagedWrite {
    bool is_delete = false;
    Row row;              // empty for deletes
    uint32_t partition = 0;
  };

  Cluster* cluster_;
  const TxId id_;
  const uint32_t coordinator_;
  State state_ = State::kActive;
  // (table, partition, encoded key) -> strongest mode held. The map form
  // dedupes repeated acquisitions and tracks shared->exclusive upgrades.
  std::map<std::tuple<TableId, uint32_t, std::string>, LockMode> held_locks_;
  // (table, encoded key) -> staged write; ordered map keeps commit
  // application deterministic.
  std::map<std::pair<TableId, std::string>, StagedWrite> write_set_;
  // Prepared batches awaiting the window flush, in preparation order.
  std::vector<InFlightBatch> in_flight_;
  // Outcomes of flushed (or rejected-at-prepare) batches, by sequence.
  std::map<uint64_t, hops::Status> batch_results_;
  // First batch failure of any flush window. A failed batch leaves its
  // writes partially staged, so Commit() refuses the transaction even when
  // the failure happened in an auto-flushed window the caller never
  // Waited on.
  hops::Status pipeline_error_;
  uint64_t next_batch_seq_ = 1;
  bool trace_enabled_ = false;
  bool background_ = false;
  CostTrace trace_;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  hops::Result<TableId> CreateTable(Schema schema);
  const Schema& schema(TableId table) const;
  std::optional<TableId> FindTable(std::string_view name) const;

  // Starts a transaction; with a hint the coordinator is the primary node of
  // the hinted partition (distribution-aware transaction), otherwise an
  // alive node is picked round-robin.
  std::unique_ptr<Transaction> Begin(std::optional<TxHint> hint = std::nullopt);

  // --- Failure injection -----------------------------------------------------
  // Seeded per-table transient errors and latency spikes (chaos harness);
  // disarmed by default, costing one relaxed load per access.
  FaultInjector& fault_injector() { return fault_injector_; }
  void KillDatanode(uint32_t node);
  void RestartDatanode(uint32_t node);
  bool IsAlive(uint32_t node) const;
  uint32_t NumAliveNodes() const;
  // True while every node group has at least one alive member.
  bool Available() const;

  // --- Topology ---------------------------------------------------------------
  const ClusterConfig& config() const { return config_; }
  uint32_t num_datanodes() const { return config_.num_datanodes; }
  uint32_t num_partitions() const { return num_partitions_; }
  uint32_t num_node_groups() const { return num_groups_; }
  uint32_t PartitionForValue(uint64_t partition_value) const;
  // Primary (first alive) node of the partition's group; nullopt if the
  // whole group is dead.
  std::optional<uint32_t> PrimaryNode(uint32_t partition) const;

  // --- Introspection ----------------------------------------------------------
  ClusterStats StatsSnapshot() const;
  void ResetStats();
  size_t TableRowCount(TableId table) const;
  // Replicated bytes: (payload + per-row overhead) * replication degree.
  size_t TotalMemoryBytes() const;
  size_t TableMemoryBytes(TableId table) const;
  // Monotonic epoch, bumped every kGlobalCheckpointCommits commits --
  // the global-checkpoint analogue used by recovery-oriented tests.
  uint64_t GlobalCheckpointEpoch() const { return gcp_epoch_.load(std::memory_order_relaxed); }

  // Per-row overhead modelling NDB page/index/transaction bookkeeping
  // (tuple header + hash-index entry + page amortization). With this value
  // a paper-example file (inode + 2 blocks + 6 replicas + 2 lookups,
  // metadata replicated twice) costs ~1.5KB, matching §7.3's 1552 bytes.
  static constexpr size_t kPerRowOverheadBytes = 28;

 private:
  friend class Transaction;
  static constexpr uint64_t kGlobalCheckpointCommits = 256;

  struct Table {
    Schema schema;
    std::vector<std::unique_ptr<Partition>> partitions;
    // For each partition-key column: its position within the PK tuple.
    std::vector<size_t> part_pos_in_pk;
  };

  const Table& table(TableId id) const;
  Table& table(TableId id);
  // Routes an access: explicit pv wins; otherwise derives the partition from
  // the partition-key columns present in `pk_values` (a full key or prefix).
  hops::Result<uint32_t> Route(const Table& t, const Key& pk_values,
                               std::optional<uint64_t> pv) const;
  uint32_t GroupOf(uint32_t partition) const { return partition % num_groups_; }
  bool PartitionAvailable(uint32_t partition) const;

  ClusterConfig config_;
  FaultInjector fault_injector_;
  uint32_t num_partitions_;
  uint32_t num_groups_;
  std::vector<std::unique_ptr<Table>> tables_;
  mutable std::mutex tables_mu_;  // guards the tables_ vector (not contents)
  std::vector<std::atomic<bool>> node_alive_;
  std::atomic<TxId> next_tx_id_{1};
  std::atomic<uint32_t> rr_coordinator_{0};
  std::atomic<uint64_t> gcp_epoch_{1};

  // Stats counters (relaxed; read via StatsSnapshot).
  struct AtomicStats {
    std::atomic<uint64_t> pk_reads{0}, batch_reads{0}, batch_writes{0}, ppis_scans{0},
        index_scans{0}, full_table_scans{0}, commits{0}, aborts{0}, rows_read{0},
        rows_written{0}, lock_timeouts{0}, lock_waits{0}, round_trips{0},
        overlapped_round_trips{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace hops::ndb
