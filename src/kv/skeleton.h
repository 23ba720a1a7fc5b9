// The transaction skeleton both KV engines share.
//
// Everything an engine does the same way whatever its concurrency control is
// written once here: the topology derivation, the table registry, coordinator
// placement, liveness, routing, the stats counters and memory accounting
// (EngineSkeleton); and, per transaction, the routing of every access, the
// in-flight batch windows (PrepareAsync/WaitBatch, the max_in_flight_batches
// auto-flush, failure poisoning and the one-overlapped-trip accounting), the
// staged write set and its overlay in every read path, the write-kind
// checks, the scans, and the commit prologue and epilogue (TxnSkeleton).
//
// A backend supplies only its concurrency-control policy through the hooks
// below -- how a read or scan is made stable, and how writes are installed:
//
//   hook              2PL (ndb::Transaction)          OCC (kv::OccTxn)
//   ReadRow           lock, then read                 read, then observe
//   CommittedExists   probe the partition             probe and observe
//   ExistenceCheck-   the check's own error           kConflict if the key
//     Failed                                          moved past an earlier
//                                                     observation
//   ClaimWrite        X-lock; pays if not yet held    pays if the key is new
//   ClaimWindow       lock set in global order        nothing
//   CommittedRange    snapshot                        snapshot + RangeObs
//   HoldScanRow       lock / take-and-release         nothing
//   InstallWriteSet   apply under held locks          validate, install
//   ReleaseRow/All    release row locks               drop observations
//
// The skeleton never branches on engine kind.
#pragma once

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "kv/kv.h"

namespace hops::kv {

// One partition's committed rows, as a backend stores them. The skeleton
// only needs their size for memory accounting.
class PartitionStore {
 public:
  virtual ~PartitionStore() = default;
  PartitionStore(const PartitionStore&) = delete;
  PartitionStore& operator=(const PartitionStore&) = delete;

  virtual size_t row_count() const = 0;   // live rows
  virtual size_t data_bytes() const = 0;  // live payload + key bytes

 protected:
  PartitionStore() = default;
};

class TxnSkeleton;

class EngineSkeleton : public Engine {
 public:
  explicit EngineSkeleton(EngineConfig config);

  hops::Result<TableId> CreateTable(Schema schema) final;
  const Schema& schema(TableId table) const final;
  std::optional<TableId> FindTable(std::string_view name) const final;

  std::unique_ptr<Txn> Begin(std::optional<TxHint> hint = std::nullopt) final;

  FaultInjector& fault_injector() final { return fault_injector_; }
  void KillDatanode(uint32_t node) final;
  void RestartDatanode(uint32_t node) final;
  bool IsAlive(uint32_t node) const final;
  uint32_t NumAliveNodes() const final;
  bool Available() const final;

  const EngineConfig& config() const final { return config_; }
  uint32_t num_datanodes() const final { return config_.num_datanodes; }
  uint32_t num_partitions() const final { return num_partitions_; }
  uint32_t num_node_groups() const final { return num_groups_; }
  uint32_t PartitionForValue(uint64_t partition_value) const final;
  std::optional<uint32_t> PrimaryNode(uint32_t partition) const final;

  ClusterStats StatsSnapshot() const final;
  void ResetStats() final;
  size_t TableRowCount(TableId table) const final;
  size_t TotalMemoryBytes() const final;
  size_t TableMemoryBytes(TableId table) const final;
  uint64_t GlobalCheckpointEpoch() const final {
    return gcp_epoch_.load(std::memory_order_relaxed);
  }

  // Relaxed counters behind StatsSnapshot; each backend bumps the ones its
  // concurrency control produces (lock_* under 2PL, occ_* under OCC).
  struct AtomicStats {
    std::atomic<uint64_t> pk_reads{0}, batch_reads{0}, batch_writes{0}, ppis_scans{0},
        index_scans{0}, full_table_scans{0}, commits{0}, aborts{0}, rows_read{0},
        rows_written{0}, lock_timeouts{0}, lock_waits{0}, round_trips{0},
        overlapped_round_trips{0}, occ_conflicts{0}, occ_key_conflicts{0},
        occ_range_conflicts{0};
  };

 protected:
  // --- Backend hooks ---
  virtual std::unique_ptr<PartitionStore> NewPartition() = 0;
  virtual std::unique_ptr<Txn> NewTxn(TxId id, uint32_t coordinator) = 0;

  PartitionStore& partition(TableId table, uint32_t partition) const {
    return *this->table(table).partitions[partition];
  }

 private:
  friend class TxnSkeleton;
  static constexpr uint64_t kGlobalCheckpointCommits = 256;

  struct Table {
    Schema schema;
    // For each partition-key column: its position within the PK tuple.
    std::vector<size_t> part_pos_in_pk;
    std::vector<std::unique_ptr<PartitionStore>> partitions;
  };

  const Table& table(TableId id) const;
  // Routes an access: explicit pv wins; otherwise derives the partition from
  // the partition-key columns present in `pk_values` (a full key or prefix).
  hops::Result<uint32_t> Route(const Table& t, const Key& pk_values,
                               std::optional<uint64_t> pv) const;
  uint32_t GroupOf(uint32_t partition) const { return partition % num_groups_; }
  bool PartitionAvailable(uint32_t partition) const;

  const EngineConfig config_;
  FaultInjector fault_injector_;
  uint32_t num_partitions_;
  uint32_t num_groups_;
  // The table registry. Slots below num_tables_ are set once and never
  // change, so table() reads them without a lock: CreateTable fills slot n
  // and only then publishes n + 1 (release), and readers load the count
  // (acquire) before touching a slot. tables_mu_ only orders CreateTable
  // calls among themselves.
  static constexpr size_t kMaxTables = 64;
  std::array<std::unique_ptr<Table>, kMaxTables> tables_;
  std::atomic<size_t> num_tables_{0};
  std::mutex tables_mu_;
  std::vector<std::atomic<bool>> node_alive_;
  // Every handler thread writes the groups below on every access or
  // transaction; each starts its own cache line so that they neither
  // false-share with each other nor with the read-mostly topology above.
  alignas(64) std::atomic<TxId> next_tx_id_{1};
  std::atomic<uint32_t> rr_coordinator_{0};
  std::atomic<uint64_t> gcp_epoch_{1};
  alignas(64) mutable AtomicStats stats_;
};

class TxnSkeleton : public Txn {
 public:
  TxId id() const final { return id_; }
  uint32_t coordinator() const final { return coordinator_; }

  hops::Result<Row> Read(TableId table, const Key& key, LockMode mode,
                         std::optional<uint64_t> pv = std::nullopt) final;
  hops::Result<std::vector<std::optional<Row>>> BatchRead(
      TableId table, const std::vector<Key>& keys, LockMode mode,
      const std::vector<uint64_t>* pvs = nullptr) final;
  hops::Status Insert(TableId table, Row row, std::optional<uint64_t> pv = std::nullopt) final;
  hops::Status Update(TableId table, Row row, std::optional<uint64_t> pv = std::nullopt) final;
  hops::Status Write(TableId table, Row row, std::optional<uint64_t> pv = std::nullopt) final;
  hops::Status Delete(TableId table, const Key& key,
                      std::optional<uint64_t> pv = std::nullopt) final;

  size_t InFlightBatches() const final { return in_flight_.size(); }
  hops::Status FlushPending() final;
  void UnlockRow(TableId table, const Key& key, std::optional<uint64_t> pv = std::nullopt) final;

  hops::Result<std::vector<Row>> Ppis(TableId table, const Key& prefix,
                                      const ScanOptions& opts = {},
                                      std::optional<uint64_t> pv = std::nullopt) final;
  hops::Result<std::vector<Row>> IndexScan(TableId table, const Key& prefix,
                                           const ScanOptions& opts = {}) final;
  hops::Result<std::vector<Row>> FullTableScan(TableId table, const ScanOptions& opts = {}) final;

  hops::Status Commit() final;
  void Abort() final;
  bool active() const final { return state_ == State::kActive; }

  void EnableTrace() final { trace_enabled_ = true; }
  const CostTrace& trace() const final { return trace_; }
  void SetBackground(bool background) final { background_ = background; }

 protected:
  // The backend's destructor aborts an active transaction: the hooks Abort
  // calls are gone by the time this base destructor runs.
  TxnSkeleton(EngineSkeleton* engine, TxId id, uint32_t coordinator);

  // One batch prepared by ExecuteAsync, awaiting the window flush.
  struct InFlightBatch {
    uint64_t seq = 0;
    ReadBatch* read = nullptr;  // exactly one of read/write is set
    WriteBatch* write = nullptr;
  };
  struct StagedWrite {
    bool is_delete = false;
    Row row;  // empty for deletes
    uint32_t partition = 0;
  };
  // One partition's committed rows under a scan prefix, in encoded-key order.
  using CommittedRows = std::vector<std::pair<std::string, Row>>;
  // (table, encoded key) -> staged write; ordered so commit installs in a
  // deterministic order.
  using WriteSet = std::map<std::pair<TableId, std::string>, StagedWrite>;

  // --- Concurrency-control hooks ---
  // The committed row for a read in `mode` (nullopt when absent), made as
  // stable as the mode asks. Inside a flush window ClaimWindow already ran.
  virtual hops::Result<std::optional<Row>> ReadRow(TableId table, uint32_t partition,
                                                   const std::string& ekey, LockMode mode) = 0;
  // Whether a committed row exists, for a write's existence check; the
  // answer must stay true until commit.
  virtual bool CommittedExists(TableId table, uint32_t partition, const std::string& ekey) = 0;
  // The error for a write whose existence check failed (`failure` is the
  // AlreadyExists or NotFound the check implies). Called only then, so the
  // common path pays nothing for it.
  virtual hops::Status ExistenceCheckFailed(TableId table, uint32_t partition,
                                            const std::string& ekey, hops::Status failure) = 0;
  // Claims a row about to be written (`blind`: an upsert with no existence
  // check). Returns whether the claim costs a round trip of its own.
  virtual hops::Result<bool> ClaimWrite(TableId table, uint32_t partition,
                                        const std::string& ekey, bool blind) = 0;
  // Runs between a window's routing and its data work. Sets pays[i] for a
  // write member that would have paid its own trip on the synchronous path,
  // and `fresh` when the claims themselves cost the window's trip.
  virtual hops::Status ClaimWindow(const std::vector<InFlightBatch>& flight,
                                   std::vector<bool>& pays, bool& fresh) = 0;
  // The committed rows of one partition under `eprefix`, for a scan.
  virtual CommittedRows CommittedRange(TableId table, uint32_t partition,
                                       const std::string& eprefix, const ScanOptions& opts) = 0;
  // Makes one matching row of a locking scan stable (opts.lock is not
  // kReadCommitted); may refresh `row`. False drops the row.
  virtual hops::Result<bool> HoldScanRow(TableId table, uint32_t partition,
                                         const std::string& ekey, const ScanOptions& opts,
                                         Row& row) = 0;
  // Installs the (non-empty) write set at commit; a failure aborts. It may
  // move the staged rows out (the write set is cleared right after) and
  // park the rows they replace there, to be freed once its locks are gone.
  virtual hops::Status InstallWriteSet() = 0;
  // Drops the claim on one row without a staged write (UnlockRow).
  virtual void ReleaseRow(TableId table, uint32_t partition, const std::string& ekey) = 0;
  // Drops every claim at commit or abort.
  virtual void ReleaseAll() = 0;

  static bool RowMatches(const Row& row, const ScanOptions& opts);
  const WriteSet& write_set() const { return write_set_; }
  WriteSet& write_set() { return write_set_; }
  bool Staged(TableId table, const std::string& ekey) const {
    return write_set_.count({table, ekey}) > 0;
  }
  EngineSkeleton::AtomicStats& stats() const { return engine_->stats_; }

 private:
  enum class State { kActive, kCommitted, kAborted };
  using Table = EngineSkeleton::Table;
  using WriteKind = WriteBatch::Op::Kind;

  hops::Status CheckUsable(uint32_t partition);
  // The chaos harness's fault hook (see ndb/fault.h). `abort_tx` mirrors the
  // coordinator-failure semantics of the per-row path; batch routing and
  // scans report the error without aborting, like their real failure modes.
  hops::Status InjectFault(TableId table, bool abort_tx);
  // Partition, usability, fault hook and encoded key of one access.
  hops::Status RouteAccess(TableId table, const Table& t, const Key& key,
                           std::optional<uint64_t> pv, bool abort_tx, uint32_t& partition,
                           std::string& ekey);
  PartTouch Touch(uint32_t partition, uint32_t rows) const;
  void RecordAccess(AccessKind kind, TableId table, std::vector<PartTouch> parts,
                    uint32_t round_trips = 1);

  hops::Status WriteRow(WriteKind kind, TableId table, Key key, Row row,
                        std::optional<uint64_t> pv);
  // The write-kind check and staging shared by point and batched writes;
  // returns the rows staged (0 for a tolerated delete of an absent row).
  hops::Result<uint32_t> Stage(WriteKind kind, TableId table, const Table& t,
                               uint32_t partition, const std::string& ekey, Row row,
                               bool ignore_missing);
  bool RowExists(TableId table, uint32_t partition, const std::string& ekey);

  // Data work for an already-routed, already-claimed batch. Appends the
  // batch's accesses (round_trips = 0; the flush assigns the carrying trip)
  // and bumps the per-batch counters.
  hops::Status RunReadBatchData(ReadBatch& batch, std::vector<Access>& accesses);
  hops::Status RunWriteBatchData(WriteBatch& batch, std::vector<Access>& accesses,
                                 bool& fresh);

  // Scan of one partition: committed rows merged with this transaction's
  // staged writes, filters applied, locking rows held. `examined` counts
  // rows touched on the partition (for cost accounting).
  hops::Result<std::vector<Row>> ScanOnePartition(TableId table, uint32_t partition,
                                                  const std::string& eprefix,
                                                  const ScanOptions& opts, uint32_t* examined);
  hops::Result<std::vector<Row>> ScanPartitions(TableId table,
                                                const std::vector<uint32_t>& partitions,
                                                const Key& prefix, const ScanOptions& opts,
                                                AccessKind kind, bool full_scan);
  std::vector<uint32_t> AllPartitions() const;

  uint64_t PrepareAsync(ReadBatch* read, WriteBatch* write) final;
  hops::Status WaitBatch(uint64_t seq) final;
  bool BatchDone(uint64_t seq) const final { return batch_results_.count(seq) > 0; }

  EngineSkeleton* const engine_;
  const TxId id_;
  const uint32_t coordinator_;
  State state_ = State::kActive;
  WriteSet write_set_;
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

}  // namespace hops::kv
