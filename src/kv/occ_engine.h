// kv::Engine backend #2: an optimistic-concurrency MVCC engine
// (FoundationDB-style, per the 3FS integration notes).
//
// Concurrency model (backward-oriented OCC, first-committer-wins):
//  * Every committed row carries the commit version that installed it;
//    deletes install tombstones (version + no payload), so "the row changed"
//    and "the row vanished" validate identically.
//  * Reads never block and take no locks. kReadCommitted reads return the
//    latest committed version and are not validated -- exactly the stability
//    the 2PL engine's unlocked reads give. kShared/kExclusive reads are
//    recorded in the transaction's READ SET with the version they observed
//    (0 = key absent: the insert-guard observation).
//  * Locking scans are recorded in the RANGE SET as (table, partitions,
//    encoded prefix, version-at-scan); validation re-walks the range and
//    fails if any key under the prefix -- including tombstones -- carries a
//    newer version. This is the phantom check a 2PL locking scan gets from
//    holding its row locks.
//  * Writes (insert/update/upsert/delete) stage client-side in the write
//    set; existence-checking writes record a read-set observation so a
//    racing writer is caught. Blind upserts (Write) stage without
//    observation -- last-writer-wins, the same outcome 2PL serializes to.
//  * Commit validates the read and range sets and installs the write set
//    under one global commit mutex, at a single new commit version. The
//    published version counter is bumped only AFTER the install completes,
//    so a concurrent reader that loads version v is guaranteed every commit
//    <= v is fully visible -- the ordering the range check's correctness
//    rests on. A failed validation aborts with hops::StatusCode::kConflict
//    (retryable; Namenode::RunTx retries with a capped exponential backoff)
//    and bumps ClusterStats::occ_conflicts / occ_key_conflicts /
//    occ_range_conflicts.
//  * Read-only transactions skip validation: their results were already
//    returned under read-committed semantics and nothing observable depends
//    on commit-time stability (the classic OCC read-only fast path).
//
// Cost model, kept deliberately comparable to the 2PL engine: a read costs
// one round trip; an existence-checking write costs one unless the key's
// state is already known client-side (read or written earlier in the
// transaction -- the analogue of "lock already held"); a blind upsert is a
// pure client-side buffer append (0 trips until commit); commit with writes
// costs 2 trips (validate = prepare, install = commit); pipelined windows
// flush as one overlapped trip with the same overlapped_round_trips
// accounting. Tombstones are never garbage-collected -- deleted keys leave a
// version marker whose memory is excluded from the table-size accounting.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "kv/kv.h"

namespace hops::kv {

class OccEngine;

class OccTxn final : public Txn {
 public:
  ~OccTxn() override;

  TxId id() const override { return id_; }
  uint32_t coordinator() const override { return coordinator_; }

  hops::Result<Row> Read(TableId table, const Key& key, LockMode mode,
                         std::optional<uint64_t> pv) override;
  hops::Result<std::vector<std::optional<Row>>> BatchRead(
      TableId table, const std::vector<Key>& keys, LockMode mode,
      const std::vector<uint64_t>* pvs) override;
  hops::Status Insert(TableId table, Row row, std::optional<uint64_t> pv) override;
  hops::Status Update(TableId table, Row row, std::optional<uint64_t> pv) override;
  hops::Status Write(TableId table, Row row, std::optional<uint64_t> pv) override;
  hops::Status Delete(TableId table, const Key& key, std::optional<uint64_t> pv) override;

  size_t InFlightBatches() const override { return in_flight_.size(); }
  hops::Status FlushPending() override;
  void UnlockRow(TableId table, const Key& key, std::optional<uint64_t> pv) override;

  hops::Result<std::vector<Row>> Ppis(TableId table, const Key& prefix, const ScanOptions& opts,
                                      std::optional<uint64_t> pv) override;
  hops::Result<std::vector<Row>> IndexScan(TableId table, const Key& prefix,
                                           const ScanOptions& opts) override;
  hops::Result<std::vector<Row>> FullTableScan(TableId table, const ScanOptions& opts) override;

  hops::Status Commit() override;
  void Abort() override;
  bool active() const override { return state_ == State::kActive; }

  void EnableTrace() override { trace_enabled_ = true; }
  const CostTrace& trace() const override { return trace_; }
  void SetBackground(bool background) override { background_ = background; }

 private:
  friend class OccEngine;
  enum class State { kActive, kCommitted, kAborted };

  struct StagedWrite {
    bool is_delete = false;
    Row row;
    uint32_t partition = 0;
  };
  // One validated point observation: the version the transaction saw for a
  // key (0 = absent). Exact-match validated at commit.
  struct ReadObs {
    uint32_t partition = 0;
    uint64_t version = 0;
  };
  // One validated scan: no key under eprefix in these partitions may carry a
  // version newer than seen_version at commit.
  struct RangeObs {
    TableId table = 0;
    std::vector<uint32_t> partitions;
    std::string eprefix;
    uint64_t seen_version = 0;
  };
  struct InFlightBatch {
    uint64_t seq = 0;
    ReadBatch* read = nullptr;
    WriteBatch* write = nullptr;
  };

  OccTxn(OccEngine* engine, TxId id, uint32_t coordinator);

  hops::Status CheckUsable(uint32_t partition);
  hops::Status InjectFault(TableId table, bool abort_tx);
  void RecordAccess(AccessKind kind, TableId table, std::vector<PartTouch> parts,
                    uint32_t round_trips = 1);
  PartTouch Touch(uint32_t partition, uint32_t rows) const;
  // Latest committed version of (table, partition, ekey); 0 = never existed.
  // `live_row`, when non-null, receives the row if it is live (non-tombstone).
  uint64_t CommittedVersion(TableId table, uint32_t partition, const std::string& ekey,
                            std::optional<Row>* live_row) const;
  void Observe(TableId table, uint32_t partition, const std::string& ekey, uint64_t version);
  // True when the transaction already knows this key's state client-side
  // (observed it or staged a write) -- the OCC analogue of "lock already
  // held" used by the round-trip accounting.
  bool KeyKnown(TableId table, const std::string& ekey) const;
  // Existence-checking write preamble shared by Insert/Update/Delete and the
  // batched write path: staged-write overlay first, committed state second
  // (recording the observation).
  bool RowExists(TableId table, uint32_t partition, const std::string& ekey);

  hops::Result<std::vector<Row>> ScanOnePartition(TableId table, uint32_t partition,
                                                  const std::string& eprefix,
                                                  const ScanOptions& opts, uint32_t* examined);
  hops::Result<std::vector<Row>> ScanPartitions(TableId table,
                                                const std::vector<uint32_t>& partitions,
                                                const Key& prefix, const ScanOptions& opts,
                                                AccessKind kind, bool full_scan);

  uint64_t PrepareAsync(ReadBatch* read, WriteBatch* write) override;
  hops::Status WaitBatch(uint64_t seq) override;
  bool BatchDone(uint64_t seq) const override { return batch_results_.count(seq) > 0; }
  hops::Status RunReadBatchData(ReadBatch& batch, std::vector<Access>& accesses);
  hops::Status RunWriteBatchData(WriteBatch& batch, std::vector<Access>& accesses,
                                 bool* fresh_keys);

  OccEngine* const engine_;
  const TxId id_;
  const uint32_t coordinator_;
  State state_ = State::kActive;

  std::map<std::pair<TableId, std::string>, ReadObs> read_set_;
  std::vector<RangeObs> range_set_;
  std::map<std::pair<TableId, std::string>, StagedWrite> write_set_;

  std::vector<InFlightBatch> in_flight_;
  std::map<uint64_t, hops::Status> batch_results_;
  hops::Status pipeline_error_;
  uint64_t next_batch_seq_ = 1;

  bool trace_enabled_ = false;
  bool background_ = false;
  CostTrace trace_;
};

class OccEngine final : public Engine {
 public:
  explicit OccEngine(EngineConfig config);

  EngineKind kind() const override { return EngineKind::kOcc; }

  hops::Result<TableId> CreateTable(Schema schema) override;
  const Schema& schema(TableId table) const override;
  std::optional<TableId> FindTable(std::string_view name) const override;

  std::unique_ptr<Txn> Begin(std::optional<TxHint> hint) override;

  FaultInjector& fault_injector() override { return fault_injector_; }
  void KillDatanode(uint32_t node) override;
  void RestartDatanode(uint32_t node) override;
  bool IsAlive(uint32_t node) const override;
  uint32_t NumAliveNodes() const override;
  bool Available() const override;

  const EngineConfig& config() const override { return config_; }
  uint32_t num_datanodes() const override { return config_.num_datanodes; }
  uint32_t num_partitions() const override { return num_partitions_; }
  uint32_t num_node_groups() const override { return num_groups_; }
  uint32_t PartitionForValue(uint64_t partition_value) const override;
  std::optional<uint32_t> PrimaryNode(uint32_t partition) const override;

  ClusterStats StatsSnapshot() const override;
  void ResetStats() override;
  size_t TableRowCount(TableId table) const override;
  size_t TotalMemoryBytes() const override;
  size_t TableMemoryBytes(TableId table) const override;
  uint64_t GlobalCheckpointEpoch() const override {
    return gcp_epoch_.load(std::memory_order_relaxed);
  }

 private:
  friend class OccTxn;
  static constexpr uint64_t kGlobalCheckpointCommits = 256;

  struct VersionedRow {
    uint64_t version = 0;
    bool tombstone = false;
    Row row;
  };
  struct OccPartition {
    mutable std::mutex mu;
    std::map<std::string, VersionedRow> rows;  // ordered: prefix scans + range checks
    size_t live_rows = 0;
    size_t data_bytes = 0;  // live payload + key bytes (tombstones excluded)
  };
  struct Table {
    Schema schema;
    std::vector<size_t> part_pos_in_pk;
    std::vector<std::unique_ptr<OccPartition>> partitions;
  };

  const Table& table(TableId id) const;
  hops::Result<uint32_t> Route(const Table& t, const Key& pk_values,
                               std::optional<uint64_t> pv) const;
  uint32_t GroupOf(uint32_t partition) const { return partition % num_groups_; }
  bool PartitionAvailable(uint32_t partition) const;

  EngineConfig config_;
  FaultInjector fault_injector_;
  uint32_t num_partitions_;
  uint32_t num_groups_;
  std::vector<std::unique_ptr<Table>> tables_;
  mutable std::mutex tables_mu_;
  std::vector<std::atomic<bool>> node_alive_;
  std::atomic<TxId> next_tx_id_{1};
  std::atomic<uint32_t> rr_coordinator_{0};
  std::atomic<uint64_t> gcp_epoch_{1};

  // Commits serialize here: validate, install at published+1, then publish.
  std::mutex commit_mu_;
  std::atomic<uint64_t> commit_version_{0};

  struct AtomicStats {
    std::atomic<uint64_t> pk_reads{0}, batch_reads{0}, batch_writes{0}, ppis_scans{0},
        index_scans{0}, full_table_scans{0}, commits{0}, aborts{0}, rows_read{0},
        rows_written{0}, round_trips{0}, overlapped_round_trips{0}, occ_conflicts{0},
        occ_key_conflicts{0}, occ_range_conflicts{0};
  };
  mutable AtomicStats stats_;
};

}  // namespace hops::kv
