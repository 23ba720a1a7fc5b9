// The pluggable transactional-KV engine boundary (3FS CustomKvEngine idiom).
//
// HopsFS's bet (paper §2) is that hierarchical metadata can ride ANY NewSQL
// store that offers transactions, row locks or their moral equivalent, and
// partition-aware routing. This header is that contract, distilled from what
// the namenode layer actually needs: kv::Engine owns tables, topology and
// stats; kv::Txn is one transaction with point ops, batch execute, pipelined
// in-flight windows, scans, and explicit lock modes.
//
// Both backends share one transaction skeleton (kv/skeleton.h): routing,
// flush windows, the staged write set and the cost accounting are written
// once, and each backend supplies only its concurrency-control policy:
//
//  * ndb::Cluster (ndb/cluster.h) -- the NDB-style pessimistic engine:
//    read-committed isolation plus eagerly acquired shared/exclusive row
//    locks, deadlock resolution by lock-wait timeout. LockMode is enforced
//    at access time.
//  * kv::OccEngine (occ_engine.h) -- an optimistic MVCC engine
//    (FoundationDB-style): lock modes never block; kShared/kExclusive reads
//    are recorded in a read set and validated at commit, locking scans are
//    recorded as ranges (phantom protection), and a failed validation
//    surfaces hops::StatusCode::kConflict -- retryable, so the namenode's
//    RunTx loop becomes a real OCC retry loop.
//
// Lock-mode semantics every backend must honor (the contract call sites are
// written against):
//  * kReadCommitted: sees the latest committed version, never blocks, and
//    carries NO stability guarantee past the read itself.
//  * kShared: the value read is guaranteed unchanged at commit -- by holding
//    the lock (2PL) or by failing validation (OCC). A read of a MISSING row
//    guards its key slot the same way (insert-guard semantics).
//  * kExclusive: kShared's guarantee plus the intent to write; concurrent
//    kShared/kExclusive claims on the row serialize (2PL blocks, OCC aborts
//    one claimant at commit).
//
// The data plane (rows, keys, schemas, batches, cost traces, stats, fault
// injection) lives in src/ndb's data-plane headers and is aliased here: both
// backends speak the same rows and emit the same counters, so benches and
// the DES simulator compare engines without translation.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "ndb/batch.h"
#include "ndb/cost.h"
#include "ndb/fault.h"
#include "ndb/schema.h"
#include "ndb/value.h"
#include "util/status.h"

namespace hops::kv {

// --- Shared data plane -------------------------------------------------------
using Value = ndb::Value;
using Row = ndb::Row;
using Key = ndb::Key;
using ColumnType = ndb::ColumnType;
using Column = ndb::Column;
using Schema = ndb::Schema;
using TableId = ndb::TableId;
using TxId = ndb::TxId;
using LockMode = ndb::LockMode;
using ScanOptions = ndb::ScanOptions;
using BatchLockOrder = ndb::BatchLockOrder;
using ReadBatch = ndb::ReadBatch;
using WriteBatch = ndb::WriteBatch;
using AccessKind = ndb::AccessKind;
using PartTouch = ndb::PartTouch;
using Access = ndb::Access;
using CostTrace = ndb::CostTrace;
using ClusterStats = ndb::ClusterStats;
using FaultInjector = ndb::FaultInjector;

// The knob set every backend consumes; OCC ignores the lock-wait field (it
// has no lock waits).
struct EngineConfig {
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

// --- Backend selection -------------------------------------------------------
enum class EngineKind : uint8_t {
  kNdb,  // pessimistic 2PL (NDB-style), the paper's engine
  kOcc,  // optimistic MVCC with commit-time validation
};

std::string_view EngineKindName(EngineKind kind);
// "ndb" / "occ" (case-insensitive); nullopt for anything else.
std::optional<EngineKind> ParseEngineKind(std::string_view name);
// The HOPS_KV_ENGINE environment override consumed by MiniCluster::Start and
// the benches; nullopt when unset or unparseable.
std::optional<EngineKind> EngineKindFromEnv();

class Txn;

// Future-like handle to a batch submitted through Txn::ExecuteAsync (the
// executeAsynchPrepare/sendPollNdb idiom). The handle is cheap to copy and
// outlives nothing: it only names the batch within its transaction. The
// staged ReadBatch/WriteBatch object must stay alive until Wait() returns.
class Pending {
 public:
  Pending() = default;

  bool valid() const { return tx_ != nullptr; }
  // True once the batch's flush window executed (result available).
  bool done() const;
  // Flushes the transaction's in-flight window if this batch is still
  // pending, then returns this batch's outcome. Idempotent.
  hops::Status Wait();

 private:
  friend class Txn;
  Pending(Txn* tx, uint64_t seq) : tx_(tx), seq_(seq) {}
  Txn* tx_ = nullptr;
  uint64_t seq_ = 0;
};

// One transaction against a kv::Engine: read-committed isolation, explicit
// per-access lock modes, writes staged in the transaction and applied
// atomically at Commit(), and read-your-writes in every read path.
class Txn {
 public:
  virtual ~Txn() = default;
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;

  virtual TxId id() const = 0;
  virtual uint32_t coordinator() const = 0;

  // --- Primary-key operations ---
  // `pv` overrides the partition routing value (application-defined
  // partitioning); tables with requires_explicit_partition demand it.
  virtual hops::Result<Row> Read(TableId table, const Key& key, LockMode mode,
                                 std::optional<uint64_t> pv = std::nullopt) = 0;
  // One round trip for any number of keys; result[i] is nullopt when key i
  // does not exist (the inode-hint-cache miss signal, paper §5.1.1).
  virtual hops::Result<std::vector<std::optional<Row>>> BatchRead(
      TableId table, const std::vector<Key>& keys, LockMode mode,
      const std::vector<uint64_t>* pvs = nullptr) = 0;
  virtual hops::Status Insert(TableId table, Row row,
                              std::optional<uint64_t> pv = std::nullopt) = 0;
  virtual hops::Status Update(TableId table, Row row,
                              std::optional<uint64_t> pv = std::nullopt) = 0;
  // Upsert (NDB "write").
  virtual hops::Status Write(TableId table, Row row,
                             std::optional<uint64_t> pv = std::nullopt) = 0;
  virtual hops::Status Delete(TableId table, const Key& key,
                              std::optional<uint64_t> pv = std::nullopt) = 0;

  // --- Batched execution (sync = async + immediate Wait) ---
  // Execute runs every staged op of `batch` in one simulated round trip:
  // ops are grouped by partition and the coordinator fans out to the touched
  // partitions in parallel. Read results come back through the batch's slot
  // accessors; staged writes apply at Commit() like any other write.
  //
  // ExecuteAsync only prepares the batch (NDB's executeAsynchPrepare).
  // Prepared batches accumulate in an in-flight window that is flushed as
  // one *overlapped* round trip -- cost max, not sum, of the member trips --
  // when any member's Wait() is called, when a synchronous operation needs
  // the transaction's state, at Commit(), or when the window reaches
  // EngineConfig::max_in_flight_batches (sendPollNdb). A flush routes every
  // op of every member first, claims the window's rows (2PL: the combined
  // lock set in the global (table, partition, encoded key) order, so
  // deadlock freedom holds across in-flight batches), and finally runs each
  // member's data work in preparation order (later batches observe earlier
  // batches' staged writes). Batches behind a failed one complete with
  // kTxAborted; errors surface at Wait(), and a transaction with any failed
  // batch refuses to Commit() (the failure leaves that batch partially
  // staged).
  hops::Status Execute(ReadBatch& batch) { return ExecuteAsync(batch).Wait(); }
  hops::Status Execute(WriteBatch& batch) { return ExecuteAsync(batch).Wait(); }
  Pending ExecuteAsync(ReadBatch& batch) { return Pending(this, PrepareAsync(&batch, nullptr)); }
  Pending ExecuteAsync(WriteBatch& batch) { return Pending(this, PrepareAsync(nullptr, &batch)); }
  // Prepared batches not yet flushed (bounded by max_in_flight_batches).
  virtual size_t InFlightBatches() const = 0;
  // Flushes the in-flight window now; returns the first member's failure, if
  // any (individual outcomes stay readable through their handles).
  virtual hops::Status FlushPending() = 0;
  // Gives up the claim on a row without waiting for commit/abort (NDB's
  // unlockable reads; under OCC, the row leaves the read set). Only safe for
  // a value the caller discarded without acting on it -- e.g. a batched
  // locked read issued against a stale hint-cache entry. Rows with staged
  // writes are never released; unknown rows are a no-op.
  virtual void UnlockRow(TableId table, const Key& key,
                         std::optional<uint64_t> pv = std::nullopt) = 0;

  // --- Scans ---
  // Partition-pruned index scan: rows whose PK starts with `prefix`, within
  // the single partition the prefix (or explicit `pv`) routes to. `pv` must
  // be used consistently with the values used at insert time.
  virtual hops::Result<std::vector<Row>> Ppis(TableId table, const Key& prefix,
                                              const ScanOptions& opts = {},
                                              std::optional<uint64_t> pv = std::nullopt) = 0;
  // Ordered-index scan over every partition (PK prefix may be empty).
  virtual hops::Result<std::vector<Row>> IndexScan(TableId table, const Key& prefix,
                                                   const ScanOptions& opts = {}) = 0;
  virtual hops::Result<std::vector<Row>> FullTableScan(TableId table,
                                                       const ScanOptions& opts = {}) = 0;

  // --- Outcome ---
  virtual hops::Status Commit() = 0;
  virtual void Abort() = 0;
  virtual bool active() const = 0;

  // --- Cost trace ---
  virtual void EnableTrace() = 0;
  virtual const CostTrace& trace() const = 0;
  // Marks every access this transaction records from here on as background
  // work (the asynchronous intent-apply stage): already acknowledged to the
  // client, so the DES model stops the op's latency clock at the first
  // background access while the drain still occupies database stations.
  virtual void SetBackground(bool background) = 0;
  // A no-op on every backend; kept only because hopsbench's TimedEngine
  // overrides it.
  virtual void SetLatencySensitive(bool /*v*/) {}

 protected:
  Txn() = default;

 private:
  friend class Pending;
  // Registers a batch (exactly one of read/write set) and returns the handle
  // sequence Pending resolves through WaitBatch/BatchDone.
  virtual uint64_t PrepareAsync(ReadBatch* read, WriteBatch* write) = 0;
  virtual hops::Status WaitBatch(uint64_t seq) = 0;
  virtual bool BatchDone(uint64_t seq) const = 0;
};

inline bool Pending::done() const { return tx_ != nullptr && tx_->BatchDone(seq_); }

inline hops::Status Pending::Wait() {
  if (tx_ == nullptr) return hops::Status::InvalidArgument("empty batch handle");
  return tx_->WaitBatch(seq_);
}

// One storage backend: tables, transactions, topology, failure injection and
// stats, so MiniCluster and the tests/benches interrogate either backend
// identically.
class Engine {
 public:
  virtual ~Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  virtual EngineKind kind() const = 0;
  std::string_view name() const { return EngineKindName(kind()); }

  virtual hops::Result<TableId> CreateTable(Schema schema) = 0;
  virtual const Schema& schema(TableId table) const = 0;
  virtual std::optional<TableId> FindTable(std::string_view name) const = 0;

  // Starts a transaction; with a hint the coordinator is the primary node of
  // the hinted partition (distribution-aware transaction), otherwise an
  // alive node is picked round-robin.
  virtual std::unique_ptr<Txn> Begin(std::optional<TxHint> hint = std::nullopt) = 0;

  // --- Failure injection (the chaos harness drives either backend) ---
  // Seeded per-table transient errors and latency spikes; disarmed by
  // default, costing one relaxed load per access.
  virtual FaultInjector& fault_injector() = 0;
  virtual void KillDatanode(uint32_t node) = 0;
  virtual void RestartDatanode(uint32_t node) = 0;
  virtual bool IsAlive(uint32_t node) const = 0;
  virtual uint32_t NumAliveNodes() const = 0;
  // True while every node group has at least one alive member.
  virtual bool Available() const = 0;

  // --- Topology ---
  virtual const EngineConfig& config() const = 0;
  virtual uint32_t num_datanodes() const = 0;
  virtual uint32_t num_partitions() const = 0;
  virtual uint32_t num_node_groups() const = 0;
  virtual uint32_t PartitionForValue(uint64_t partition_value) const = 0;
  // Primary (first alive) node of the partition's group; nullopt if the
  // whole group is dead.
  virtual std::optional<uint32_t> PrimaryNode(uint32_t partition) const = 0;

  // --- Introspection ---
  virtual ClusterStats StatsSnapshot() const = 0;
  virtual void ResetStats() = 0;
  virtual size_t TableRowCount(TableId table) const = 0;
  // Replicated bytes: (payload + per-row overhead) * replication degree.
  virtual size_t TotalMemoryBytes() const = 0;
  virtual size_t TableMemoryBytes(TableId table) const = 0;
  // Monotonic epoch, bumped every few hundred commits -- the
  // global-checkpoint analogue used by recovery-oriented tests.
  virtual uint64_t GlobalCheckpointEpoch() const = 0;

  // Per-row overhead modelling NDB page/index/transaction bookkeeping
  // (tuple header + hash-index entry + page amortization). With this value
  // a paper-example file (inode + 2 blocks + 6 replicas + 2 lookups,
  // metadata replicated twice) costs ~1.5KB, matching §7.3's 1552 bytes.
  static constexpr size_t kPerRowOverheadBytes = 28;

 protected:
  Engine() = default;
};

std::unique_ptr<Engine> MakeEngine(EngineKind kind, EngineConfig config);

}  // namespace hops::kv
