// The shared engine and transaction skeleton; see skeleton.h for what each
// backend's concurrency-control hooks decide.
#include "kv/skeleton.h"

#include <cassert>

#include "util/hash.h"

namespace hops::kv {

namespace {

Key ExtractPk(const Schema& schema, const Row& row) {
  Key key;
  key.reserve(schema.primary_key.size());
  for (size_t idx : schema.primary_key) {
    assert(idx < row.size());
    key.push_back(row[idx]);
  }
  return key;
}

// Accumulates one partition's share of a logical access: merge into an
// existing PartTouch or append a new one.
void MergeTouch(std::vector<PartTouch>& parts, const PartTouch& touch) {
  for (auto& pt : parts) {
    if (pt.partition == touch.partition) {
      pt.rows += touch.rows;
      return;
    }
  }
  parts.push_back(touch);
}

// The logical access of `kind` on `table` among the accesses a batch
// appended from `first` on: same-table gets (or writes) of one batch
// aggregate into one access; aggregation never crosses batch boundaries, so
// a trace still shows the pipeline's structure.
Access& AccessFor(std::vector<Access>& accesses, size_t first, AccessKind kind, TableId table) {
  for (size_t i = first; i < accesses.size(); ++i) {
    if (accesses[i].kind == kind && accesses[i].table == table) return accesses[i];
  }
  Access a;
  a.kind = kind;
  a.table = table;
  a.round_trips = 0;
  accesses.push_back(std::move(a));
  return accesses.back();
}

}  // namespace

// --- EngineSkeleton ------------------------------------------------------------

EngineSkeleton::EngineSkeleton(EngineConfig config) : config_(config) {
  assert(config_.num_datanodes > 0);
  assert(config_.replication > 0);
  assert(config_.num_datanodes % config_.replication == 0 &&
         "datanode count must be a multiple of the replication degree");
  num_partitions_ = config_.partitions_per_table != 0 ? config_.partitions_per_table
                                                      : 2 * config_.num_datanodes;
  num_groups_ = config_.num_datanodes / config_.replication;
  node_alive_ = std::vector<std::atomic<bool>>(config_.num_datanodes);
  for (auto& a : node_alive_) a.store(true, std::memory_order_relaxed);
}

hops::Result<TableId> EngineSkeleton::CreateTable(Schema schema) {
  std::string error;
  if (!schema.Validate(&error)) return hops::Status::InvalidArgument(error);
  auto t = std::make_unique<Table>();
  for (size_t part_col : schema.partition_key) {
    size_t pos = 0;
    for (; pos < schema.primary_key.size(); ++pos) {
      if (schema.primary_key[pos] == part_col) break;
    }
    t->part_pos_in_pk.push_back(pos);
  }
  t->schema = std::move(schema);
  t->partitions.reserve(num_partitions_);
  for (uint32_t p = 0; p < num_partitions_; ++p) t->partitions.push_back(NewPartition());
  std::lock_guard<std::mutex> lock(tables_mu_);
  const size_t n = num_tables_.load(std::memory_order_relaxed);
  if (n == kMaxTables) {
    return hops::Status::InvalidArgument("table registry is full (" +
                                         std::to_string(kMaxTables) + " tables)");
  }
  tables_[n] = std::move(t);
  num_tables_.store(n + 1, std::memory_order_release);
  return static_cast<TableId>(n);
}

const Schema& EngineSkeleton::schema(TableId id) const { return table(id).schema; }

std::optional<TableId> EngineSkeleton::FindTable(std::string_view name) const {
  const size_t n = num_tables_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) {
    if (tables_[i]->schema.table_name == name) return static_cast<TableId>(i);
  }
  return std::nullopt;
}

const EngineSkeleton::Table& EngineSkeleton::table(TableId id) const {
  // Pairs with CreateTable's release: slot `id` is completely built.
  [[maybe_unused]] const size_t n = num_tables_.load(std::memory_order_acquire);
  assert(id < n);
  return *tables_[id];
}

std::unique_ptr<Txn> EngineSkeleton::Begin(std::optional<TxHint> hint) {
  uint32_t coordinator = 0;
  bool placed = false;
  if (hint) {
    uint32_t partition = PartitionForValue(hint->partition_value);
    if (auto primary = PrimaryNode(partition)) {
      coordinator = *primary;
      placed = true;
    }
    // An incorrect or unroutable hint costs extra traffic but is otherwise
    // harmless (paper §2.2); fall through to round-robin placement.
  }
  if (!placed) {
    for (uint32_t i = 0; i < config_.num_datanodes; ++i) {
      uint32_t candidate =
          rr_coordinator_.fetch_add(1, std::memory_order_relaxed) % config_.num_datanodes;
      if (IsAlive(candidate)) {
        coordinator = candidate;
        break;
      }
    }
  }
  return NewTxn(next_tx_id_.fetch_add(1, std::memory_order_relaxed), coordinator);
}

void EngineSkeleton::KillDatanode(uint32_t node) {
  assert(node < config_.num_datanodes);
  node_alive_[node].store(false, std::memory_order_release);
}

void EngineSkeleton::RestartDatanode(uint32_t node) {
  assert(node < config_.num_datanodes);
  // Node recovery copies partition state back from its group peers (NDB
  // node-level recovery); data here is shared per group so nothing to do.
  node_alive_[node].store(true, std::memory_order_release);
}

bool EngineSkeleton::IsAlive(uint32_t node) const {
  return node_alive_[node].load(std::memory_order_acquire);
}

uint32_t EngineSkeleton::NumAliveNodes() const {
  uint32_t n = 0;
  for (const auto& a : node_alive_) n += a.load(std::memory_order_acquire) ? 1 : 0;
  return n;
}

bool EngineSkeleton::Available() const {
  for (uint32_t g = 0; g < num_groups_; ++g) {
    bool any = false;
    for (uint32_t r = 0; r < config_.replication; ++r) {
      if (IsAlive(g * config_.replication + r)) {
        any = true;
        break;
      }
    }
    if (!any) return false;
  }
  return true;
}

uint32_t EngineSkeleton::PartitionForValue(uint64_t partition_value) const {
  return static_cast<uint32_t>(HashU64(partition_value) % num_partitions_);
}

std::optional<uint32_t> EngineSkeleton::PrimaryNode(uint32_t partition) const {
  uint32_t group = GroupOf(partition);
  for (uint32_t r = 0; r < config_.replication; ++r) {
    uint32_t node = group * config_.replication + r;
    if (IsAlive(node)) return node;
  }
  return std::nullopt;
}

bool EngineSkeleton::PartitionAvailable(uint32_t partition) const {
  return PrimaryNode(partition).has_value();
}

hops::Result<uint32_t> EngineSkeleton::Route(const Table& t, const Key& pk_values,
                                             std::optional<uint64_t> pv) const {
  if (pv) return PartitionForValue(*pv);
  if (t.schema.requires_explicit_partition) {
    return hops::Status::InvalidArgument(t.schema.table_name +
                                         " requires an explicit partition value");
  }
  // Hash the encoded partition-key column values, which must all be present
  // in the supplied key/prefix.
  std::string encoded;
  for (size_t pos : t.part_pos_in_pk) {
    if (pos >= pk_values.size()) {
      return hops::Status::InvalidArgument("key prefix does not cover the partition key of " +
                                           t.schema.table_name);
    }
    EncodeValue(pk_values[pos], encoded);
  }
  return PartitionForValue(HashBytes(encoded));
}

ClusterStats EngineSkeleton::StatsSnapshot() const {
  auto get = [](const std::atomic<uint64_t>& c) { return c.load(std::memory_order_relaxed); };
  ClusterStats s;
  s.pk_reads = get(stats_.pk_reads);
  s.batch_reads = get(stats_.batch_reads);
  s.batch_writes = get(stats_.batch_writes);
  s.ppis_scans = get(stats_.ppis_scans);
  s.index_scans = get(stats_.index_scans);
  s.full_table_scans = get(stats_.full_table_scans);
  s.commits = get(stats_.commits);
  s.aborts = get(stats_.aborts);
  s.rows_read = get(stats_.rows_read);
  s.rows_written = get(stats_.rows_written);
  s.lock_timeouts = get(stats_.lock_timeouts);
  s.lock_waits = get(stats_.lock_waits);
  s.round_trips = get(stats_.round_trips);
  s.overlapped_round_trips = get(stats_.overlapped_round_trips);
  s.occ_conflicts = get(stats_.occ_conflicts);
  s.occ_key_conflicts = get(stats_.occ_key_conflicts);
  s.occ_range_conflicts = get(stats_.occ_range_conflicts);
  return s;
}

void EngineSkeleton::ResetStats() {
  for (std::atomic<uint64_t>* c :
       {&stats_.pk_reads, &stats_.batch_reads, &stats_.batch_writes, &stats_.ppis_scans,
        &stats_.index_scans, &stats_.full_table_scans, &stats_.commits, &stats_.aborts,
        &stats_.rows_read, &stats_.rows_written, &stats_.lock_timeouts, &stats_.lock_waits,
        &stats_.round_trips, &stats_.overlapped_round_trips, &stats_.occ_conflicts,
        &stats_.occ_key_conflicts, &stats_.occ_range_conflicts}) {
    c->store(0, std::memory_order_relaxed);
  }
}

size_t EngineSkeleton::TableRowCount(TableId id) const {
  size_t n = 0;
  for (const auto& p : table(id).partitions) n += p->row_count();
  return n;
}

size_t EngineSkeleton::TableMemoryBytes(TableId id) const {
  size_t bytes = 0;
  for (const auto& p : table(id).partitions) {
    bytes += p->data_bytes() + p->row_count() * kPerRowOverheadBytes;
  }
  return bytes * config_.replication;
}

size_t EngineSkeleton::TotalMemoryBytes() const {
  size_t total = 0;
  const size_t n = num_tables_.load(std::memory_order_acquire);
  for (size_t i = 0; i < n; ++i) total += TableMemoryBytes(static_cast<TableId>(i));
  return total;
}

// --- TxnSkeleton: access plumbing ------------------------------------------------

TxnSkeleton::TxnSkeleton(EngineSkeleton* engine, TxId id, uint32_t coordinator)
    : engine_(engine), id_(id), coordinator_(coordinator) {
  trace_.coordinator_node = coordinator;
}

bool TxnSkeleton::RowMatches(const Row& row, const ScanOptions& opts) {
  if (opts.eq_filter) {
    const auto& [col, value] = *opts.eq_filter;
    if (col >= row.size() || !(row[col] == value)) return false;
  }
  if (opts.predicate && !opts.predicate(row)) return false;
  return true;
}

hops::Status TxnSkeleton::CheckUsable(uint32_t partition) {
  if (state_ != State::kActive) {
    return hops::Status::TxAborted("transaction is not active");
  }
  if (!engine_->IsAlive(coordinator_)) {
    // Coordinator failover: NDB hands transactions of a failed TC to another
    // coordinator by aborting them; the namenode retries (paper §7.6.2).
    Abort();
    return hops::Status::TxAborted("transaction coordinator failed");
  }
  if (!engine_->PartitionAvailable(partition)) {
    Abort();
    return hops::Status::Unavailable("entire node group for partition is down");
  }
  return hops::Status::Ok();
}

hops::Status TxnSkeleton::InjectFault(TableId table, bool abort_tx) {
  FaultInjector& injector = engine_->fault_injector_;
  if (!injector.armed()) return hops::Status::Ok();
  hops::Status st = injector.OnAccess(table);
  if (!st.ok() && abort_tx && state_ == State::kActive) Abort();
  return st;
}

hops::Status TxnSkeleton::RouteAccess(TableId table, const Table& t, const Key& key,
                                      std::optional<uint64_t> pv, bool abort_tx,
                                      uint32_t& partition, std::string& ekey) {
  HOPS_ASSIGN_OR_RETURN(routed, engine_->Route(t, key, pv));
  partition = routed;
  HOPS_RETURN_IF_ERROR(CheckUsable(partition));
  HOPS_RETURN_IF_ERROR(InjectFault(table, abort_tx));
  ekey = EncodeKey(key);
  return hops::Status::Ok();
}

PartTouch TxnSkeleton::Touch(uint32_t partition, uint32_t rows) const {
  uint32_t node = engine_->PrimaryNode(partition).value_or(coordinator_);
  return PartTouch{partition, node, rows, node == coordinator_};
}

void TxnSkeleton::RecordAccess(AccessKind kind, TableId table, std::vector<PartTouch> parts,
                               uint32_t round_trips) {
  uint64_t rows = 0;
  for (const auto& p : parts) rows += p.rows;
  auto& s = stats();
  s.round_trips.fetch_add(round_trips, std::memory_order_relaxed);
  switch (kind) {
    case AccessKind::kPkRead:
      s.pk_reads.fetch_add(1, std::memory_order_relaxed);
      s.rows_read.fetch_add(rows, std::memory_order_relaxed);
      break;
    case AccessKind::kPkWrite:
      break;  // rows counted at commit
    case AccessKind::kBatchRead:
      s.batch_reads.fetch_add(1, std::memory_order_relaxed);
      s.rows_read.fetch_add(rows, std::memory_order_relaxed);
      break;
    case AccessKind::kPpis:
      s.ppis_scans.fetch_add(1, std::memory_order_relaxed);
      s.rows_read.fetch_add(rows, std::memory_order_relaxed);
      break;
    case AccessKind::kIndexScan:
      s.index_scans.fetch_add(1, std::memory_order_relaxed);
      s.rows_read.fetch_add(rows, std::memory_order_relaxed);
      break;
    case AccessKind::kFullTableScan:
      s.full_table_scans.fetch_add(1, std::memory_order_relaxed);
      s.rows_read.fetch_add(rows, std::memory_order_relaxed);
      break;
    case AccessKind::kCommit:
      s.rows_written.fetch_add(rows, std::memory_order_relaxed);
      break;
  }
  if (!trace_enabled_) return;
  Access a;
  a.kind = kind;
  a.table = table;
  a.round_trips = round_trips;
  a.background = background_;
  a.parts = std::move(parts);
  trace_.accesses.push_back(std::move(a));
}

// --- Primary-key operations ------------------------------------------------------

hops::Result<Row> TxnSkeleton::Read(TableId table, const Key& key, LockMode mode,
                                    std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());  // per-row ops order after the pipeline
  uint32_t partition;
  std::string ekey;
  HOPS_RETURN_IF_ERROR(
      RouteAccess(table, engine_->table(table), key, pv, /*abort_tx=*/true, partition, ekey));
  std::optional<Row> row;
  auto staged = write_set_.find({table, ekey});
  if (staged != write_set_.end()) {
    // A staged row is already claimed for writing: nothing left to claim.
    if (!staged->second.is_delete) row = staged->second.row;
  } else {
    HOPS_ASSIGN_OR_RETURN(committed, ReadRow(table, partition, ekey, mode));
    row = std::move(committed);
  }
  RecordAccess(AccessKind::kPkRead, table, {Touch(partition, 1)});
  if (!row) return hops::Status::NotFound();
  return *std::move(row);
}

hops::Result<std::vector<std::optional<Row>>> TxnSkeleton::BatchRead(
    TableId table, const std::vector<Key>& keys, LockMode mode,
    const std::vector<uint64_t>* pvs) {
  assert(pvs == nullptr || pvs->size() == keys.size());
  ReadBatch batch;
  for (size_t i = 0; i < keys.size(); ++i) {
    batch.Get(table, keys[i], mode, pvs ? std::optional<uint64_t>((*pvs)[i]) : std::nullopt);
  }
  HOPS_RETURN_IF_ERROR(Execute(batch));
  std::vector<std::optional<Row>> results(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) results[i] = std::move(batch.ops_[i].row);
  return results;
}

hops::Status TxnSkeleton::Insert(TableId table, Row row, std::optional<uint64_t> pv) {
  return WriteRow(WriteKind::kInsert, table, {}, std::move(row), pv);
}

hops::Status TxnSkeleton::Update(TableId table, Row row, std::optional<uint64_t> pv) {
  return WriteRow(WriteKind::kUpdate, table, {}, std::move(row), pv);
}

hops::Status TxnSkeleton::Write(TableId table, Row row, std::optional<uint64_t> pv) {
  return WriteRow(WriteKind::kWrite, table, {}, std::move(row), pv);
}

hops::Status TxnSkeleton::Delete(TableId table, const Key& key, std::optional<uint64_t> pv) {
  return WriteRow(WriteKind::kDelete, table, key, {}, pv);
}

hops::Status TxnSkeleton::WriteRow(WriteKind kind, TableId table, Key key, Row row,
                                   std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());
  const Table& t = engine_->table(table);
  if (kind != WriteKind::kDelete) {
    assert(row.size() == t.schema.columns.size());
    key = ExtractPk(t.schema, row);
  }
  uint32_t partition;
  std::string ekey;
  HOPS_RETURN_IF_ERROR(RouteAccess(table, t, key, pv, /*abort_tx=*/true, partition, ekey));
  HOPS_ASSIGN_OR_RETURN(pays, ClaimWrite(table, partition, ekey, kind == WriteKind::kWrite));
  HOPS_RETURN_IF_ERROR(
      Stage(kind, table, t, partition, ekey, std::move(row), /*ignore_missing=*/false).status());
  RecordAccess(AccessKind::kPkWrite, table, {Touch(partition, 1)}, pays ? 1 : 0);
  return hops::Status::Ok();
}

bool TxnSkeleton::RowExists(TableId table, uint32_t partition, const std::string& ekey) {
  auto staged = write_set_.find({table, ekey});
  if (staged != write_set_.end()) return !staged->second.is_delete;
  return CommittedExists(table, partition, ekey);
}

hops::Result<uint32_t> TxnSkeleton::Stage(WriteKind kind, TableId table, const Table& t,
                                          uint32_t partition, const std::string& ekey, Row row,
                                          bool ignore_missing) {
  switch (kind) {
    case WriteKind::kInsert:
      if (RowExists(table, partition, ekey)) {
        return ExistenceCheckFailed(table, partition, ekey,
                                    hops::Status::AlreadyExists(t.schema.table_name));
      }
      break;
    case WriteKind::kUpdate:
    case WriteKind::kDelete:
      if (!RowExists(table, partition, ekey)) {
        if (kind == WriteKind::kUpdate || !ignore_missing) {
          return ExistenceCheckFailed(table, partition, ekey,
                                      hops::Status::NotFound(t.schema.table_name));
        }
        // A tolerated delete of an absent row stages nothing, but its claim
        // and probe still touched the partition.
        return 0u;
      }
      break;
    case WriteKind::kWrite:
      break;
  }
  write_set_[{table, ekey}] = StagedWrite{kind == WriteKind::kDelete, std::move(row), partition};
  return 1u;
}

void TxnSkeleton::UnlockRow(TableId table, const Key& key, std::optional<uint64_t> pv) {
  (void)FlushPending();  // the claim to drop may still be in the pipeline
  if (state_ != State::kActive) return;
  auto routed = engine_->Route(engine_->table(table), key, pv);
  if (!routed.ok()) return;
  std::string ekey = EncodeKey(key);
  if (Staged(table, ekey)) return;  // the claim guards a staged write
  ReleaseRow(table, *routed, ekey);
}

// --- Pipelined batch windows -------------------------------------------------------
//
// ExecuteAsync only *prepares* a batch (NDB's executeAsynchPrepare); the
// in-flight window executes as one overlapped round trip at the next flush
// point (sendPollNdb): a Wait(), a synchronous operation, Commit(), or the
// window filling up. The flush routes every op of every member batch, lets
// the backend claim the window's rows (ClaimWindow), then runs each batch's
// data work in preparation order (read-your-writes across the pipeline).

uint64_t TxnSkeleton::PrepareAsync(ReadBatch* read, WriteBatch* write) {
  const uint64_t seq = next_batch_seq_++;
  bool& executed = read != nullptr ? read->executed_ : write->executed_;
  if (executed) {
    batch_results_[seq] = hops::Status::InvalidArgument("batch already executed");
    return seq;
  }
  executed = true;
  if (state_ != State::kActive) {
    batch_results_[seq] = hops::Status::TxAborted("transaction is not active");
    return seq;
  }
  if (read != nullptr ? read->ops_.empty() : write->ops_.empty()) {
    batch_results_[seq] = hops::Status::Ok();
    return seq;
  }
  // A kStagedOrder batch flushes as its OWN window: under 2PL its
  // externally-ordered lock waits must not interleave with other members'
  // (which would void both its order guarantee and the window's global-order
  // guarantee). Every backend keeps the same flush boundaries, so their
  // round-trip accounting stays comparable.
  const bool staged_order =
      read != nullptr && read->lock_order() == BatchLockOrder::kStagedOrder;
  if (staged_order) (void)FlushPending();
  in_flight_.push_back(InFlightBatch{seq, read, write});
  if (staged_order || in_flight_.size() >= engine_->config().max_in_flight_batches) {
    (void)FlushPending();  // outcomes wait in batch_results_
  }
  return seq;
}

hops::Status TxnSkeleton::WaitBatch(uint64_t seq) {
  auto it = batch_results_.find(seq);
  if (it != batch_results_.end()) return it->second;
  for (const auto& f : in_flight_) {
    if (f.seq != seq) continue;
    (void)FlushPending();
    auto flushed = batch_results_.find(seq);
    assert(flushed != batch_results_.end() && "flush must deliver every in-flight outcome");
    return flushed->second;
  }
  return hops::Status::InvalidArgument("unknown batch handle");
}

hops::Status TxnSkeleton::FlushPending() {
  if (in_flight_.empty()) return hops::Status::Ok();
  std::vector<InFlightBatch> flight = std::move(in_flight_);
  in_flight_.clear();

  auto fail_window = [&](const hops::Status& st) {
    for (const auto& f : flight) batch_results_[f.seq] = st;
  };

  // Phase 1: route every op of every member batch; no data is touched yet.
  // A routing failure (bad key, unavailable node group, injected fault)
  // fails the window before anything is claimed, so every member reports
  // the same cause; the window owns the cleanup, so nothing aborts here.
  for (const auto& f : flight) {
    hops::Status st;
    if (f.read != nullptr) {
      for (auto& op : f.read->ops_) {
        st = RouteAccess(op.table, engine_->table(op.table), op.key, op.pv,
                         /*abort_tx=*/false, op.partition, op.ekey);
        if (!st.ok()) break;
      }
    } else {
      for (auto& op : f.write->ops_) {
        const Table& t = engine_->table(op.table);
        if (op.kind != WriteKind::kDelete) {
          assert(op.row.size() == t.schema.columns.size());
          op.key = ExtractPk(t.schema, op.row);
        }
        st = RouteAccess(op.table, t, op.key, op.pv, /*abort_tx=*/false, op.partition, op.ekey);
        if (!st.ok()) break;
      }
    }
    if (!st.ok()) {
      fail_window(st);
      return st;
    }
  }

  // Phase 2: the backend claims the window's rows.
  std::vector<bool> pays(flight.size(), false);
  bool fresh = false;
  if (hops::Status st = ClaimWindow(flight, pays, fresh); !st.ok()) {
    fail_window(st);
    return st;
  }

  // Phase 3: each member's data work, in preparation order -- later batches
  // observe earlier members' staged writes. The first failure stops the
  // window; members behind it report kTxAborted (their work never ran).
  std::vector<Access> accesses;
  size_t sync_equiv = 0;  // trips the members that ran would have paid alone
  bool ran_reads = false;
  hops::Status first_error;
  for (size_t i = 0; i < flight.size(); ++i) {
    hops::Status st;
    bool member_pays = pays[i];
    if (flight[i].read != nullptr) {
      ran_reads = member_pays = true;  // a read batch always pays its trip
      st = RunReadBatchData(*flight[i].read, accesses);
    } else {
      bool data_fresh = false;
      st = RunWriteBatchData(*flight[i].write, accesses, data_fresh);
      member_pays |= data_fresh;
      fresh |= data_fresh;
    }
    batch_results_[flight[i].seq] = st;
    if (member_pays) sync_equiv++;
    if (!st.ok()) {
      first_error = st;
      if (pipeline_error_.ok()) pipeline_error_ = st;
      for (size_t j = i + 1; j < flight.size(); ++j) {
        batch_results_[flight[j].seq] =
            hops::Status::TxAborted("a preceding batch in the flush window failed");
      }
      break;
    }
  }

  // Accounting: the whole window is ONE overlapped round trip (cost max,
  // not sum, of the member trips). A pure-write window whose rows were all
  // already claimed piggybacks for free, as a lone WriteBatch does; the trips
  // the synchronous path would have paid beyond that one are recorded in
  // overlapped_round_trips, keeping cost.h's invariant that round_trips +
  // overlapped_round_trips is the sync-equivalent trip count.
  const uint32_t rt = ran_reads || fresh ? 1 : 0;
  if (!accesses.empty()) accesses.front().round_trips = rt;
  auto& s = stats();
  s.round_trips.fetch_add(rt, std::memory_order_relaxed);
  if (rt > 0 && sync_equiv > rt) {
    s.overlapped_round_trips.fetch_add(sync_equiv - rt, std::memory_order_relaxed);
  }
  if (trace_enabled_) {
    for (auto& a : accesses) {
      a.background = background_;
      trace_.accesses.push_back(std::move(a));
    }
  }
  return first_error;
}

hops::Status TxnSkeleton::RunReadBatchData(ReadBatch& batch, std::vector<Access>& accesses) {
  const size_t first = accesses.size();
  uint64_t scans = 0;
  for (auto& op : batch.ops_) {
    if (op.kind == ReadBatch::Op::Kind::kGet) {
      auto staged = write_set_.find({op.table, op.ekey});
      if (staged != write_set_.end()) {
        if (!staged->second.is_delete) op.row = staged->second.row;
      } else {
        HOPS_ASSIGN_OR_RETURN(row, ReadRow(op.table, op.partition, op.ekey, op.mode));
        op.row = std::move(row);
      }
      MergeTouch(AccessFor(accesses, first, AccessKind::kBatchRead, op.table).parts,
                 Touch(op.partition, 1));
    } else {
      // Each pruned scan is its own access.
      uint32_t examined = 0;
      HOPS_ASSIGN_OR_RETURN(
          rows, ScanOnePartition(op.table, op.partition, op.ekey, op.opts, &examined));
      op.rows = std::move(rows);
      scans++;
      Access a;
      a.kind = AccessKind::kPpis;
      a.table = op.table;
      a.round_trips = 0;
      a.parts.push_back(Touch(op.partition, examined));
      accesses.push_back(std::move(a));
    }
  }

  uint64_t rows_read = 0;
  for (size_t i = first; i < accesses.size(); ++i) rows_read += accesses[i].TotalRows();
  auto& s = stats();
  s.batch_reads.fetch_add(1, std::memory_order_relaxed);
  // Pruned scans riding in a batch still count as pruned scans, so per-op
  // and batched code paths stay comparable in the counters.
  s.ppis_scans.fetch_add(scans, std::memory_order_relaxed);
  s.rows_read.fetch_add(rows_read, std::memory_order_relaxed);
  return hops::Status::Ok();
}

hops::Status TxnSkeleton::RunWriteBatchData(WriteBatch& batch, std::vector<Access>& accesses,
                                            bool& fresh) {
  // Validate and stage in staging order (the later op wins on duplicate
  // keys, matching a sequence of individual calls). A claim's cost is judged
  // at the op's own turn, as sequential execution would judge it.
  const size_t first = accesses.size();
  for (auto& op : batch.ops_) {
    HOPS_ASSIGN_OR_RETURN(
        pays, ClaimWrite(op.table, op.partition, op.ekey, op.kind == WriteKind::kWrite));
    fresh |= pays;
    HOPS_ASSIGN_OR_RETURN(staged_rows, Stage(op.kind, op.table, engine_->table(op.table),
                                             op.partition, op.ekey, op.row, op.ignore_missing));
    // Tolerated deletes of absent rows appear with 0 rows, keeping the trace
    // consistent with the round trip the flush charges.
    MergeTouch(AccessFor(accesses, first, AccessKind::kPkWrite, op.table).parts,
               Touch(op.partition, staged_rows));
  }
  stats().batch_writes.fetch_add(1, std::memory_order_relaxed);
  return hops::Status::Ok();
}

// --- Scans ---------------------------------------------------------------------------

hops::Result<std::vector<Row>> TxnSkeleton::ScanOnePartition(TableId table, uint32_t partition,
                                                             const std::string& eprefix,
                                                             const ScanOptions& opts,
                                                             uint32_t* examined) {
  // The committed candidates merged in key order with this transaction's
  // staged writes under the same prefix (read-your-writes): a staged write
  // shadows the committed row of its key, and a staged delete drops it.
  CommittedRows committed = CommittedRange(table, partition, eprefix, opts);
  auto staged = write_set_.lower_bound({table, eprefix});
  auto staged_in_range = [&] {
    for (; staged != write_set_.end(); ++staged) {
      const auto& [wt, wekey] = staged->first;
      if (wt != table || wekey.compare(0, eprefix.size(), eprefix) != 0) return false;
      if (staged->second.partition == partition) return true;
    }
    return false;
  };

  std::vector<Row> results;
  results.reserve(committed.size());
  auto next = committed.begin();
  for (;;) {
    const bool have_staged = staged_in_range();
    if (!have_staged && next == committed.end()) break;
    const std::string* ekey;
    Row row;
    if (have_staged && (next == committed.end() || staged->first.second <= next->first)) {
      if (next != committed.end() && next->first == staged->first.second) ++next;
      const StagedWrite& write = staged->second;
      ekey = &staged->first.second;
      ++staged;
      if (write.is_delete) continue;
      row = write.row;
    } else {
      ekey = &next->first;
      row = std::move(next->second);
      ++next;
    }
    (*examined)++;
    if (!RowMatches(row, opts)) continue;
    if (opts.lock != LockMode::kReadCommitted) {
      HOPS_ASSIGN_OR_RETURN(keep, HoldScanRow(table, partition, *ekey, opts, row));
      if (!keep) continue;
    }
    results.push_back(std::move(row));
  }
  return results;
}

hops::Result<std::vector<Row>> TxnSkeleton::ScanPartitions(
    TableId table, const std::vector<uint32_t>& partitions, const Key& prefix,
    const ScanOptions& opts, AccessKind kind, bool full_scan) {
  const std::string eprefix = full_scan ? std::string() : EncodeKey(prefix);
  HOPS_RETURN_IF_ERROR(InjectFault(table, /*abort_tx=*/false));

  std::vector<Row> results;
  std::vector<PartTouch> touches;
  touches.reserve(partitions.size());
  for (uint32_t partition : partitions) {
    HOPS_RETURN_IF_ERROR(CheckUsable(partition));
    uint32_t examined = 0;
    HOPS_ASSIGN_OR_RETURN(part_rows,
                          ScanOnePartition(table, partition, eprefix, opts, &examined));
    for (auto& row : part_rows) results.push_back(std::move(row));
    touches.push_back(Touch(partition, examined));
  }
  RecordAccess(kind, table, std::move(touches), /*round_trips=*/1);
  return results;
}

std::vector<uint32_t> TxnSkeleton::AllPartitions() const {
  std::vector<uint32_t> all(engine_->num_partitions());
  for (uint32_t p = 0; p < all.size(); ++p) all[p] = p;
  return all;
}

hops::Result<std::vector<Row>> TxnSkeleton::Ppis(TableId table, const Key& prefix,
                                                 const ScanOptions& opts,
                                                 std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());
  HOPS_ASSIGN_OR_RETURN(partition, engine_->Route(engine_->table(table), prefix, pv));
  return ScanPartitions(table, {partition}, prefix, opts, AccessKind::kPpis,
                        /*full_scan=*/false);
}

hops::Result<std::vector<Row>> TxnSkeleton::IndexScan(TableId table, const Key& prefix,
                                                      const ScanOptions& opts) {
  HOPS_RETURN_IF_ERROR(FlushPending());
  return ScanPartitions(table, AllPartitions(), prefix, opts, AccessKind::kIndexScan,
                        /*full_scan=*/prefix.empty());
}

hops::Result<std::vector<Row>> TxnSkeleton::FullTableScan(TableId table,
                                                          const ScanOptions& opts) {
  HOPS_RETURN_IF_ERROR(FlushPending());
  return ScanPartitions(table, AllPartitions(), {}, opts, AccessKind::kFullTableScan,
                        /*full_scan=*/true);
}

// --- Outcome -------------------------------------------------------------------------

hops::Status TxnSkeleton::Commit() {
  // Commit is a flush point: a failed batch -- in flight, or already
  // auto-flushed in a window the caller never Waited on -- fails the commit
  // with its own cause, since its writes are partially staged.
  hops::Status flush = FlushPending();
  if (flush.ok()) flush = pipeline_error_;
  if (!flush.ok()) {
    if (state_ == State::kActive) Abort();
    return flush;
  }
  if (state_ != State::kActive) return hops::Status::TxAborted("transaction is not active");
  if (!engine_->IsAlive(coordinator_)) {
    Abort();
    return hops::Status::TxAborted("transaction coordinator failed");
  }
  // A commit-time fault aborts before any staged write applies -- the clean
  // pre-prepare abort window a real TC failure would hit.
  if (!write_set_.empty()) {
    HOPS_RETURN_IF_ERROR(InjectFault(FaultInjector::kAllTables, /*abort_tx=*/true));
  }

  // Prepare: every participating partition must be available.
  for (const auto& [tk, staged] : write_set_) {
    if (!engine_->PartitionAvailable(staged.partition)) {
      Abort();
      return hops::Status::Unavailable("participant node group is down");
    }
  }

  // A read-only transaction has nothing to install: its commit ack
  // piggybacks on the last read and costs no extra round trips. Otherwise
  // the install costs the two 2PC trips (prepare/validate, commit).
  std::vector<PartTouch> touches;
  if (!write_set_.empty()) {
    if (hops::Status st = InstallWriteSet(); !st.ok()) {
      Abort();
      return st;
    }
    for (const auto& [tk, staged] : write_set_) MergeTouch(touches, Touch(staged.partition, 1));
  }
  RecordAccess(AccessKind::kCommit, 0, std::move(touches), write_set_.empty() ? 0 : 2);

  ReleaseAll();
  write_set_.clear();
  state_ = State::kCommitted;

  uint64_t commits = stats().commits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (commits % EngineSkeleton::kGlobalCheckpointCommits == 0) {
    engine_->gcp_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  return hops::Status::Ok();
}

void TxnSkeleton::Abort() {
  if (state_ != State::kActive) return;
  // Batches still in flight never execute; their handles report the abort.
  for (const auto& f : in_flight_) {
    batch_results_.emplace(f.seq,
                           hops::Status::TxAborted("transaction aborted before the batch flushed"));
  }
  in_flight_.clear();
  ReleaseAll();
  write_set_.clear();
  state_ = State::kAborted;
  stats().aborts.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace hops::kv
