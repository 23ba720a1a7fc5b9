// Transaction execution: row locks acquired eagerly, writes staged in the
// transaction and applied atomically per partition at commit (2PC), scans
// that merge the transaction's own staged writes (read-your-writes), and
// take-and-release lock scans used by the subtree quiesce protocol.
#include <algorithm>
#include <cassert>
#include <set>
#include <tuple>

#include "ndb/cluster.h"

namespace hops::ndb {

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
void MergeTouch(std::vector<PartTouch>& parts, uint32_t partition, uint32_t rows,
                uint32_t node, bool local) {
  for (auto& pt : parts) {
    if (pt.partition == partition) {
      pt.rows += rows;
      return;
    }
  }
  parts.push_back(PartTouch{partition, node, rows, local});
}

bool RowMatches(const Row& row, const Transaction::ScanOptions& opts) {
  if (opts.eq_filter) {
    const auto& [col, value] = *opts.eq_filter;
    if (col >= row.size() || !(row[col] == value)) return false;
  }
  if (opts.predicate && !opts.predicate(row)) return false;
  return true;
}

}  // namespace

Transaction::Transaction(Cluster* cluster, TxId id, uint32_t coordinator)
    : cluster_(cluster), id_(id), coordinator_(coordinator) {
  trace_.coordinator_node = coordinator;
}

Transaction::~Transaction() {
  if (state_ == State::kActive) Abort();
}

hops::Status Transaction::CheckUsable(uint32_t partition) {
  if (state_ != State::kActive) {
    return hops::Status::TxAborted("transaction is not active");
  }
  if (!cluster_->IsAlive(coordinator_)) {
    // Coordinator failover: NDB hands transactions of a failed TC to another
    // coordinator by aborting them; the namenode retries (paper §7.6.2).
    Abort();
    return hops::Status::TxAborted("transaction coordinator failed");
  }
  if (!cluster_->PartitionAvailable(partition)) {
    Abort();
    return hops::Status::Unavailable("entire node group for partition is down");
  }
  return hops::Status::Ok();
}

hops::Status Transaction::InjectFault(TableId table, bool abort_tx) {
  FaultInjector& injector = cluster_->fault_injector_;
  if (!injector.armed()) return hops::Status::Ok();
  hops::Status st = injector.OnAccess(table);
  if (!st.ok() && abort_tx && state_ == State::kActive) Abort();
  return st;
}

hops::Status Transaction::AcquireRowLock(TableId table, uint32_t partition,
                                         const std::string& ekey, LockMode mode) {
  if (mode == LockMode::kReadCommitted) return hops::Status::Ok();
  auto key = std::make_tuple(table, partition, ekey);
  auto it = held_locks_.find(key);
  if (it != held_locks_.end() &&
      (it->second == LockMode::kExclusive || it->second == mode)) {
    return hops::Status::Ok();  // already hold a lock at least this strong
  }
  auto deadline = std::chrono::steady_clock::now() + cluster_->config().lock_wait_timeout;
  Partition& p = *cluster_->table(table).partitions[partition];
  bool waited = false;
  hops::Status st = p.AcquireLock(id_, ekey, mode, deadline, &waited);
  if (waited) cluster_->stats_.lock_waits.fetch_add(1, std::memory_order_relaxed);
  if (!st.ok()) {
    cluster_->stats_.lock_timeouts.fetch_add(1, std::memory_order_relaxed);
    Abort();  // NDB aborts the transaction whose lock wait times out
    return st;
  }
  held_locks_[key] = mode;
  return hops::Status::Ok();
}

void Transaction::RecordAccess(AccessKind kind, TableId table,
                               std::initializer_list<PartTouch> parts, uint32_t round_trips) {
  RecordAccess(kind, table, std::vector<PartTouch>(parts), round_trips);
}

void Transaction::RecordAccess(AccessKind kind, TableId table, std::vector<PartTouch> parts,
                               uint32_t round_trips) {
  uint64_t rows = 0;
  for (const auto& p : parts) rows += p.rows;
  auto& s = cluster_->stats_;
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

hops::Result<Row> Transaction::Read(TableId table, const Key& key, LockMode mode,
                                    std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());  // per-row ops order after the pipeline
  const Cluster::Table& t = cluster_->table(table);
  HOPS_ASSIGN_OR_RETURN(partition, cluster_->Route(t, key, pv));
  HOPS_RETURN_IF_ERROR(CheckUsable(partition));
  HOPS_RETURN_IF_ERROR(InjectFault(table, /*abort_tx=*/true));
  std::string ekey = EncodeKey(key);
  HOPS_RETURN_IF_ERROR(AcquireRowLock(table, partition, ekey, mode));

  uint32_t node = cluster_->PrimaryNode(partition).value_or(coordinator_);
  RecordAccess(AccessKind::kPkRead, table,
               {PartTouch{partition, node, 1, node == coordinator_}});

  auto staged = write_set_.find({table, ekey});
  if (staged != write_set_.end()) {
    if (staged->second.is_delete) return hops::Status::NotFound();
    return staged->second.row;
  }
  auto committed = t.partitions[partition]->Get(ekey);
  if (!committed) return hops::Status::NotFound();
  return *std::move(committed);
}

hops::Result<std::vector<std::optional<Row>>> Transaction::BatchRead(
    TableId table, const std::vector<Key>& keys, LockMode mode,
    const std::vector<uint64_t>* pvs) {
  assert(pvs == nullptr || pvs->size() == keys.size());
  ReadBatch batch;
  for (size_t i = 0; i < keys.size(); ++i) {
    batch.Get(table, keys[i], mode,
              pvs ? std::optional<uint64_t>((*pvs)[i]) : std::nullopt);
  }
  HOPS_RETURN_IF_ERROR(Execute(batch));
  std::vector<std::optional<Row>> results(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) results[i] = std::move(batch.ops_[i].row);
  return results;
}

void Transaction::UnlockRow(TableId table, const Key& key, std::optional<uint64_t> pv) {
  (void)FlushPending();  // the lock to drop may still be in the pipeline
  if (state_ != State::kActive) return;
  const Cluster::Table& t = cluster_->table(table);
  auto routed = cluster_->Route(t, key, pv);
  if (!routed.ok()) return;
  const uint32_t partition = *routed;
  std::string ekey = EncodeKey(key);
  if (write_set_.count({table, ekey})) return;  // the lock guards a staged write
  auto it = held_locks_.find(std::make_tuple(table, partition, ekey));
  if (it == held_locks_.end()) return;
  t.partitions[partition]->ReleaseLock(id_, ekey);
  held_locks_.erase(it);
}

hops::Status Transaction::AcquireLockSet(std::vector<LockRequest> requests,
                                         uint32_t* fresh_locks) {
  // Global deadlock-free order: (table, partition, encoded key). Every batch
  // walks its lock set in this order, so for any two batches the rows they
  // both want are requested in the same sequence and one simply waits for
  // the other -- no cycle, no reliance on the lock-wait timeout.
  std::sort(requests.begin(), requests.end(), [](const LockRequest& a, const LockRequest& b) {
    return std::tie(a.table, a.partition, a.ekey) < std::tie(b.table, b.partition, b.ekey);
  });
  uint32_t fresh = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    LockRequest& req = requests[i];
    // Collapse duplicate rows to the strongest requested mode.
    while (i + 1 < requests.size() && requests[i + 1].table == req.table &&
           requests[i + 1].partition == req.partition && requests[i + 1].ekey == req.ekey) {
      if (requests[i + 1].mode == LockMode::kExclusive) req.mode = LockMode::kExclusive;
      else if (req.mode == LockMode::kReadCommitted) req.mode = requests[i + 1].mode;
      ++i;
    }
    if (req.mode == LockMode::kReadCommitted) continue;
    auto held = held_locks_.find(std::make_tuple(req.table, req.partition, req.ekey));
    bool covered = held != held_locks_.end() &&
                   (held->second == LockMode::kExclusive || held->second == req.mode);
    if (!covered) fresh++;
    HOPS_RETURN_IF_ERROR(AcquireRowLock(req.table, req.partition, req.ekey, req.mode));
  }
  if (fresh_locks != nullptr) *fresh_locks = fresh;
  return hops::Status::Ok();
}

// --- Pipelined batch engine --------------------------------------------------
//
// ExecuteAsync only *prepares* a batch (NDB's executeAsynchPrepare); the
// in-flight window executes as one overlapped round trip at the next flush
// point (sendPollNdb): a Wait(), a synchronous operation, Commit(), or the
// window filling up. The flush routes every op of every member batch, takes
// the combined lock set in the global order (deadlock freedom across
// in-flight batches), then runs each batch's data work in preparation order
// (read-your-writes across the pipeline).

bool PendingBatch::done() const { return tx_ != nullptr && tx_->BatchDone(seq_); }

hops::Status PendingBatch::Wait() {
  if (tx_ == nullptr) return hops::Status::InvalidArgument("empty batch handle");
  return tx_->WaitBatch(seq_);
}

PendingBatch Transaction::PrepareBatch(ReadBatch* read, WriteBatch* write) {
  const uint64_t seq = next_batch_seq_++;
  bool& executed = read != nullptr ? read->executed_ : write->executed_;
  if (executed) {
    batch_results_[seq] = hops::Status::InvalidArgument("batch already executed");
    return PendingBatch(this, seq);
  }
  executed = true;
  if (state_ != State::kActive) {
    batch_results_[seq] = hops::Status::TxAborted("transaction is not active");
    return PendingBatch(this, seq);
  }
  if (read != nullptr ? read->ops_.empty() : write->ops_.empty()) {
    batch_results_[seq] = hops::Status::Ok();
    return PendingBatch(this, seq);
  }
  // A kStagedOrder batch flushes as its OWN window: its externally-ordered
  // lock waits must not interleave with other members' (which would void
  // both its order guarantee and the window's global-order guarantee).
  const bool staged_order =
      read != nullptr && read->lock_order() == BatchLockOrder::kStagedOrder;
  if (staged_order) (void)FlushPending();
  in_flight_.push_back(InFlightBatch{seq, read, write});
  if (staged_order || in_flight_.size() >= cluster_->config().max_in_flight_batches) {
    (void)FlushPending();  // outcomes wait in batch_results_
  }
  return PendingBatch(this, seq);
}

PendingBatch Transaction::ExecuteAsync(ReadBatch& batch) { return PrepareBatch(&batch, nullptr); }

PendingBatch Transaction::ExecuteAsync(WriteBatch& batch) { return PrepareBatch(nullptr, &batch); }

hops::Status Transaction::Execute(ReadBatch& batch) { return ExecuteAsync(batch).Wait(); }

hops::Status Transaction::Execute(WriteBatch& batch) { return ExecuteAsync(batch).Wait(); }

hops::Status Transaction::WaitBatch(uint64_t seq) {
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

hops::Status Transaction::RouteReadBatch(ReadBatch& batch, std::vector<LockRequest>& plan) {
  for (auto& op : batch.ops_) {
    const Cluster::Table& t = cluster_->table(op.table);
    HOPS_ASSIGN_OR_RETURN(partition, cluster_->Route(t, op.key, op.pv));
    op.partition = partition;
    HOPS_RETURN_IF_ERROR(CheckUsable(partition));
    // A routing-stage fault fails the whole flush window through the
    // existing pipeline error path (no abort here; the window owns cleanup).
    HOPS_RETURN_IF_ERROR(InjectFault(op.table, /*abort_tx=*/false));
    op.ekey = EncodeKey(op.key);
    if (op.kind == ReadBatch::Op::Kind::kGet && op.mode != LockMode::kReadCommitted) {
      plan.push_back(LockRequest{op.table, partition, op.ekey, op.mode});
    }
  }
  return hops::Status::Ok();
}

hops::Status Transaction::RouteWriteBatch(WriteBatch& batch, std::vector<LockRequest>& plan) {
  plan.reserve(plan.size() + batch.ops_.size());
  for (auto& op : batch.ops_) {
    const Cluster::Table& t = cluster_->table(op.table);
    if (op.kind != WriteBatch::Op::Kind::kDelete) {
      assert(op.row.size() == t.schema.columns.size());
      op.key = ExtractPk(t.schema, op.row);
    }
    HOPS_ASSIGN_OR_RETURN(partition, cluster_->Route(t, op.key, op.pv));
    op.partition = partition;
    HOPS_RETURN_IF_ERROR(CheckUsable(partition));
    HOPS_RETURN_IF_ERROR(InjectFault(op.table, /*abort_tx=*/false));
    op.ekey = EncodeKey(op.key);
    plan.push_back(LockRequest{op.table, partition, op.ekey, LockMode::kExclusive});
  }
  return hops::Status::Ok();
}

hops::Status Transaction::RunReadBatchData(ReadBatch& batch, std::vector<Access>& accesses) {
  // Execute in staging order. Gets of the same table aggregate into one
  // logical access; each pruned scan is its own access. Accesses are
  // appended with round_trips = 0; the flush assigns the carrying trip to
  // the window's first access. Aggregation never crosses batch boundaries,
  // so a trace still shows the pipeline's structure.
  const size_t first = accesses.size();
  auto get_access_for = [&](TableId table) -> Access& {
    for (size_t i = first; i < accesses.size(); ++i) {
      if (accesses[i].kind == AccessKind::kBatchRead && accesses[i].table == table) {
        return accesses[i];
      }
    }
    Access a;
    a.kind = AccessKind::kBatchRead;
    a.table = table;
    a.round_trips = 0;
    accesses.push_back(std::move(a));
    return accesses.back();
  };
  auto touch = [&](Access& a, uint32_t partition, uint32_t rows) {
    uint32_t node = cluster_->PrimaryNode(partition).value_or(coordinator_);
    MergeTouch(a.parts, partition, rows, node, node == coordinator_);
  };

  uint64_t scans = 0;
  for (auto& op : batch.ops_) {
    if (op.kind == ReadBatch::Op::Kind::kGet) {
      auto staged = write_set_.find({op.table, op.ekey});
      if (staged != write_set_.end()) {
        if (!staged->second.is_delete) op.row = staged->second.row;
      } else if (auto committed =
                     cluster_->table(op.table).partitions[op.partition]->Get(op.ekey)) {
        op.row = *std::move(committed);
      }
      touch(get_access_for(op.table), op.partition, 1);
    } else {
      uint32_t examined = 0;
      HOPS_ASSIGN_OR_RETURN(
          rows, ScanOnePartition(op.table, op.partition, op.ekey, op.opts, &examined));
      op.rows = std::move(rows);
      scans++;
      Access a;
      a.kind = AccessKind::kPpis;
      a.table = op.table;
      a.round_trips = 0;
      accesses.push_back(std::move(a));
      touch(accesses.back(), op.partition, examined);
    }
  }

  uint64_t rows_read = 0;
  for (size_t i = first; i < accesses.size(); ++i) rows_read += accesses[i].TotalRows();
  auto& s = cluster_->stats_;
  s.batch_reads.fetch_add(1, std::memory_order_relaxed);
  // Pruned scans riding in a batch still count as pruned scans, so per-op
  // and batched code paths stay comparable in the cluster counters.
  s.ppis_scans.fetch_add(scans, std::memory_order_relaxed);
  s.rows_read.fetch_add(rows_read, std::memory_order_relaxed);
  return hops::Status::Ok();
}

hops::Status Transaction::RunWriteBatchData(WriteBatch& batch, std::vector<Access>& accesses) {
  // Validate and stage in staging order (the later op wins on duplicate
  // keys, matching a sequence of individual calls).
  const size_t first = accesses.size();
  auto access_for = [&](TableId table) -> Access& {
    for (size_t i = first; i < accesses.size(); ++i) {
      if (accesses[i].kind == AccessKind::kPkWrite && accesses[i].table == table) {
        return accesses[i];
      }
    }
    Access a;
    a.kind = AccessKind::kPkWrite;
    a.table = table;
    a.round_trips = 0;
    accesses.push_back(std::move(a));
    return accesses.back();
  };
  for (auto& op : batch.ops_) {
    const Cluster::Table& t = cluster_->table(op.table);
    auto staged = write_set_.find({op.table, op.ekey});
    bool exists = staged != write_set_.end() ? !staged->second.is_delete
                                             : t.partitions[op.partition]->Contains(op.ekey);
    // Tolerated deletes of absent rows stage nothing but still probed (and
    // locked) their partition, so they appear in the access with 0 rows --
    // keeping the trace consistent with the round trip the flush charges.
    uint32_t staged_rows = 1;
    switch (op.kind) {
      case WriteBatch::Op::Kind::kInsert:
        if (exists) return hops::Status::AlreadyExists(t.schema.table_name);
        write_set_[{op.table, op.ekey}] = StagedWrite{false, op.row, op.partition};
        break;
      case WriteBatch::Op::Kind::kUpdate:
        if (!exists) return hops::Status::NotFound(t.schema.table_name);
        write_set_[{op.table, op.ekey}] = StagedWrite{false, op.row, op.partition};
        break;
      case WriteBatch::Op::Kind::kWrite:
        write_set_[{op.table, op.ekey}] = StagedWrite{false, op.row, op.partition};
        break;
      case WriteBatch::Op::Kind::kDelete:
        if (!exists) {
          if (!op.ignore_missing) return hops::Status::NotFound(t.schema.table_name);
          staged_rows = 0;
        } else {
          write_set_[{op.table, op.ekey}] = StagedWrite{true, {}, op.partition};
        }
        break;
    }
    Access& a = access_for(op.table);
    uint32_t node = cluster_->PrimaryNode(op.partition).value_or(coordinator_);
    MergeTouch(a.parts, op.partition, staged_rows, node, node == coordinator_);
  }
  cluster_->stats_.batch_writes.fetch_add(1, std::memory_order_relaxed);
  return hops::Status::Ok();
}

std::vector<bool> Transaction::ComputeWindowPays(
    const std::vector<InFlightBatch>& flight,
    const std::vector<std::vector<LockRequest>>& plans) const {
  // Which members would have paid their own round trip on the synchronous
  // path? Read batches always do; a write batch only if some lock in its
  // plan is not already exclusive-held -- by the transaction, or by an
  // earlier member of this window, exactly as sequential execution would
  // have found it. Keeps cost.h's invariant that round_trips +
  // overlapped_round_trips is the sync-equivalent trip count.
  std::vector<bool> pays(flight.size(), false);
  std::set<std::tuple<TableId, uint32_t, std::string>> covered;
  for (size_t i = 0; i < flight.size(); ++i) {
    if (flight[i].read != nullptr) {
      pays[i] = true;
    } else {
      for (const LockRequest& req : plans[i]) {
        auto key = std::make_tuple(req.table, req.partition, req.ekey);
        auto held = held_locks_.find(key);
        if ((held == held_locks_.end() || held->second != LockMode::kExclusive) &&
            covered.count(key) == 0) {
          pays[i] = true;
          break;
        }
      }
    }
    for (const LockRequest& req : plans[i]) {
      if (req.mode == LockMode::kExclusive) {
        covered.insert(std::make_tuple(req.table, req.partition, req.ekey));
      }
    }
  }
  return pays;
}

hops::Status Transaction::RunWindowData(std::vector<InFlightBatch>& flight,
                                        const std::vector<bool>& pays,
                                        std::vector<Access>& accesses, size_t* sync_equiv,
                                        size_t* read_members) {
  // Each member's data work, in preparation order -- later batches observe
  // earlier members' staged writes (read-your-writes across the pipeline).
  // The first failure stops the window; members behind it report kTxAborted
  // (their work never ran).
  *sync_equiv = 0;
  *read_members = 0;
  hops::Status first_error;
  for (size_t i = 0; i < flight.size(); ++i) {
    hops::Status st;
    if (flight[i].read != nullptr) {
      (*read_members)++;
      st = RunReadBatchData(*flight[i].read, accesses);
    } else {
      st = RunWriteBatchData(*flight[i].write, accesses);
    }
    batch_results_[flight[i].seq] = st;
    if (pays[i]) (*sync_equiv)++;
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
  return first_error;
}

hops::Status Transaction::FlushPending() {
  if (in_flight_.empty()) return hops::Status::Ok();
  std::vector<InFlightBatch> flight = std::move(in_flight_);
  in_flight_.clear();

  auto fail_window = [&](const hops::Status& st) {
    for (const auto& f : flight) batch_results_[f.seq] = st;
  };

  // Phase 1: route every op of every member batch; no data is touched yet.
  // A routing failure (bad key, unavailable node group) aborts the window
  // before any lock is taken, so every member reports the same cause.
  std::vector<std::vector<LockRequest>> plans(flight.size());
  for (size_t i = 0; i < flight.size(); ++i) {
    hops::Status st = flight[i].read != nullptr ? RouteReadBatch(*flight[i].read, plans[i])
                                                : RouteWriteBatch(*flight[i].write, plans[i]);
    if (!st.ok()) {
      fail_window(st);
      return st;
    }
  }

  std::vector<bool> pays = ComputeWindowPays(flight, plans);

  // Phase 2: acquire the whole window's lock set. The default merges every
  // member's requests into ONE sorted pass -- the global (table, partition,
  // encoded key) order holds across in-flight batches, so two transactions
  // each pipelining several batches still cannot deadlock. A kStagedOrder
  // member (rename lock phases, whose total order is the *path* order
  // shared with per-row lockers) instead acquires exactly as staged;
  // PrepareBatch isolates such a batch in its own window, so the two
  // ordering disciplines never mix within one flush.
  uint32_t fresh_locks = 0;
  hops::Status lock_st;
  const bool staged_order = flight.size() == 1 && flight[0].read != nullptr &&
                            flight[0].read->lock_order() == BatchLockOrder::kStagedOrder;
  if (!staged_order) {
    std::vector<LockRequest> combined;
    for (auto& plan : plans) {
      std::move(plan.begin(), plan.end(), std::back_inserter(combined));
    }
    lock_st = AcquireLockSet(std::move(combined), &fresh_locks);
  } else {
    for (const LockRequest& req : plans[0]) {
      if (req.mode == LockMode::kReadCommitted) continue;
      auto held = held_locks_.find(std::make_tuple(req.table, req.partition, req.ekey));
      if (held == held_locks_.end() ||
          (held->second != LockMode::kExclusive && held->second != req.mode)) {
        fresh_locks++;
      }
      lock_st = AcquireRowLock(req.table, req.partition, req.ekey, req.mode);
      if (!lock_st.ok()) break;
    }
  }
  if (!lock_st.ok()) {
    fail_window(lock_st);
    return lock_st;
  }

  // Phase 3: the window's data work.
  std::vector<Access> accesses;
  size_t sync_equiv = 0, read_members = 0;
  hops::Status first_error = RunWindowData(flight, pays, accesses, &sync_equiv, &read_members);

  // Accounting: the whole window is ONE overlapped round trip (cost max,
  // not sum, of the member trips). A pure-write window whose locks were all
  // already held piggybacks for free, as a lone WriteBatch does; the trips
  // the synchronous path would have paid beyond that one are recorded in
  // overlapped_round_trips.
  const uint32_t rt = read_members > 0 || fresh_locks > 0 ? 1 : 0;
  if (!accesses.empty()) accesses.front().round_trips = rt;
  auto& s = cluster_->stats_;
  s.round_trips.fetch_add(rt, std::memory_order_relaxed);
  if (rt > 0 && sync_equiv > rt) {
    s.overlapped_round_trips.fetch_add(sync_equiv - rt, std::memory_order_relaxed);
  }
  if (trace_enabled_) {
    for (auto& a : accesses) trace_.accesses.push_back(std::move(a));
  }
  return first_error;
}

hops::Status Transaction::Insert(TableId table, Row row, std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());

  const Cluster::Table& t = cluster_->table(table);
  assert(row.size() == t.schema.columns.size());
  Key key = ExtractPk(t.schema, row);
  HOPS_ASSIGN_OR_RETURN(partition, cluster_->Route(t, key, pv));
  HOPS_RETURN_IF_ERROR(CheckUsable(partition));
  HOPS_RETURN_IF_ERROR(InjectFault(table, /*abort_tx=*/true));
  std::string ekey = EncodeKey(key);
  bool fresh_lock = !held_locks_.count({table, partition, ekey});
  HOPS_RETURN_IF_ERROR(AcquireRowLock(table, partition, ekey, LockMode::kExclusive));

  auto staged = write_set_.find({table, ekey});
  bool exists = staged != write_set_.end() ? !staged->second.is_delete
                                           : t.partitions[partition]->Contains(ekey);
  if (exists) return hops::Status::AlreadyExists(t.schema.table_name);
  write_set_[{table, ekey}] = StagedWrite{false, std::move(row), partition};
  uint32_t node = cluster_->PrimaryNode(partition).value_or(coordinator_);
  RecordAccess(AccessKind::kPkWrite, table,
               {PartTouch{partition, node, 1, node == coordinator_}}, fresh_lock ? 1 : 0);
  return hops::Status::Ok();
}

hops::Status Transaction::Update(TableId table, Row row, std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());

  const Cluster::Table& t = cluster_->table(table);
  assert(row.size() == t.schema.columns.size());
  Key key = ExtractPk(t.schema, row);
  HOPS_ASSIGN_OR_RETURN(partition, cluster_->Route(t, key, pv));
  HOPS_RETURN_IF_ERROR(CheckUsable(partition));
  HOPS_RETURN_IF_ERROR(InjectFault(table, /*abort_tx=*/true));
  std::string ekey = EncodeKey(key);
  bool fresh_lock = !held_locks_.count({table, partition, ekey});
  HOPS_RETURN_IF_ERROR(AcquireRowLock(table, partition, ekey, LockMode::kExclusive));

  auto staged = write_set_.find({table, ekey});
  bool exists = staged != write_set_.end() ? !staged->second.is_delete
                                           : t.partitions[partition]->Contains(ekey);
  if (!exists) return hops::Status::NotFound(t.schema.table_name);
  write_set_[{table, ekey}] = StagedWrite{false, std::move(row), partition};
  uint32_t node = cluster_->PrimaryNode(partition).value_or(coordinator_);
  RecordAccess(AccessKind::kPkWrite, table,
               {PartTouch{partition, node, 1, node == coordinator_}}, fresh_lock ? 1 : 0);
  return hops::Status::Ok();
}

hops::Status Transaction::Write(TableId table, Row row, std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());

  const Cluster::Table& t = cluster_->table(table);
  assert(row.size() == t.schema.columns.size());
  Key key = ExtractPk(t.schema, row);
  HOPS_ASSIGN_OR_RETURN(partition, cluster_->Route(t, key, pv));
  HOPS_RETURN_IF_ERROR(CheckUsable(partition));
  HOPS_RETURN_IF_ERROR(InjectFault(table, /*abort_tx=*/true));
  std::string ekey = EncodeKey(key);
  bool fresh_lock = !held_locks_.count({table, partition, ekey});
  HOPS_RETURN_IF_ERROR(AcquireRowLock(table, partition, ekey, LockMode::kExclusive));
  write_set_[{table, ekey}] = StagedWrite{false, std::move(row), partition};
  uint32_t node = cluster_->PrimaryNode(partition).value_or(coordinator_);
  RecordAccess(AccessKind::kPkWrite, table,
               {PartTouch{partition, node, 1, node == coordinator_}}, fresh_lock ? 1 : 0);
  return hops::Status::Ok();
}

hops::Status Transaction::Delete(TableId table, const Key& key, std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());

  const Cluster::Table& t = cluster_->table(table);
  HOPS_ASSIGN_OR_RETURN(partition, cluster_->Route(t, key, pv));
  HOPS_RETURN_IF_ERROR(CheckUsable(partition));
  HOPS_RETURN_IF_ERROR(InjectFault(table, /*abort_tx=*/true));
  std::string ekey = EncodeKey(key);
  bool fresh_lock = !held_locks_.count({table, partition, ekey});
  HOPS_RETURN_IF_ERROR(AcquireRowLock(table, partition, ekey, LockMode::kExclusive));

  auto staged = write_set_.find({table, ekey});
  bool exists = staged != write_set_.end() ? !staged->second.is_delete
                                           : t.partitions[partition]->Contains(ekey);
  if (!exists) return hops::Status::NotFound(t.schema.table_name);
  write_set_[{table, ekey}] = StagedWrite{true, {}, partition};
  uint32_t node = cluster_->PrimaryNode(partition).value_or(coordinator_);
  RecordAccess(AccessKind::kPkWrite, table,
               {PartTouch{partition, node, 1, node == coordinator_}}, fresh_lock ? 1 : 0);
  return hops::Status::Ok();
}

hops::Result<std::vector<Row>> Transaction::ScanOnePartition(TableId table, uint32_t partition,
                                                             const std::string& eprefix,
                                                             const ScanOptions& opts,
                                                             uint32_t* examined) {
  const Cluster::Table& t = cluster_->table(table);
  Partition& p = *t.partitions[partition];

  // Snapshot the committed candidates, then overlay this transaction's
  // staged writes so the scan observes read-your-writes semantics.
  auto snapshot = p.SnapshotPrefix(eprefix);
  std::map<std::string, Row> merged;
  for (auto& [ekey, row] : snapshot) merged.emplace(std::move(ekey), std::move(row));
  for (const auto& [tk, staged] : write_set_) {
    const auto& [wt, wekey] = tk;
    if (wt != table || staged.partition != partition) continue;
    if (!eprefix.empty() && wekey.compare(0, eprefix.size(), eprefix) != 0) continue;
    if (staged.is_delete) {
      merged.erase(wekey);
    } else {
      merged[wekey] = staged.row;
    }
  }

  std::vector<Row> results;
  for (auto& [ekey, row] : merged) {
    (*examined)++;
    if (!RowMatches(row, opts)) continue;
    if (opts.lock != LockMode::kReadCommitted) {
      if (opts.take_and_release) {
        // Quiesce primitive: wait for any in-flight writer, then let go.
        auto deadline =
            std::chrono::steady_clock::now() + cluster_->config().lock_wait_timeout;
        bool already_held = held_locks_.count({table, partition, ekey}) > 0;
        hops::Status st = p.AcquireLock(id_, ekey, opts.lock, deadline);
        if (!st.ok()) {
          cluster_->stats_.lock_timeouts.fetch_add(1, std::memory_order_relaxed);
          Abort();
          return st;
        }
        if (!already_held) p.ReleaseLock(id_, ekey);
      } else {
        HOPS_RETURN_IF_ERROR(AcquireRowLock(table, partition, ekey, opts.lock));
      }
      // The row may have changed while we waited for the lock; re-read the
      // committed value (our own staged writes cannot have changed).
      if (!write_set_.count({table, ekey})) {
        auto fresh = p.Get(ekey);
        if (!fresh) continue;  // deleted while waiting
        row = *std::move(fresh);
        if (!RowMatches(row, opts)) continue;
      }
    }
    results.push_back(std::move(row));
  }
  return results;
}

hops::Result<std::vector<Row>> Transaction::ScanPartitions(
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
    uint32_t node = cluster_->PrimaryNode(partition).value_or(coordinator_);
    touches.push_back(PartTouch{partition, node, examined, node == coordinator_});
  }
  RecordAccess(kind, table, std::move(touches), /*round_trips=*/1);
  return results;
}

hops::Result<std::vector<Row>> Transaction::Ppis(TableId table, const Key& prefix,
                                                 const ScanOptions& opts,
                                                 std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());
  const Cluster::Table& t = cluster_->table(table);
  HOPS_ASSIGN_OR_RETURN(partition, cluster_->Route(t, prefix, pv));
  return ScanPartitions(table, {partition}, prefix, opts, AccessKind::kPpis,
                        /*full_scan=*/false);
}

hops::Result<std::vector<Row>> Transaction::IndexScan(TableId table, const Key& prefix,
                                                      const ScanOptions& opts) {
  HOPS_RETURN_IF_ERROR(FlushPending());
  std::vector<uint32_t> all(cluster_->num_partitions());
  for (uint32_t p = 0; p < all.size(); ++p) all[p] = p;
  return ScanPartitions(table, all, prefix, opts, AccessKind::kIndexScan,
                        /*full_scan=*/prefix.empty());
}

hops::Result<std::vector<Row>> Transaction::FullTableScan(TableId table,
                                                          const ScanOptions& opts) {
  HOPS_RETURN_IF_ERROR(FlushPending());
  std::vector<uint32_t> all(cluster_->num_partitions());
  for (uint32_t p = 0; p < all.size(); ++p) all[p] = p;
  return ScanPartitions(table, all, {}, opts, AccessKind::kFullTableScan,
                        /*full_scan=*/true);
}

hops::Status Transaction::Commit() {
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
  if (!cluster_->IsAlive(coordinator_)) {
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
    if (!cluster_->PartitionAvailable(staged.partition)) {
      Abort();
      return hops::Status::Unavailable("participant node group is down");
    }
  }

  // Commit: apply staged writes partition-atomically, in deterministic key
  // order. Cross-partition visibility during application is permitted by
  // read-committed isolation; locked readers still wait for our row locks.
  // A read-only transaction has nothing to prepare: its commit ack
  // piggybacks on the last read and costs no extra round trips.
  const uint32_t commit_round_trips = write_set_.empty() ? 0 : 2;
  std::vector<PartTouch> touches;
  for (const auto& [tk, staged] : write_set_) {
    const auto& [table_id, ekey] = tk;
    Partition& p = *cluster_->table(table_id).partitions[staged.partition];
    if (staged.is_delete) {
      p.ApplyDelete(ekey);
    } else {
      p.ApplyPut(ekey, staged.row);
    }
    uint32_t node = cluster_->PrimaryNode(staged.partition).value_or(coordinator_);
    MergeTouch(touches, staged.partition, 1, node, node == coordinator_);
  }
  RecordAccess(AccessKind::kCommit, 0, std::move(touches), commit_round_trips);

  // Release all row locks.
  for (const auto& [lk, mode] : held_locks_) {
    const auto& [table_id, partition, ekey] = lk;
    cluster_->table(table_id).partitions[partition]->ReleaseLock(id_, ekey);
  }
  held_locks_.clear();
  write_set_.clear();
  state_ = State::kCommitted;

  uint64_t commits = cluster_->stats_.commits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (commits % Cluster::kGlobalCheckpointCommits == 0) {
    cluster_->gcp_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  return hops::Status::Ok();
}

void Transaction::Abort() {
  if (state_ != State::kActive) return;
  // Batches still in flight never execute; their handles report the abort.
  for (const auto& f : in_flight_) {
    batch_results_.emplace(f.seq,
                           hops::Status::TxAborted("transaction aborted before the batch flushed"));
  }
  in_flight_.clear();
  for (const auto& [lk, mode] : held_locks_) {
    const auto& [table_id, partition, ekey] = lk;
    cluster_->table(table_id).partitions[partition]->ReleaseLock(id_, ekey);
  }
  held_locks_.clear();
  write_set_.clear();
  state_ = State::kAborted;
  cluster_->stats_.aborts.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace hops::ndb
