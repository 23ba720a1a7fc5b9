// OCC transaction execution: lock-free validated reads, client-side staged
// writes, and serialized commit-time validation + install. The control flow
// deliberately mirrors ndb::Transaction step for step (route -> usability ->
// fault injection -> access accounting -> data work) so the two backends
// differ only in their concurrency mechanism, not in cost bookkeeping or
// failure surfaces.
#include "kv/occ_engine.h"

#include <algorithm>
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

bool RowMatches(const Row& row, const ScanOptions& opts) {
  if (opts.eq_filter) {
    const auto& [col, value] = *opts.eq_filter;
    if (col >= row.size() || !(row[col] == value)) return false;
  }
  if (opts.predicate && !opts.predicate(row)) return false;
  return true;
}

size_t RowBytes(const std::string& ekey, const Row& row) {
  size_t n = ekey.size();
  for (const auto& v : row) n += v.FootprintBytes();
  return n;
}

}  // namespace

// --- OccTxn ------------------------------------------------------------------

OccTxn::OccTxn(OccEngine* engine, TxId id, uint32_t coordinator)
    : engine_(engine), id_(id), coordinator_(coordinator) {
  trace_.coordinator_node = coordinator;
}

OccTxn::~OccTxn() {
  if (state_ == State::kActive) Abort();
}

hops::Status OccTxn::CheckUsable(uint32_t partition) {
  if (state_ != State::kActive) {
    return hops::Status::TxAborted("transaction is not active");
  }
  if (!engine_->IsAlive(coordinator_)) {
    Abort();
    return hops::Status::TxAborted("transaction coordinator failed");
  }
  if (!engine_->PartitionAvailable(partition)) {
    Abort();
    return hops::Status::Unavailable("entire node group for partition is down");
  }
  return hops::Status::Ok();
}

hops::Status OccTxn::InjectFault(TableId table, bool abort_tx) {
  FaultInjector& injector = engine_->fault_injector_;
  if (!injector.armed()) return hops::Status::Ok();
  hops::Status st = injector.OnAccess(table);
  if (!st.ok() && abort_tx && state_ == State::kActive) Abort();
  return st;
}

void OccTxn::RecordAccess(AccessKind kind, TableId table, std::vector<PartTouch> parts,
                          uint32_t round_trips) {
  uint64_t rows = 0;
  for (const auto& p : parts) rows += p.rows;
  auto& s = engine_->stats_;
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

PartTouch OccTxn::Touch(uint32_t partition, uint32_t rows) const {
  uint32_t node = engine_->PrimaryNode(partition).value_or(coordinator_);
  return PartTouch{partition, node, rows, node == coordinator_};
}

uint64_t OccTxn::CommittedVersion(TableId table, uint32_t partition, const std::string& ekey,
                                  std::optional<Row>* live_row) const {
  const OccEngine::Table& t = engine_->table(table);
  OccEngine::OccPartition& p = *t.partitions[partition];
  std::lock_guard<std::mutex> lock(p.mu);
  auto it = p.rows.find(ekey);
  if (it == p.rows.end()) return 0;
  if (live_row != nullptr && !it->second.tombstone) *live_row = it->second.row;
  return it->second.version;
}

void OccTxn::Observe(TableId table, uint32_t partition, const std::string& ekey,
                     uint64_t version) {
  // First observation wins: if the key changes between two reads inside the
  // same transaction, validating against the first version surfaces it.
  read_set_.emplace(std::make_pair(table, ekey), ReadObs{partition, version});
}

bool OccTxn::KeyKnown(TableId table, const std::string& ekey) const {
  return read_set_.count({table, ekey}) > 0 || write_set_.count({table, ekey}) > 0;
}

bool OccTxn::RowExists(TableId table, uint32_t partition, const std::string& ekey) {
  auto staged = write_set_.find({table, ekey});
  if (staged != write_set_.end()) return !staged->second.is_delete;
  std::optional<Row> live;
  uint64_t version = CommittedVersion(table, partition, ekey, &live);
  Observe(table, partition, ekey, version);  // the existence check is validated
  return live.has_value();
}

hops::Result<Row> OccTxn::Read(TableId table, const Key& key, LockMode mode,
                               std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());  // per-row ops order after the pipeline
  const OccEngine::Table& t = engine_->table(table);
  HOPS_ASSIGN_OR_RETURN(partition, engine_->Route(t, key, pv));
  HOPS_RETURN_IF_ERROR(CheckUsable(partition));
  HOPS_RETURN_IF_ERROR(InjectFault(table, /*abort_tx=*/true));
  std::string ekey = EncodeKey(key);

  RecordAccess(AccessKind::kPkRead, table, {Touch(partition, 1)});

  auto staged = write_set_.find({table, ekey});
  if (staged != write_set_.end()) {
    if (staged->second.is_delete) return hops::Status::NotFound();
    return staged->second.row;
  }
  std::optional<Row> live;
  uint64_t version = CommittedVersion(table, partition, ekey, &live);
  if (mode != LockMode::kReadCommitted) Observe(table, partition, ekey, version);
  if (!live) return hops::Status::NotFound();
  return *std::move(live);
}

hops::Result<std::vector<std::optional<Row>>> OccTxn::BatchRead(
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

hops::Status OccTxn::Insert(TableId table, Row row, std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());
  const OccEngine::Table& t = engine_->table(table);
  assert(row.size() == t.schema.columns.size());
  Key key = ExtractPk(t.schema, row);
  HOPS_ASSIGN_OR_RETURN(partition, engine_->Route(t, key, pv));
  HOPS_RETURN_IF_ERROR(CheckUsable(partition));
  HOPS_RETURN_IF_ERROR(InjectFault(table, /*abort_tx=*/true));
  std::string ekey = EncodeKey(key);
  const bool fresh = !KeyKnown(table, ekey);

  if (RowExists(table, partition, ekey)) return hops::Status::AlreadyExists(t.schema.table_name);
  write_set_[{table, ekey}] = StagedWrite{false, std::move(row), partition};
  RecordAccess(AccessKind::kPkWrite, table, {Touch(partition, 1)}, fresh ? 1 : 0);
  return hops::Status::Ok();
}

hops::Status OccTxn::Update(TableId table, Row row, std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());
  const OccEngine::Table& t = engine_->table(table);
  assert(row.size() == t.schema.columns.size());
  Key key = ExtractPk(t.schema, row);
  HOPS_ASSIGN_OR_RETURN(partition, engine_->Route(t, key, pv));
  HOPS_RETURN_IF_ERROR(CheckUsable(partition));
  HOPS_RETURN_IF_ERROR(InjectFault(table, /*abort_tx=*/true));
  std::string ekey = EncodeKey(key);
  const bool fresh = !KeyKnown(table, ekey);

  if (!RowExists(table, partition, ekey)) return hops::Status::NotFound(t.schema.table_name);
  write_set_[{table, ekey}] = StagedWrite{false, std::move(row), partition};
  RecordAccess(AccessKind::kPkWrite, table, {Touch(partition, 1)}, fresh ? 1 : 0);
  return hops::Status::Ok();
}

hops::Status OccTxn::Write(TableId table, Row row, std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());
  const OccEngine::Table& t = engine_->table(table);
  assert(row.size() == t.schema.columns.size());
  Key key = ExtractPk(t.schema, row);
  HOPS_ASSIGN_OR_RETURN(partition, engine_->Route(t, key, pv));
  HOPS_RETURN_IF_ERROR(CheckUsable(partition));
  HOPS_RETURN_IF_ERROR(InjectFault(table, /*abort_tx=*/true));
  std::string ekey = EncodeKey(key);

  // Blind upsert: staged client-side, validated against nothing, applied at
  // commit. Costs no round trip until then.
  write_set_[{table, ekey}] = StagedWrite{false, std::move(row), partition};
  RecordAccess(AccessKind::kPkWrite, table, {Touch(partition, 1)}, /*round_trips=*/0);
  return hops::Status::Ok();
}

hops::Status OccTxn::Delete(TableId table, const Key& key, std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());
  const OccEngine::Table& t = engine_->table(table);
  HOPS_ASSIGN_OR_RETURN(partition, engine_->Route(t, key, pv));
  HOPS_RETURN_IF_ERROR(CheckUsable(partition));
  HOPS_RETURN_IF_ERROR(InjectFault(table, /*abort_tx=*/true));
  std::string ekey = EncodeKey(key);
  const bool fresh = !KeyKnown(table, ekey);

  if (!RowExists(table, partition, ekey)) return hops::Status::NotFound(t.schema.table_name);
  write_set_[{table, ekey}] = StagedWrite{true, {}, partition};
  RecordAccess(AccessKind::kPkWrite, table, {Touch(partition, 1)}, fresh ? 1 : 0);
  return hops::Status::Ok();
}

void OccTxn::UnlockRow(TableId table, const Key& key, std::optional<uint64_t> pv) {
  (void)pv;
  (void)FlushPending();  // the observation to drop may still be in the pipeline
  if (state_ != State::kActive) return;
  std::string ekey = EncodeKey(key);
  if (write_set_.count({table, ekey})) return;  // the observation guards a staged write
  // "Releasing the lock" under OCC = withdrawing the commit-time guarantee:
  // the caller is done with the value and no longer needs it stable.
  read_set_.erase({table, ekey});
}

// --- Pipelined batch engine --------------------------------------------------
//
// OCC windows have no lock phase: a flush routes every member, then runs the
// data work in preparation order (read-your-writes across the pipeline). The
// window is still ONE overlapped round trip; a pure-write window whose keys
// are all already known client-side piggybacks for free, mirroring the
// 2PL engine's already-exclusively-locked case.

uint64_t OccTxn::PrepareAsync(ReadBatch* read, WriteBatch* write) {
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
  // kStagedOrder batches still flush as their own window. OCC takes no locks,
  // so the ordering guarantee is moot -- but keeping the flush boundaries
  // identical keeps the two engines' round-trip accounting comparable.
  const bool staged_order =
      read != nullptr && read->lock_order() == BatchLockOrder::kStagedOrder;
  if (staged_order) (void)FlushPending();
  in_flight_.push_back(InFlightBatch{seq, read, write});
  if (staged_order || in_flight_.size() >= engine_->config().max_in_flight_batches) {
    (void)FlushPending();  // outcomes wait in batch_results_
  }
  return seq;
}

hops::Status OccTxn::WaitBatch(uint64_t seq) {
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

hops::Status OccTxn::RunReadBatchData(ReadBatch& batch, std::vector<Access>& accesses) {
  // Gets of the same table aggregate into one logical access; each pruned
  // scan is its own access. Accesses carry round_trips = 0; the flush assigns
  // the window's one trip to its first access.
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
    uint32_t node = engine_->PrimaryNode(partition).value_or(coordinator_);
    MergeTouch(a.parts, partition, rows, node, node == coordinator_);
  };

  uint64_t scans = 0;
  for (auto& op : batch.ops_) {
    if (op.kind == ReadBatch::Op::Kind::kGet) {
      auto staged = write_set_.find({op.table, op.ekey});
      if (staged != write_set_.end()) {
        if (!staged->second.is_delete) op.row = staged->second.row;
      } else {
        std::optional<Row> live;
        uint64_t version = CommittedVersion(op.table, op.partition, op.ekey, &live);
        if (op.mode != LockMode::kReadCommitted) {
          Observe(op.table, op.partition, op.ekey, version);
        }
        if (live) op.row = *std::move(live);
      }
      touch(get_access_for(op.table), op.partition, 1);
    } else {
      const bool validated =
          op.opts.lock != LockMode::kReadCommitted && !op.opts.take_and_release;
      const uint64_t seen =
          validated ? engine_->commit_version_.load(std::memory_order_acquire) : 0;
      uint32_t examined = 0;
      HOPS_ASSIGN_OR_RETURN(
          rows, ScanOnePartition(op.table, op.partition, op.ekey, op.opts, &examined));
      op.rows = std::move(rows);
      if (validated) range_set_.push_back(RangeObs{op.table, {op.partition}, op.ekey, seen});
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
  auto& s = engine_->stats_;
  s.batch_reads.fetch_add(1, std::memory_order_relaxed);
  s.ppis_scans.fetch_add(scans, std::memory_order_relaxed);
  s.rows_read.fetch_add(rows_read, std::memory_order_relaxed);
  return hops::Status::Ok();
}

hops::Status OccTxn::RunWriteBatchData(WriteBatch& batch, std::vector<Access>& accesses,
                                       bool* fresh_keys) {
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
    const OccEngine::Table& t = engine_->table(op.table);
    // Freshness is judged at the op's own turn, as sequential execution
    // would: keys staged by earlier ops (or members) are already known.
    if (op.kind != WriteBatch::Op::Kind::kWrite && !KeyKnown(op.table, op.ekey)) {
      *fresh_keys = true;
    }
    uint32_t staged_rows = 1;
    switch (op.kind) {
      case WriteBatch::Op::Kind::kInsert:
        if (RowExists(op.table, op.partition, op.ekey)) {
          return hops::Status::AlreadyExists(t.schema.table_name);
        }
        write_set_[{op.table, op.ekey}] = StagedWrite{false, op.row, op.partition};
        break;
      case WriteBatch::Op::Kind::kUpdate:
        if (!RowExists(op.table, op.partition, op.ekey)) {
          return hops::Status::NotFound(t.schema.table_name);
        }
        write_set_[{op.table, op.ekey}] = StagedWrite{false, op.row, op.partition};
        break;
      case WriteBatch::Op::Kind::kWrite:
        write_set_[{op.table, op.ekey}] = StagedWrite{false, op.row, op.partition};
        break;
      case WriteBatch::Op::Kind::kDelete:
        if (!RowExists(op.table, op.partition, op.ekey)) {
          if (!op.ignore_missing) return hops::Status::NotFound(t.schema.table_name);
          staged_rows = 0;
        } else {
          write_set_[{op.table, op.ekey}] = StagedWrite{true, {}, op.partition};
        }
        break;
    }
    Access& a = access_for(op.table);
    uint32_t node = engine_->PrimaryNode(op.partition).value_or(coordinator_);
    MergeTouch(a.parts, op.partition, staged_rows, node, node == coordinator_);
  }
  engine_->stats_.batch_writes.fetch_add(1, std::memory_order_relaxed);
  return hops::Status::Ok();
}

hops::Status OccTxn::FlushPending() {
  if (in_flight_.empty()) return hops::Status::Ok();
  std::vector<InFlightBatch> flight = std::move(in_flight_);
  in_flight_.clear();

  auto fail_window = [&](const hops::Status& st) {
    for (const auto& f : flight) batch_results_[f.seq] = st;
  };

  // Phase 1: route every op of every member batch; no data is touched yet.
  for (const auto& f : flight) {
    hops::Status st;
    if (f.read != nullptr) {
      for (auto& op : f.read->ops_) {
        const OccEngine::Table& t = engine_->table(op.table);
        auto routed = engine_->Route(t, op.key, op.pv);
        if (!routed.ok()) { st = routed.status(); break; }
        op.partition = *routed;
        st = CheckUsable(op.partition);
        if (!st.ok()) break;
        st = InjectFault(op.table, /*abort_tx=*/false);
        if (!st.ok()) break;
        op.ekey = EncodeKey(op.key);
      }
    } else {
      for (auto& op : f.write->ops_) {
        const OccEngine::Table& t = engine_->table(op.table);
        if (op.kind != WriteBatch::Op::Kind::kDelete) {
          assert(op.row.size() == t.schema.columns.size());
          op.key = ExtractPk(t.schema, op.row);
        }
        auto routed = engine_->Route(t, op.key, op.pv);
        if (!routed.ok()) { st = routed.status(); break; }
        op.partition = *routed;
        st = CheckUsable(op.partition);
        if (!st.ok()) break;
        st = InjectFault(op.table, /*abort_tx=*/false);
        if (!st.ok()) break;
        op.ekey = EncodeKey(op.key);
      }
    }
    if (!st.ok()) {
      fail_window(st);
      return st;
    }
  }

  // Phase 2: the window's data work, in preparation order. The first failure
  // stops the window; members behind it report kTxAborted.
  std::vector<Access> accesses;
  size_t sync_equiv = 0, read_members = 0;
  bool fresh_writes = false;
  hops::Status first_error;
  for (size_t i = 0; i < flight.size(); ++i) {
    hops::Status st;
    bool pays = false;
    if (flight[i].read != nullptr) {
      read_members++;
      pays = true;
      st = RunReadBatchData(*flight[i].read, accesses);
    } else {
      bool fresh = false;
      st = RunWriteBatchData(*flight[i].write, accesses, &fresh);
      fresh_writes |= fresh;
      pays = fresh;
    }
    batch_results_[flight[i].seq] = st;
    if (pays) sync_equiv++;
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

  const uint32_t rt = read_members > 0 || fresh_writes ? 1 : 0;
  if (!accesses.empty()) accesses.front().round_trips = rt;
  auto& s = engine_->stats_;
  s.round_trips.fetch_add(rt, std::memory_order_relaxed);
  if (rt > 0 && sync_equiv > rt) {
    s.overlapped_round_trips.fetch_add(sync_equiv - rt, std::memory_order_relaxed);
  }
  if (trace_enabled_) {
    for (auto& a : accesses) trace_.accesses.push_back(std::move(a));
  }
  return first_error;
}

// --- Scans -------------------------------------------------------------------

hops::Result<std::vector<Row>> OccTxn::ScanOnePartition(TableId table, uint32_t partition,
                                                        const std::string& eprefix,
                                                        const ScanOptions& opts,
                                                        uint32_t* examined) {
  const OccEngine::Table& t = engine_->table(table);
  OccEngine::OccPartition& p = *t.partitions[partition];

  // Snapshot the committed live candidates, then overlay this transaction's
  // staged writes (read-your-writes). Lock modes cost nothing here; a
  // validated scan's stability comes from the range check at commit.
  std::map<std::string, Row> merged;
  {
    std::lock_guard<std::mutex> lock(p.mu);
    for (auto it = p.rows.lower_bound(eprefix); it != p.rows.end(); ++it) {
      if (!eprefix.empty() && it->first.compare(0, eprefix.size(), eprefix) != 0) break;
      if (!it->second.tombstone) merged.emplace(it->first, it->second.row);
    }
  }
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
    results.push_back(std::move(row));
  }
  return results;
}

hops::Result<std::vector<Row>> OccTxn::ScanPartitions(TableId table,
                                                      const std::vector<uint32_t>& partitions,
                                                      const Key& prefix, const ScanOptions& opts,
                                                      AccessKind kind, bool full_scan) {
  const std::string eprefix = full_scan ? std::string() : EncodeKey(prefix);
  HOPS_RETURN_IF_ERROR(InjectFault(table, /*abort_tx=*/false));

  // A locking scan's stability guarantee becomes a validated range: loading
  // the published version BEFORE scanning means any commit that lands in the
  // range afterwards carries a newer version and fails the commit-time walk.
  // A take-and-release scan releases its locks immediately under 2PL -- no
  // post-scan stability -- so it records nothing here either.
  const bool validated = opts.lock != LockMode::kReadCommitted && !opts.take_and_release;
  const uint64_t seen =
      validated ? engine_->commit_version_.load(std::memory_order_acquire) : 0;

  std::vector<Row> results;
  std::vector<PartTouch> touches;
  touches.reserve(partitions.size());

  for (uint32_t partition : partitions) {
    HOPS_RETURN_IF_ERROR(CheckUsable(partition));
    uint32_t examined = 0;
    HOPS_ASSIGN_OR_RETURN(part_rows, ScanOnePartition(table, partition, eprefix, opts, &examined));
    for (auto& row : part_rows) results.push_back(std::move(row));
    touches.push_back(Touch(partition, examined));
  }
  if (validated) range_set_.push_back(RangeObs{table, partitions, eprefix, seen});
  RecordAccess(kind, table, std::move(touches), /*round_trips=*/1);
  return results;
}

hops::Result<std::vector<Row>> OccTxn::Ppis(TableId table, const Key& prefix,
                                            const ScanOptions& opts,
                                            std::optional<uint64_t> pv) {
  HOPS_RETURN_IF_ERROR(FlushPending());
  const OccEngine::Table& t = engine_->table(table);
  HOPS_ASSIGN_OR_RETURN(partition, engine_->Route(t, prefix, pv));
  return ScanPartitions(table, {partition}, prefix, opts, AccessKind::kPpis,
                        /*full_scan=*/false);
}

hops::Result<std::vector<Row>> OccTxn::IndexScan(TableId table, const Key& prefix,
                                                 const ScanOptions& opts) {
  HOPS_RETURN_IF_ERROR(FlushPending());
  std::vector<uint32_t> all(engine_->num_partitions());
  for (uint32_t p = 0; p < all.size(); ++p) all[p] = p;
  return ScanPartitions(table, all, prefix, opts, AccessKind::kIndexScan,
                        /*full_scan=*/prefix.empty());
}

hops::Result<std::vector<Row>> OccTxn::FullTableScan(TableId table, const ScanOptions& opts) {
  HOPS_RETURN_IF_ERROR(FlushPending());
  std::vector<uint32_t> all(engine_->num_partitions());
  for (uint32_t p = 0; p < all.size(); ++p) all[p] = p;
  return ScanPartitions(table, all, {}, opts, AccessKind::kFullTableScan,
                        /*full_scan=*/true);
}

// --- Outcome -----------------------------------------------------------------

hops::Status OccTxn::Commit() {
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

  // Read-only fast path: nothing to validate or install; the commit ack
  // piggybacks on the last read.
  const uint32_t commit_round_trips = write_set_.empty() ? 0 : 2;
  std::vector<PartTouch> touches;
  if (!write_set_.empty()) {
    std::lock_guard<std::mutex> commit_lock(engine_->commit_mu_);

    // Validate: every point observation must still name the current
    // committed version, and no key may have landed in a validated range
    // since it was scanned.
    auto& s = engine_->stats_;
    for (const auto& [tk, obs] : read_set_) {
      const auto& [table_id, ekey] = tk;
      uint64_t current = CommittedVersion(table_id, obs.partition, ekey, nullptr);
      if (current != obs.version) {
        s.occ_conflicts.fetch_add(1, std::memory_order_relaxed);
        s.occ_key_conflicts.fetch_add(1, std::memory_order_relaxed);
        // Build the message first: Abort() clears read_set_, which frees the
        // node `table_id` refers to.
        hops::Status conflict = hops::Status::Conflict(
            "validated read of " + engine_->schema(table_id).table_name +
            " changed before commit");
        Abort();
        return conflict;
      }
    }
    for (const RangeObs& range : range_set_) {
      for (uint32_t partition : range.partitions) {
        const OccEngine::Table& t = engine_->table(range.table);
        OccEngine::OccPartition& p = *t.partitions[partition];
        std::lock_guard<std::mutex> lock(p.mu);
        for (auto it = p.rows.lower_bound(range.eprefix); it != p.rows.end(); ++it) {
          if (!range.eprefix.empty() &&
              it->first.compare(0, range.eprefix.size(), range.eprefix) != 0) {
            break;
          }
          if (it->second.version > range.seen_version) {
            s.occ_conflicts.fetch_add(1, std::memory_order_relaxed);
            s.occ_range_conflicts.fetch_add(1, std::memory_order_relaxed);
            Abort();
            return hops::Status::Conflict("validated scan of " + t.schema.table_name +
                                          " grew a newer row before commit");
          }
        }
      }
    }

    // Install the write set at one new version, then publish it. Publishing
    // only after the full install keeps the invariant the range check rests
    // on: every commit <= the published counter is completely visible.
    const uint64_t version = engine_->commit_version_.load(std::memory_order_relaxed) + 1;
    for (const auto& [tk, staged] : write_set_) {
      const auto& [table_id, ekey] = tk;
      const OccEngine::Table& t = engine_->table(table_id);
      OccEngine::OccPartition& p = *t.partitions[staged.partition];
      std::lock_guard<std::mutex> lock(p.mu);
      auto it = p.rows.find(ekey);
      const bool was_live = it != p.rows.end() && !it->second.tombstone;
      if (was_live) {
        p.data_bytes -= RowBytes(ekey, it->second.row);
        p.live_rows--;
      }
      if (staged.is_delete) {
        p.rows[ekey] = OccEngine::VersionedRow{version, true, {}};
      } else {
        p.data_bytes += RowBytes(ekey, staged.row);
        p.live_rows++;
        p.rows[ekey] = OccEngine::VersionedRow{version, false, staged.row};
      }
      MergeTouch(touches, staged.partition,
                 1, engine_->PrimaryNode(staged.partition).value_or(coordinator_),
                 engine_->PrimaryNode(staged.partition).value_or(coordinator_) == coordinator_);
    }
    engine_->commit_version_.store(version, std::memory_order_release);
  }
  RecordAccess(AccessKind::kCommit, 0, std::move(touches), commit_round_trips);

  read_set_.clear();
  range_set_.clear();
  write_set_.clear();
  state_ = State::kCommitted;

  uint64_t commits = engine_->stats_.commits.fetch_add(1, std::memory_order_relaxed) + 1;
  if (commits % OccEngine::kGlobalCheckpointCommits == 0) {
    engine_->gcp_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  return hops::Status::Ok();
}

void OccTxn::Abort() {
  if (state_ != State::kActive) return;
  for (const auto& f : in_flight_) {
    batch_results_.emplace(f.seq,
                           hops::Status::TxAborted("transaction aborted before the batch flushed"));
  }
  in_flight_.clear();
  read_set_.clear();
  range_set_.clear();
  write_set_.clear();
  state_ = State::kAborted;
  engine_->stats_.aborts.fetch_add(1, std::memory_order_relaxed);
}

// --- OccEngine ---------------------------------------------------------------

OccEngine::OccEngine(EngineConfig config) : config_(config) {
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

hops::Result<TableId> OccEngine::CreateTable(Schema schema) {
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
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    t->partitions.push_back(std::make_unique<OccPartition>());
  }
  std::lock_guard<std::mutex> lock(tables_mu_);
  tables_.push_back(std::move(t));
  return static_cast<TableId>(tables_.size() - 1);
}

const Schema& OccEngine::schema(TableId id) const { return table(id).schema; }

std::optional<TableId> OccEngine::FindTable(std::string_view name) const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i]->schema.table_name == name) return static_cast<TableId>(i);
  }
  return std::nullopt;
}

const OccEngine::Table& OccEngine::table(TableId id) const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  assert(id < tables_.size());
  return *tables_[id];
}

std::unique_ptr<Txn> OccEngine::Begin(std::optional<TxHint> hint) {
  uint32_t coordinator = 0;
  bool placed = false;
  if (hint) {
    uint32_t partition = PartitionForValue(hint->partition_value);
    if (auto primary = PrimaryNode(partition)) {
      coordinator = *primary;
      placed = true;
    }
  }
  if (!placed) {
    for (uint32_t i = 0; i < config_.num_datanodes; ++i) {
      uint32_t candidate =
          rr_coordinator_.fetch_add(1, std::memory_order_relaxed) % config_.num_datanodes;
      if (IsAlive(candidate)) {
        coordinator = candidate;
        placed = true;
        break;
      }
    }
  }
  TxId id = next_tx_id_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Txn>(new OccTxn(this, id, coordinator));
}

void OccEngine::KillDatanode(uint32_t node) {
  assert(node < config_.num_datanodes);
  node_alive_[node].store(false, std::memory_order_release);
}

void OccEngine::RestartDatanode(uint32_t node) {
  assert(node < config_.num_datanodes);
  node_alive_[node].store(true, std::memory_order_release);
}

bool OccEngine::IsAlive(uint32_t node) const {
  return node_alive_[node].load(std::memory_order_acquire);
}

uint32_t OccEngine::NumAliveNodes() const {
  uint32_t n = 0;
  for (const auto& a : node_alive_) n += a.load(std::memory_order_acquire) ? 1 : 0;
  return n;
}

bool OccEngine::Available() const {
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

uint32_t OccEngine::PartitionForValue(uint64_t partition_value) const {
  return static_cast<uint32_t>(HashU64(partition_value) % num_partitions_);
}

std::optional<uint32_t> OccEngine::PrimaryNode(uint32_t partition) const {
  uint32_t group = GroupOf(partition);
  for (uint32_t r = 0; r < config_.replication; ++r) {
    uint32_t node = group * config_.replication + r;
    if (IsAlive(node)) return node;
  }
  return std::nullopt;
}

bool OccEngine::PartitionAvailable(uint32_t partition) const {
  return PrimaryNode(partition).has_value();
}

hops::Result<uint32_t> OccEngine::Route(const Table& t, const Key& pk_values,
                                        std::optional<uint64_t> pv) const {
  if (pv) return PartitionForValue(*pv);
  if (t.schema.requires_explicit_partition) {
    return hops::Status::InvalidArgument(t.schema.table_name +
                                         " requires an explicit partition value");
  }
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

ClusterStats OccEngine::StatsSnapshot() const {
  ClusterStats s;
  s.pk_reads = stats_.pk_reads.load(std::memory_order_relaxed);
  s.batch_reads = stats_.batch_reads.load(std::memory_order_relaxed);
  s.batch_writes = stats_.batch_writes.load(std::memory_order_relaxed);
  s.ppis_scans = stats_.ppis_scans.load(std::memory_order_relaxed);
  s.index_scans = stats_.index_scans.load(std::memory_order_relaxed);
  s.full_table_scans = stats_.full_table_scans.load(std::memory_order_relaxed);
  s.commits = stats_.commits.load(std::memory_order_relaxed);
  s.aborts = stats_.aborts.load(std::memory_order_relaxed);
  s.rows_read = stats_.rows_read.load(std::memory_order_relaxed);
  s.rows_written = stats_.rows_written.load(std::memory_order_relaxed);
  s.round_trips = stats_.round_trips.load(std::memory_order_relaxed);
  s.overlapped_round_trips = stats_.overlapped_round_trips.load(std::memory_order_relaxed);
  s.occ_conflicts = stats_.occ_conflicts.load(std::memory_order_relaxed);
  s.occ_key_conflicts = stats_.occ_key_conflicts.load(std::memory_order_relaxed);
  s.occ_range_conflicts = stats_.occ_range_conflicts.load(std::memory_order_relaxed);
  // No locks, no mux: lock_timeouts/lock_waits and the mux_* counters stay 0.
  return s;
}

void OccEngine::ResetStats() {
  stats_.pk_reads = 0;
  stats_.batch_reads = 0;
  stats_.batch_writes = 0;
  stats_.ppis_scans = 0;
  stats_.index_scans = 0;
  stats_.full_table_scans = 0;
  stats_.commits = 0;
  stats_.aborts = 0;
  stats_.rows_read = 0;
  stats_.rows_written = 0;
  stats_.round_trips = 0;
  stats_.overlapped_round_trips = 0;
  stats_.occ_conflicts = 0;
  stats_.occ_key_conflicts = 0;
  stats_.occ_range_conflicts = 0;
}

size_t OccEngine::TableRowCount(TableId id) const {
  const Table& t = table(id);
  size_t n = 0;
  for (const auto& p : t.partitions) {
    std::lock_guard<std::mutex> lock(p->mu);
    n += p->live_rows;
  }
  return n;
}

size_t OccEngine::TableMemoryBytes(TableId id) const {
  const Table& t = table(id);
  size_t bytes = 0;
  for (const auto& p : t.partitions) {
    std::lock_guard<std::mutex> lock(p->mu);
    bytes += p->data_bytes + p->live_rows * kPerRowOverheadBytes;
  }
  return bytes * config_.replication;
}

size_t OccEngine::TotalMemoryBytes() const {
  size_t total = 0;
  size_t n;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    n = tables_.size();
  }
  for (size_t i = 0; i < n; ++i) total += TableMemoryBytes(static_cast<TableId>(i));
  return total;
}

}  // namespace hops::kv
