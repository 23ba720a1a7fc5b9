// The OCC concurrency-control policy: lock-free reads that record what a
// stable read observed, and serialized commit-time validation + install.
// Everything else a transaction does comes from the shared skeleton.
#include "kv/occ_engine.h"

namespace hops::kv {

namespace {

size_t RowBytes(const std::string& ekey, const Row& row) {
  return ekey.size() + row.FootprintBytes();
}

}  // namespace

std::unique_ptr<Txn> OccEngine::NewTxn(TxId id, uint32_t coordinator) {
  return std::unique_ptr<Txn>(new OccTxn(this, id, coordinator));
}

OccTxn::OccTxn(OccEngine* engine, TxId id, uint32_t coordinator)
    : TxnSkeleton(engine, id, coordinator), occ_(engine) {}

uint64_t OccTxn::CommittedVersion(TableId table, uint32_t partition, const std::string& ekey,
                                  std::optional<Row>* live_row) const {
  OccEngine::OccPartition& p = occ_->part(table, partition);
  std::shared_lock<std::shared_mutex> lock(p.mu);
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

hops::Result<std::optional<Row>> OccTxn::ReadRow(TableId table, uint32_t partition,
                                                 const std::string& ekey, LockMode mode) {
  std::optional<Row> live;
  uint64_t version = CommittedVersion(table, partition, ekey, &live);
  if (mode != LockMode::kReadCommitted) Observe(table, partition, ekey, version);
  return live;
}

bool OccTxn::CommittedExists(TableId table, uint32_t partition, const std::string& ekey) {
  std::optional<Row> live;
  uint64_t version = CommittedVersion(table, partition, ekey, &live);
  Observe(table, partition, ekey, version);  // the existence check is validated
  return live.has_value();
}

hops::Status OccTxn::ExistenceCheckFailed(TableId table, uint32_t partition,
                                          const std::string& ekey, hops::Status failure) {
  // CommittedExists just recorded an observation unless an earlier one
  // holds. If that one names another version, the failure comes from a
  // commit this transaction never saw and cannot validate past: a conflict.
  // (One encoded key can be probed in two partitions, an inode's primary
  // and alternate placement; an observation of the other one says nothing.)
  auto obs = read_set_.find({table, ekey});
  if (obs == read_set_.end() || obs->second.partition != partition ||
      obs->second.version == CommittedVersion(table, partition, ekey, nullptr)) {
    return failure;
  }
  auto& s = stats();
  s.occ_conflicts.fetch_add(1, std::memory_order_relaxed);
  s.occ_key_conflicts.fetch_add(1, std::memory_order_relaxed);
  return hops::Status::Conflict("validated read of " + occ_->schema(table).table_name +
                                " changed before the write checked it");
}

hops::Result<bool> OccTxn::ClaimWrite(TableId table, uint32_t /*partition*/,
                                      const std::string& ekey, bool blind) {
  // A write costs a trip only to learn a key's state the transaction does
  // not already know client-side (observed it or staged a write) -- the OCC
  // analogue of "lock already held". A blind upsert learns nothing.
  if (blind) return false;
  return read_set_.count({table, ekey}) == 0 && !Staged(table, ekey);
}

hops::Status OccTxn::ClaimWindow(const std::vector<InFlightBatch>& /*flight*/,
                                 std::vector<bool>& /*pays*/, bool& /*fresh*/) {
  // Nothing to claim up front: rows are observed as the data work reads
  // them, and each write's trip is judged by ClaimWrite at its own turn.
  return hops::Status::Ok();
}

OccTxn::CommittedRows OccTxn::CommittedRange(TableId table, uint32_t partition,
                                             const std::string& eprefix,
                                             const ScanOptions& opts) {
  // A locking scan's stability guarantee becomes a validated range: loading
  // the published version BEFORE scanning means any commit that lands in the
  // range afterwards carries a newer version and fails the commit-time walk.
  // A take-and-release scan releases its locks immediately under 2PL -- no
  // post-scan stability -- so it records nothing here either.
  const bool validated = opts.lock != LockMode::kReadCommitted && !opts.take_and_release;
  const uint64_t seen = validated ? occ_->commit_version_.load(std::memory_order_acquire) : 0;
  CommittedRows rows;
  {
    OccEngine::OccPartition& p = occ_->part(table, partition);
    std::shared_lock<std::shared_mutex> lock(p.mu);
    for (auto it = p.rows.lower_bound(eprefix); it != p.rows.end(); ++it) {
      if (!eprefix.empty() && it->first.compare(0, eprefix.size(), eprefix) != 0) break;
      if (!it->second.tombstone) rows.emplace_back(it->first, it->second.row);
    }
  }
  if (validated) range_set_.push_back(RangeObs{table, partition, eprefix, seen});
  return rows;
}

hops::Result<bool> OccTxn::HoldScanRow(TableId /*table*/, uint32_t /*partition*/,
                                       const std::string& /*ekey*/,
                                       const ScanOptions& /*opts*/, Row& /*row*/) {
  return true;  // the RangeObs recorded by CommittedRange guards the row
}

void OccTxn::ReleaseRow(TableId table, uint32_t /*partition*/, const std::string& ekey) {
  // "Releasing the lock" under OCC = withdrawing the commit-time guarantee:
  // the caller is done with the value and no longer needs it stable.
  read_set_.erase({table, ekey});
}

void OccTxn::ReleaseAll() {
  read_set_.clear();
  range_set_.clear();
}

hops::Status OccTxn::InstallWriteSet() {
  std::lock_guard<std::mutex> commit_lock(occ_->commit_mu_);

  // Validate: every point observation must still name the current
  // committed version, and no key may have landed in a validated range
  // since it was scanned.
  auto& s = stats();
  for (const auto& [tk, obs] : read_set_) {
    const auto& [table_id, ekey] = tk;
    if (CommittedVersion(table_id, obs.partition, ekey, nullptr) != obs.version) {
      s.occ_conflicts.fetch_add(1, std::memory_order_relaxed);
      s.occ_key_conflicts.fetch_add(1, std::memory_order_relaxed);
      return hops::Status::Conflict("validated read of " + occ_->schema(table_id).table_name +
                                    " changed before commit");
    }
  }
  for (const RangeObs& range : range_set_) {
    OccEngine::OccPartition& p = occ_->part(range.table, range.partition);
    std::shared_lock<std::shared_mutex> lock(p.mu);
    for (auto it = p.rows.lower_bound(range.eprefix); it != p.rows.end(); ++it) {
      if (!range.eprefix.empty() &&
          it->first.compare(0, range.eprefix.size(), range.eprefix) != 0) {
        break;
      }
      if (it->second.version > range.seen_version) {
        s.occ_conflicts.fetch_add(1, std::memory_order_relaxed);
        s.occ_range_conflicts.fetch_add(1, std::memory_order_relaxed);
        return hops::Status::Conflict("validated scan of " +
                                      occ_->schema(range.table).table_name +
                                      " grew a newer row before commit");
      }
    }
  }

  // Install the write set at one new version, then publish it. Publishing
  // only after the full install keeps the invariant the range check rests
  // on: every commit <= the published counter is completely visible.
  // Each staged row swaps places with the version it replaces (an empty row
  // for a delete's tombstone), so the replaced rows are freed when the write
  // set is cleared, after commit_mu_ is released.
  const uint64_t version = occ_->commit_version_.load(std::memory_order_relaxed) + 1;
  for (auto& [tk, staged] : write_set()) {
    const auto& [table_id, ekey] = tk;
    OccEngine::OccPartition& p = occ_->part(table_id, staged.partition);
    std::lock_guard<std::shared_mutex> lock(p.mu);
    auto [it, inserted] = p.rows.try_emplace(ekey);
    OccEngine::VersionedRow& slot = it->second;
    if (!inserted && !slot.tombstone) {
      p.live_bytes -= RowBytes(ekey, slot.row);
      p.live_rows--;
    }
    if (!staged.is_delete) {
      p.live_bytes += RowBytes(ekey, staged.row);
      p.live_rows++;
    }
    slot.version = version;
    slot.tombstone = staged.is_delete;
    std::swap(slot.row, staged.row);
  }
  occ_->commit_version_.store(version, std::memory_order_release);
  return hops::Status::Ok();
}

}  // namespace hops::kv
