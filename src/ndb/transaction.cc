// The 2PL concurrency-control policy: row locks acquired eagerly at access
// time and held until commit or abort, a flush window's whole lock set taken
// in the global (table, partition, encoded key) order, and take-and-release
// lock scans used by the subtree quiesce protocol. Staged writes apply under
// the held locks at commit.
#include <algorithm>
#include <chrono>
#include <iterator>
#include <set>
#include <tuple>

#include "ndb/cluster.h"

namespace hops::ndb {

std::unique_ptr<kv::Txn> Cluster::NewTxn(TxId id, uint32_t coordinator) {
  return std::unique_ptr<kv::Txn>(new Transaction(this, id, coordinator));
}

Transaction::Transaction(Cluster* cluster, TxId id, uint32_t coordinator)
    : TxnSkeleton(cluster, id, coordinator), cluster_(cluster) {}

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
  bool waited = false;
  hops::Status st =
      cluster_->part(table, partition).AcquireLock(id(), ekey, mode, deadline, &waited);
  if (waited) stats().lock_waits.fetch_add(1, std::memory_order_relaxed);
  if (!st.ok()) {
    stats().lock_timeouts.fetch_add(1, std::memory_order_relaxed);
    Abort();  // NDB aborts the transaction whose lock wait times out
    return st;
  }
  held_locks_[key] = mode;
  return hops::Status::Ok();
}

hops::Result<std::optional<Row>> Transaction::ReadRow(TableId table, uint32_t partition,
                                                      const std::string& ekey, LockMode mode) {
  HOPS_RETURN_IF_ERROR(AcquireRowLock(table, partition, ekey, mode));
  return cluster_->part(table, partition).Get(ekey);
}

bool Transaction::CommittedExists(TableId table, uint32_t partition, const std::string& ekey) {
  return cluster_->part(table, partition).Contains(ekey);  // the X lock keeps it so
}

hops::Status Transaction::ExistenceCheckFailed(TableId /*table*/, uint32_t /*partition*/,
                                               const std::string& /*ekey*/,
                                               hops::Status failure) {
  return failure;  // the X lock held since the check makes the answer final
}

hops::Result<bool> Transaction::ClaimWrite(TableId table, uint32_t partition,
                                           const std::string& ekey, bool /*blind*/) {
  const bool fresh_lock = held_locks_.count({table, partition, ekey}) == 0;
  HOPS_RETURN_IF_ERROR(AcquireRowLock(table, partition, ekey, LockMode::kExclusive));
  return fresh_lock;
}

void Transaction::ReleaseRow(TableId table, uint32_t partition, const std::string& ekey) {
  auto it = held_locks_.find(std::make_tuple(table, partition, ekey));
  if (it == held_locks_.end()) return;
  cluster_->part(table, partition).ReleaseLock(id(), ekey);
  held_locks_.erase(it);
}

void Transaction::ReleaseAll() {
  for (const auto& [lk, mode] : held_locks_) {
    const auto& [table_id, partition, ekey] = lk;
    cluster_->part(table_id, partition).ReleaseLock(id(), ekey);
  }
  held_locks_.clear();
}

hops::Status Transaction::AcquireLockSet(std::vector<LockRequest> requests,
                                         uint32_t* fresh_locks) {
  // Global deadlock-free order: (table, partition, encoded key). Every window
  // walks its lock set in this order, so for any two windows the rows they
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

void Transaction::ComputeWindowPays(const std::vector<InFlightBatch>& flight,
                                    const std::vector<std::vector<LockRequest>>& plans,
                                    std::vector<bool>& pays) const {
  // Judged exactly as sequential execution would have found it, keeping
  // cost.h's invariant that round_trips + overlapped_round_trips is the
  // sync-equivalent trip count.
  std::set<std::tuple<TableId, uint32_t, std::string>> covered;
  for (size_t i = 0; i < flight.size(); ++i) {
    if (flight[i].write != nullptr) {
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
}

hops::Status Transaction::ClaimWindow(const std::vector<InFlightBatch>& flight,
                                      std::vector<bool>& pays, bool& fresh) {
  // Each member's lock plan: every locking get, and every write (exclusive).
  std::vector<std::vector<LockRequest>> plans(flight.size());
  for (size_t i = 0; i < flight.size(); ++i) {
    if (flight[i].read != nullptr) {
      for (const auto& op : flight[i].read->ops_) {
        if (op.kind == ReadBatch::Op::Kind::kGet && op.mode != LockMode::kReadCommitted) {
          plans[i].push_back(LockRequest{op.table, op.partition, op.ekey, op.mode});
        }
      }
    } else {
      plans[i].reserve(flight[i].write->ops_.size());
      for (const auto& op : flight[i].write->ops_) {
        plans[i].push_back(LockRequest{op.table, op.partition, op.ekey, LockMode::kExclusive});
      }
    }
  }
  ComputeWindowPays(flight, plans, pays);

  // Acquire the whole window's lock set. The default merges every member's
  // requests into ONE sorted pass -- the global (table, partition, encoded
  // key) order holds across in-flight batches, so two transactions each
  // pipelining several batches still cannot deadlock. A kStagedOrder member
  // (rename lock phases, whose total order is the *path* order shared with
  // per-row lockers) instead acquires exactly as staged; PrepareAsync
  // isolates such a batch in its own window, so the two ordering
  // disciplines never mix within one flush.
  uint32_t fresh_locks = 0;
  const bool staged_order = flight.size() == 1 && flight[0].read != nullptr &&
                            flight[0].read->lock_order() == BatchLockOrder::kStagedOrder;
  if (!staged_order) {
    std::vector<LockRequest> combined;
    for (auto& plan : plans) std::move(plan.begin(), plan.end(), std::back_inserter(combined));
    HOPS_RETURN_IF_ERROR(AcquireLockSet(std::move(combined), &fresh_locks));
  } else {
    for (const LockRequest& req : plans[0]) {
      auto held = held_locks_.find(std::make_tuple(req.table, req.partition, req.ekey));
      if (held == held_locks_.end() ||
          (held->second != LockMode::kExclusive && held->second != req.mode)) {
        fresh_locks++;
      }
      HOPS_RETURN_IF_ERROR(AcquireRowLock(req.table, req.partition, req.ekey, req.mode));
    }
  }
  fresh = fresh_locks > 0;
  return hops::Status::Ok();
}

Transaction::CommittedRows Transaction::CommittedRange(TableId table, uint32_t partition,
                                                       const std::string& eprefix,
                                                       const ScanOptions& /*opts*/) {
  return cluster_->part(table, partition).SnapshotPrefix(eprefix);
}

hops::Result<bool> Transaction::HoldScanRow(TableId table, uint32_t partition,
                                            const std::string& ekey, const ScanOptions& opts,
                                            Row& row) {
  Partition& p = cluster_->part(table, partition);
  if (opts.take_and_release) {
    // Quiesce primitive: wait for any in-flight writer, then let go.
    auto deadline = std::chrono::steady_clock::now() + cluster_->config().lock_wait_timeout;
    bool already_held = held_locks_.count({table, partition, ekey}) > 0;
    hops::Status st = p.AcquireLock(id(), ekey, opts.lock, deadline);
    if (!st.ok()) {
      stats().lock_timeouts.fetch_add(1, std::memory_order_relaxed);
      Abort();
      return st;
    }
    if (!already_held) p.ReleaseLock(id(), ekey);
  } else {
    HOPS_RETURN_IF_ERROR(AcquireRowLock(table, partition, ekey, opts.lock));
  }
  // The row may have changed while we waited for the lock; re-read the
  // committed value (our own staged writes cannot have changed).
  if (Staged(table, ekey)) return true;
  auto fresh = p.Get(ekey);
  if (!fresh) return false;  // deleted while waiting
  row = *std::move(fresh);
  return RowMatches(row, opts);
}

hops::Status Transaction::InstallWriteSet() {
  // Apply staged writes partition-atomically, in deterministic key order.
  // Cross-partition visibility during application is permitted by
  // read-committed isolation; locked readers still wait for our row locks.
  // Each staged row moves into the store: the write set is cleared next.
  for (auto& [tk, staged] : write_set()) {
    const auto& [table_id, ekey] = tk;
    Partition& p = cluster_->part(table_id, staged.partition);
    if (staged.is_delete) {
      p.ApplyDelete(ekey);
    } else {
      p.ApplyPut(ekey, std::move(staged.row));
    }
  }
  return hops::Status::Ok();
}

}  // namespace hops::ndb
