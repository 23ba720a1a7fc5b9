// A table partition: committed rows in an ordered primary index, plus a
// row-level lock table.
//
// Lock semantics mirror NDB (paper §2.2.2): shared and exclusive row locks,
// plus read-committed reads that never block -- they return the last
// committed version even while another transaction holds an exclusive lock
// (staged writes live in the transaction until commit, so the committed
// version is always the one stored here). Deadlocks are resolved by lock-wait
// timeout, as NDB does.
//
// Stored rows are immutable shared versions (ndb::Row): Get and
// SnapshotPrefix hand out the stored buffers by reference count, never a
// deep copy, and a commit replaces a key's row rather than editing it, so a
// row a reader already holds keeps its values.
//
// Two internal locks, so that neither readers nor lock traffic queue behind
// each other:
//  * rows_mu_ (reader/writer) guards rows_ and data_bytes_. Get, Contains,
//    SnapshotPrefix, row_count and data_bytes take it shared; only the
//    commit path's ApplyPut/ApplyDelete take it exclusive, for a map update
//    and the row's cached footprint; the row they replace or erase is freed
//    after the lock is released. It keeps the map consistent; the row locks
//    below are what keep the data stable.
//  * lock_mu_ guards locks_ and is the mutex lock_released_ waits on.
// No method holds both.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "kv/skeleton.h"
#include "ndb/value.h"
#include "util/status.h"

namespace hops::ndb {

class Partition final : public kv::PartitionStore {
 public:
  // --- Locking -------------------------------------------------------------
  // Blocks until granted or until `deadline`; kReadCommitted is a no-op.
  // A holder of an exclusive lock is granted any further request on the same
  // row; upgrading shared->exclusive succeeds only for a sole holder.
  // `waited`, when non-null, reports whether the request found the row
  // contended and blocked at least once (lock-contention accounting).
  hops::Status AcquireLock(TxId tx, const std::string& ekey, LockMode mode,
                           std::chrono::steady_clock::time_point deadline,
                           bool* waited = nullptr);
  void ReleaseLock(TxId tx, const std::string& ekey);
  // True if `tx` already holds a lock at least as strong as `mode`.
  bool Holds(TxId tx, const std::string& ekey, LockMode mode) const;

  // --- Committed data (callers must hold the row lock for locked reads;
  // rows_mu_ is taken internally for map consistency) ------------------------
  std::optional<Row> Get(const std::string& ekey) const;
  bool Contains(const std::string& ekey) const;
  // Applies a committed write (commit path only).
  void ApplyPut(const std::string& ekey, Row row);
  void ApplyDelete(const std::string& ekey);

  // All committed rows whose encoded key starts with `prefix` ("" = whole
  // partition), in key order, as pairs of (encoded key, shared row).
  std::vector<std::pair<std::string, Row>> SnapshotPrefix(const std::string& prefix) const;

  size_t row_count() const override;
  size_t data_bytes() const override;  // committed payload + key bytes

 private:
  struct LockState {
    TxId exclusive = 0;             // 0 = none
    std::vector<TxId> shared;       // holders
    uint32_t waiters = 0;
  };

  bool Grantable(const LockState& ls, TxId tx, LockMode mode) const;

  mutable std::shared_mutex rows_mu_;
  std::map<std::string, Row> rows_;  // primary ordered index
  size_t data_bytes_ = 0;

  mutable std::mutex lock_mu_;
  // Shared by every row of the partition; notified only when a released
  // row has waiters.
  std::condition_variable lock_released_;
  std::unordered_map<std::string, LockState> locks_;
};

}  // namespace hops::ndb
