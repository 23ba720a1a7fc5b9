// A table partition: committed rows in an ordered primary index, plus a
// row-level lock table.
//
// Lock semantics mirror NDB (paper §2.2.2): shared and exclusive row locks,
// plus read-committed reads that never block -- they return the last
// committed version even while another transaction holds an exclusive lock
// (staged writes live in the transaction until commit, so the committed
// version is always the one stored here). Deadlocks are resolved by lock-wait
// timeout, as NDB does.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
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

  // --- Committed data (callers must hold the row lock for locked reads; the
  // partition mutex is taken internally for map consistency) ---------------
  std::optional<Row> Get(const std::string& ekey) const;
  bool Contains(const std::string& ekey) const;
  // Applies a committed write (commit path only).
  void ApplyPut(const std::string& ekey, Row row);
  void ApplyDelete(const std::string& ekey);

  // Copies all committed rows whose encoded key starts with `prefix`
  // ("" = whole partition). Returns pairs of (encoded key, row).
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

  mutable std::mutex mu_;
  std::condition_variable lock_released_;
  std::map<std::string, Row> rows_;                    // primary ordered index
  std::unordered_map<std::string, LockState> locks_;
  size_t data_bytes_ = 0;
};

}  // namespace hops::ndb
