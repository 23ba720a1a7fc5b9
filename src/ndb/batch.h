// Batched database operations (paper §6.3-6.4).
//
// HopsFS keeps round trips off the metadata hot path by staging many
// primary-key reads, partition-pruned scans, and row writes into a single
// batch that the transaction coordinator executes in one network round trip,
// fanning out to the touched partitions in parallel. A ReadBatch may mix
// point gets (per-slot lock mode) and pruned scans across tables; a
// WriteBatch stages inserts/updates/upserts/deletes. Execution groups the
// operations by partition; the 2PL engine acquires every row lock in one
// global (table, partition, encoded-key) order, so two concurrent batches can
// never deadlock against each other regardless of the order their ops were
// staged.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ndb/schema.h"
#include "ndb/value.h"

namespace hops::kv {
class TxnSkeleton;
}  // namespace hops::kv

namespace hops::ndb {

class Transaction;

// How an access claims the rows it reads (paper §2.2.2).
//  * kReadCommitted: the latest committed version; never blocks, no
//    stability past the read itself.
//  * kShared: the value read stays unchanged until commit.
//  * kExclusive: kShared's guarantee plus the intent to write.
enum class LockMode : uint8_t { kReadCommitted, kShared, kExclusive };

// How a batch's row locks are ordered during acquisition.
//  * kGlobalOrder (default): the whole lock set is sorted into the global
//    (table, partition, encoded-key) order -- deadlock-free against every
//    other kGlobalOrder batch regardless of staging order, including other
//    batches pipelined in the same flush window. The guarantee covers point
//    gets and writes, whose keys are known up front. A *locking* scan's row
//    set is only discovered during execution, so (as in NDB) its locks are
//    taken row-by-row at that point; a locking scan that holds its locks
//    can therefore still deadlock against other lock holders and falls back
//    to the lock-wait timeout. The take-and-release quiesce scan holds at
//    most one transient lock and cannot participate in a cycle.
//  * kStagedOrder: locks are taken exactly in staging order. For callers
//    whose deadlock-freedom argument is an *external* total order (the
//    rename lock phase stages its items in left-ordered path order, the
//    same order per-row lockers like mkdir/create follow), so batching the
//    reads must not re-sort the waits. A kStagedOrder batch always flushes
//    as its own window -- it never shares a flush with other batches, whose
//    global-order guarantee would otherwise be voided.
enum class BatchLockOrder : uint8_t { kGlobalOrder, kStagedOrder };

struct ScanOptions {
  LockMode lock = LockMode::kReadCommitted;
  // Acquire then immediately release each row lock: the subtree-quiesce
  // primitive of paper §6.1 phase 2 (waits out in-flight writers).
  bool take_and_release = false;
  // Optional equality filter on a non-key column: (column index, value).
  std::optional<std::pair<size_t, Value>> eq_filter;
  // Optional arbitrary row predicate, applied after eq_filter.
  std::function<bool(const Row&)> predicate;
};

// A staged set of reads executed together by kv::Txn::Execute (one
// round trip) or pipelined through kv::Txn::ExecuteAsync (several
// batches sharing one overlapped round-trip window). Staging calls return a
// slot index; results are read back by slot after execution.
class ReadBatch {
 public:
  explicit ReadBatch(BatchLockOrder lock_order = BatchLockOrder::kGlobalOrder)
      : lock_order_(lock_order) {}

  // Primary-key get; result slot is nullopt when the row does not exist
  // (locked gets still lock the missing key, guarding the insert slot).
  size_t Get(TableId table, Key key, LockMode mode = LockMode::kReadCommitted,
             std::optional<uint64_t> pv = std::nullopt);
  // Partition-pruned prefix scan within the partition `prefix`/`pv` routes to.
  size_t Scan(TableId table, Key prefix, ScanOptions opts = {},
              std::optional<uint64_t> pv = std::nullopt);

  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }
  bool executed() const { return executed_; }
  BatchLockOrder lock_order() const { return lock_order_; }

  // Result accessors; valid only after a successful Execute (or, on the
  // pipelined path, after the batch's kv::Pending::Wait succeeded).
  const std::optional<Row>& row(size_t slot) const;
  const std::vector<Row>& rows(size_t slot) const;

 private:
  friend class ::hops::kv::TxnSkeleton;  // routes and executes the ops
  friend class Transaction;              // 2PL: locks a routed window's rows
  struct Op {
    enum class Kind : uint8_t { kGet, kScan };
    Kind kind = Kind::kGet;
    TableId table = 0;
    Key key;  // full PK for gets, PK prefix for scans
    LockMode mode = LockMode::kReadCommitted;
    ScanOptions opts;  // scans only
    std::optional<uint64_t> pv;
    // Filled during execution:
    uint32_t partition = 0;
    std::string ekey;
    std::optional<Row> row;  // get result
    std::vector<Row> rows;   // scan result
  };
  const BatchLockOrder lock_order_ = BatchLockOrder::kGlobalOrder;
  std::vector<Op> ops_;
  bool executed_ = false;
};

// A staged set of writes claimed and validated together by
// kv::Txn::Execute (the staged rows are applied at commit, as for the
// per-row write calls), or pipelined through kv::Txn::ExecuteAsync. On
// error the batch is partially staged; callers are
// expected to abort the transaction, as they would after any failed write.
class WriteBatch {
 public:
  void Insert(TableId table, Row row, std::optional<uint64_t> pv = std::nullopt);
  void Update(TableId table, Row row, std::optional<uint64_t> pv = std::nullopt);
  // Upsert (NDB "write").
  void Write(TableId table, Row row, std::optional<uint64_t> pv = std::nullopt);
  void Delete(TableId table, Key key, std::optional<uint64_t> pv = std::nullopt);
  // Delete that succeeds (as a no-op) when the row is already gone.
  void DeleteIfExists(TableId table, Key key, std::optional<uint64_t> pv = std::nullopt);

  size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }
  bool executed() const { return executed_; }

 private:
  friend class ::hops::kv::TxnSkeleton;  // routes and executes the ops
  friend class Transaction;              // 2PL: locks a routed window's rows
  struct Op {
    enum class Kind : uint8_t { kInsert, kUpdate, kWrite, kDelete };
    Kind kind = Kind::kWrite;
    TableId table = 0;
    Row row;  // empty for deletes
    Key key;  // deletes only (extracted from `row` otherwise)
    std::optional<uint64_t> pv;
    bool ignore_missing = false;  // deletes: tolerate an absent row
    // Filled during execution:
    uint32_t partition = 0;
    std::string ekey;
  };
  std::vector<Op> ops_;
  bool executed_ = false;
};

}  // namespace hops::ndb
