// kv::Engine backend #2: an optimistic-concurrency MVCC engine
// (FoundationDB-style, per the 3FS integration notes). Topology, routing,
// flush windows, the staged write set and the cost accounting come from the
// shared skeleton (kv/skeleton.h); this file is only the OCC policy.
//
// Concurrency model (backward-oriented OCC, first-committer-wins):
//  * Every committed row carries the commit version that installed it;
//    deletes install tombstones (version + no payload), so "the row changed"
//    and "the row vanished" validate identically.
//  * Reads never block and take no row locks. kReadCommitted reads return the
//    latest committed version and are not validated -- exactly the stability
//    the 2PL engine's unlocked reads give. kShared/kExclusive reads are
//    recorded in the transaction's READ SET with the version they observed
//    (0 = key absent: the insert-guard observation).
//  * Locking scans record each scanned partition in the RANGE SET as
//    (table, partition, encoded prefix, version-at-scan); validation
//    re-walks the range and fails if any key under the prefix -- including
//    tombstones -- carries a newer version. This is the phantom check a 2PL
//    locking scan gets from holding its row locks.
//  * Existence-checking writes (insert/update/delete) record a read-set
//    observation so a racing writer is caught. When such a check fails
//    (AlreadyExists/NotFound) against a version newer than the one the
//    transaction observed earlier -- say an X-read saw the key absent, then
//    a peer committed it -- the write returns kConflict, counted as a key
//    conflict: the commit could not validate, and the failure is an answer
//    the transaction's own snapshot never gave. Blind upserts (Write) stage
//    without observation -- last-writer-wins, the same outcome 2PL
//    serializes to.
//  * Committed versions hold immutable shared rows (Row): reads and scans
//    take a reference, never a deep copy, and an install replaces a key's
//    row instead of editing it, so a row already handed out keeps its
//    values.
//  * Each partition's version map sits behind a reader/writer lock:
//    point reads, scans and the commit-time range re-walk take it shared,
//    and only the install loop takes it exclusive, once per staged row, for
//    a map update and the row's cached footprint. It keeps the map
//    consistent; what orders commits is the next point.
//  * Commit validates the read and range sets and installs the write set
//    under one global commit mutex, at a single new commit version. The
//    install moves each staged row into the store and parks the version it
//    replaces in the write set, which frees it after the mutex is released.
//    The published version counter is bumped only AFTER the install completes,
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
// Cost model: the skeleton's, with "the key's state is already known
// client-side" (read or written earlier in the transaction) standing in for
// 2PL's "lock already held" -- an existence-checking write costs a trip only
// for a new key, and a blind upsert is a pure client-side buffer append.
// Tombstones are never garbage-collected -- deleted keys leave a version
// marker whose memory is excluded from the table-size accounting.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "kv/skeleton.h"

namespace hops::kv {

class OccEngine;

class OccTxn final : public TxnSkeleton {
 public:
  ~OccTxn() override { Abort(); }

 private:
  friend class OccEngine;

  // One validated point observation: the version the transaction saw for a
  // key (0 = absent). Exact-match validated at commit.
  struct ReadObs {
    uint32_t partition = 0;
    uint64_t version = 0;
  };
  // One validated scan of one partition: no key under eprefix may carry a
  // version newer than seen_version at commit.
  struct RangeObs {
    TableId table = 0;
    uint32_t partition = 0;
    std::string eprefix;
    uint64_t seen_version = 0;
  };

  OccTxn(OccEngine* engine, TxId id, uint32_t coordinator);

  hops::Result<std::optional<Row>> ReadRow(TableId table, uint32_t partition,
                                           const std::string& ekey, LockMode mode) override;
  bool CommittedExists(TableId table, uint32_t partition, const std::string& ekey) override;
  hops::Status ExistenceCheckFailed(TableId table, uint32_t partition, const std::string& ekey,
                                    hops::Status failure) override;
  hops::Result<bool> ClaimWrite(TableId table, uint32_t partition, const std::string& ekey,
                                bool blind) override;
  hops::Status ClaimWindow(const std::vector<InFlightBatch>& flight, std::vector<bool>& pays,
                           bool& fresh) override;
  CommittedRows CommittedRange(TableId table, uint32_t partition, const std::string& eprefix,
                               const ScanOptions& opts) override;
  hops::Result<bool> HoldScanRow(TableId table, uint32_t partition, const std::string& ekey,
                                 const ScanOptions& opts, Row& row) override;
  hops::Status InstallWriteSet() override;
  void ReleaseRow(TableId table, uint32_t partition, const std::string& ekey) override;
  void ReleaseAll() override;

  // Latest committed version of (table, partition, ekey); 0 = never existed.
  // `live_row`, when non-null, receives the row if it is live (non-tombstone).
  uint64_t CommittedVersion(TableId table, uint32_t partition, const std::string& ekey,
                            std::optional<Row>* live_row) const;
  void Observe(TableId table, uint32_t partition, const std::string& ekey, uint64_t version);

  OccEngine* const occ_;
  std::map<std::pair<TableId, std::string>, ReadObs> read_set_;
  std::vector<RangeObs> range_set_;
};

class OccEngine final : public EngineSkeleton {
 public:
  explicit OccEngine(EngineConfig config) : EngineSkeleton(config) {}

  EngineKind kind() const override { return EngineKind::kOcc; }

 private:
  friend class OccTxn;

  struct VersionedRow {
    uint64_t version = 0;
    bool tombstone = false;
    Row row;
  };
  struct OccPartition final : PartitionStore {
    size_t row_count() const override {
      std::shared_lock<std::shared_mutex> lock(mu);
      return live_rows;
    }
    size_t data_bytes() const override {
      std::shared_lock<std::shared_mutex> lock(mu);
      return live_bytes;
    }

    // Shared for reads and validation walks, exclusive for installs.
    mutable std::shared_mutex mu;
    std::map<std::string, VersionedRow> rows;  // ordered: prefix scans + range checks
    size_t live_rows = 0;
    size_t live_bytes = 0;  // live payload + key bytes (tombstones excluded)
  };

  std::unique_ptr<PartitionStore> NewPartition() override {
    return std::make_unique<OccPartition>();
  }
  std::unique_ptr<Txn> NewTxn(TxId id, uint32_t coordinator) override;
  OccPartition& part(TableId table, uint32_t partition) const {
    return static_cast<OccPartition&>(this->partition(table, partition));
  }

  // Commits serialize here: validate, install at published+1, then publish.
  // Both are shared by every handler thread, so each starts a cache line.
  alignas(64) std::mutex commit_mu_;
  alignas(64) std::atomic<uint64_t> commit_version_{0};
};

}  // namespace hops::kv
