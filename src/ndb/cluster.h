// The NDB cluster engine: shared-nothing partitioned storage, node groups
// with replication, transaction coordinators at every datanode, and
// transactions with row locks + two-phase commit.
//
// This is the substrate the paper stores HopsFS metadata in (§2.2):
//  * tables are hash partitioned (application-defined partitioning supported
//    through explicit per-access partition values);
//  * partitions are assigned to node groups of `replication` datanodes; a
//    partition is available while any node of its group is alive, and the
//    cluster is unavailable if a whole group dies (§7.6.2);
//  * transactions start on a coordinator chosen by a distribution-aware hint
//    so single-partition work is node-local (§2.2, DAT);
//  * isolation is read-committed with explicit shared/exclusive row locks
//    (§2.2.2); deadlock resolution is by lock-wait timeout;
//  * a transaction coordinator failure aborts its transactions, which the
//    namenodes transparently retry (§7.6.2).
//
// Topology, routing, windows, staging and accounting come from the shared
// kv skeleton (kv/skeleton.h); this engine adds the 2PL policy: row locks
// taken eagerly at access time (a window's whole lock set in the global
// (table, partition, encoded key) order) and released at commit or abort.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "kv/skeleton.h"
#include "ndb/partition.h"

namespace hops::ndb {

using ClusterConfig = kv::EngineConfig;

class Cluster;

class Transaction final : public kv::TxnSkeleton {
 public:
  ~Transaction() override { Abort(); }

 private:
  friend class Cluster;
  Transaction(Cluster* cluster, TxId id, uint32_t coordinator);

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

  hops::Status AcquireRowLock(TableId table, uint32_t partition, const std::string& ekey,
                              LockMode mode);
  // One row lock wanted by a window. A window acquires its whole lock set
  // through AcquireLockSet, which sorts by (table, partition, ekey) -- the
  // global deadlock-free order -- and dedupes to the strongest mode.
  struct LockRequest {
    TableId table;
    uint32_t partition;
    std::string ekey;
    LockMode mode;
  };
  hops::Status AcquireLockSet(std::vector<LockRequest> requests, uint32_t* fresh_locks);
  // Which write members would have paid their own round trip on the
  // synchronous path: those with some lock in their plan not already
  // exclusive-held -- by the transaction, or by an earlier member of the
  // same window.
  void ComputeWindowPays(const std::vector<InFlightBatch>& flight,
                         const std::vector<std::vector<LockRequest>>& plans,
                         std::vector<bool>& pays) const;

  Cluster* const cluster_;
  // (table, partition, encoded key) -> strongest mode held. The map form
  // dedupes repeated acquisitions and tracks shared->exclusive upgrades.
  std::map<std::tuple<TableId, uint32_t, std::string>, LockMode> held_locks_;
};

class Cluster final : public kv::EngineSkeleton {
 public:
  explicit Cluster(ClusterConfig config) : EngineSkeleton(config) {}

  kv::EngineKind kind() const override { return kv::EngineKind::kNdb; }

 private:
  friend class Transaction;

  std::unique_ptr<kv::PartitionStore> NewPartition() override {
    return std::make_unique<Partition>();
  }
  std::unique_ptr<kv::Txn> NewTxn(TxId id, uint32_t coordinator) override;
  Partition& part(TableId table, uint32_t partition) const {
    return static_cast<Partition&>(this->partition(table, partition));
  }
};

}  // namespace hops::ndb
