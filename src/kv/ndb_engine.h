// kv::Engine backend #1: the NDB-style pessimistic 2PL cluster (src/ndb),
// wrapped behind the engine boundary. Thin forwarding shims -- every
// semantic (eager row locks, lock-wait-timeout deadlock resolution,
// pipelined window flushing, cost accounting) lives in ndb::Cluster /
// ndb::Transaction; this layer only adapts the async-batch handle plumbing.
#pragma once

#include <map>

#include "kv/kv.h"

namespace hops::kv {

class NdbEngine;

class NdbTxn final : public Txn {
 public:
  explicit NdbTxn(std::unique_ptr<ndb::Transaction> tx) : tx_(std::move(tx)) {}

  TxId id() const override { return tx_->id(); }
  uint32_t coordinator() const override { return tx_->coordinator(); }

  hops::Result<Row> Read(TableId table, const Key& key, LockMode mode,
                         std::optional<uint64_t> pv) override {
    return tx_->Read(table, key, mode, pv);
  }
  hops::Result<std::vector<std::optional<Row>>> BatchRead(
      TableId table, const std::vector<Key>& keys, LockMode mode,
      const std::vector<uint64_t>* pvs) override {
    return tx_->BatchRead(table, keys, mode, pvs);
  }
  hops::Status Insert(TableId table, Row row, std::optional<uint64_t> pv) override {
    return tx_->Insert(table, std::move(row), pv);
  }
  hops::Status Update(TableId table, Row row, std::optional<uint64_t> pv) override {
    return tx_->Update(table, std::move(row), pv);
  }
  hops::Status Write(TableId table, Row row, std::optional<uint64_t> pv) override {
    return tx_->Write(table, std::move(row), pv);
  }
  hops::Status Delete(TableId table, const Key& key, std::optional<uint64_t> pv) override {
    return tx_->Delete(table, key, pv);
  }

  size_t InFlightBatches() const override { return tx_->InFlightBatches(); }
  hops::Status FlushPending() override { return tx_->FlushPending(); }
  void UnlockRow(TableId table, const Key& key, std::optional<uint64_t> pv) override {
    tx_->UnlockRow(table, key, pv);
  }

  hops::Result<std::vector<Row>> Ppis(TableId table, const Key& prefix, const ScanOptions& opts,
                                      std::optional<uint64_t> pv) override {
    return tx_->Ppis(table, prefix, opts, pv);
  }
  hops::Result<std::vector<Row>> IndexScan(TableId table, const Key& prefix,
                                           const ScanOptions& opts) override {
    return tx_->IndexScan(table, prefix, opts);
  }
  hops::Result<std::vector<Row>> FullTableScan(TableId table, const ScanOptions& opts) override {
    return tx_->FullTableScan(table, opts);
  }

  hops::Status Commit() override { return tx_->Commit(); }
  void Abort() override { tx_->Abort(); }
  bool active() const override { return tx_->active(); }

  void EnableTrace() override { tx_->EnableTrace(); }
  const CostTrace& trace() const override { return tx_->trace(); }
  void SetBackground(bool background) override { tx_->SetBackground(background); }

 private:
  uint64_t PrepareAsync(ReadBatch* read, WriteBatch* write) override {
    ndb::PendingBatch pending =
        read != nullptr ? tx_->ExecuteAsync(*read) : tx_->ExecuteAsync(*write);
    const uint64_t seq = next_seq_++;
    pending_.emplace(seq, pending);
    return seq;
  }
  hops::Status WaitBatch(uint64_t seq) override {
    auto it = pending_.find(seq);
    if (it == pending_.end()) return hops::Status::InvalidArgument("unknown batch handle");
    return it->second.Wait();
  }
  bool BatchDone(uint64_t seq) const override {
    auto it = pending_.find(seq);
    return it != pending_.end() && it->second.done();
  }

  std::unique_ptr<ndb::Transaction> tx_;
  std::map<uint64_t, ndb::PendingBatch> pending_;
  uint64_t next_seq_ = 1;
};

class NdbEngine final : public Engine {
 public:
  explicit NdbEngine(EngineConfig config) : cluster_(config) {}

  EngineKind kind() const override { return EngineKind::kNdb; }
  hops::Result<TableId> CreateTable(Schema schema) override {
    return cluster_.CreateTable(std::move(schema));
  }
  const Schema& schema(TableId table) const override { return cluster_.schema(table); }
  std::optional<TableId> FindTable(std::string_view name) const override {
    return cluster_.FindTable(name);
  }

  std::unique_ptr<Txn> Begin(std::optional<TxHint> hint) override {
    return std::make_unique<NdbTxn>(cluster_.Begin(hint));
  }

  FaultInjector& fault_injector() override { return cluster_.fault_injector(); }
  void KillDatanode(uint32_t node) override { cluster_.KillDatanode(node); }
  void RestartDatanode(uint32_t node) override { cluster_.RestartDatanode(node); }
  bool IsAlive(uint32_t node) const override { return cluster_.IsAlive(node); }
  uint32_t NumAliveNodes() const override { return cluster_.NumAliveNodes(); }
  bool Available() const override { return cluster_.Available(); }

  const EngineConfig& config() const override { return cluster_.config(); }
  uint32_t num_datanodes() const override { return cluster_.num_datanodes(); }
  uint32_t num_partitions() const override { return cluster_.num_partitions(); }
  uint32_t num_node_groups() const override { return cluster_.num_node_groups(); }
  uint32_t PartitionForValue(uint64_t partition_value) const override {
    return cluster_.PartitionForValue(partition_value);
  }
  std::optional<uint32_t> PrimaryNode(uint32_t partition) const override {
    return cluster_.PrimaryNode(partition);
  }

  ClusterStats StatsSnapshot() const override { return cluster_.StatsSnapshot(); }
  void ResetStats() override { cluster_.ResetStats(); }
  size_t TableRowCount(TableId table) const override { return cluster_.TableRowCount(table); }
  size_t TotalMemoryBytes() const override { return cluster_.TotalMemoryBytes(); }
  size_t TableMemoryBytes(TableId table) const override {
    return cluster_.TableMemoryBytes(table);
  }
  uint64_t GlobalCheckpointEpoch() const override { return cluster_.GlobalCheckpointEpoch(); }

 private:
  ndb::Cluster cluster_;
};

}  // namespace hops::kv
