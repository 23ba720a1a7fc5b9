#include "ndb/cluster.h"

#include <cassert>

#include "util/hash.h"

namespace hops::ndb {

Cluster::Cluster(ClusterConfig config) : config_(config) {
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

hops::Result<TableId> Cluster::CreateTable(Schema schema) {
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
    t->partitions.push_back(std::make_unique<Partition>(p));
  }
  std::lock_guard<std::mutex> lock(tables_mu_);
  tables_.push_back(std::move(t));
  return static_cast<TableId>(tables_.size() - 1);
}

const Schema& Cluster::schema(TableId id) const { return table(id).schema; }

std::optional<TableId> Cluster::FindTable(std::string_view name) const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  for (size_t i = 0; i < tables_.size(); ++i) {
    if (tables_[i]->schema.table_name == name) return static_cast<TableId>(i);
  }
  return std::nullopt;
}

const Cluster::Table& Cluster::table(TableId id) const {
  std::lock_guard<std::mutex> lock(tables_mu_);
  assert(id < tables_.size());
  return *tables_[id];
}

Cluster::Table& Cluster::table(TableId id) {
  std::lock_guard<std::mutex> lock(tables_mu_);
  assert(id < tables_.size());
  return *tables_[id];
}

std::unique_ptr<Transaction> Cluster::Begin(std::optional<TxHint> hint) {
  uint32_t coordinator = 0;
  bool placed = false;
  if (hint) {
    uint32_t partition = PartitionForValue(hint->partition_value);
    if (auto primary = PrimaryNode(partition)) {
      coordinator = *primary;
      placed = true;
    }
    // An incorrect or unroutable hint costs extra traffic but is otherwise
    // harmless (paper §2.2); fall through to round-robin placement.
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
  return std::unique_ptr<Transaction>(new Transaction(this, id, coordinator));
}

void Cluster::KillDatanode(uint32_t node) {
  assert(node < config_.num_datanodes);
  node_alive_[node].store(false, std::memory_order_release);
}

void Cluster::RestartDatanode(uint32_t node) {
  assert(node < config_.num_datanodes);
  // Node recovery copies partition state back from its group peers (NDB
  // node-level recovery); data here is shared per group so nothing to do.
  node_alive_[node].store(true, std::memory_order_release);
}

bool Cluster::IsAlive(uint32_t node) const {
  return node_alive_[node].load(std::memory_order_acquire);
}

uint32_t Cluster::NumAliveNodes() const {
  uint32_t n = 0;
  for (const auto& a : node_alive_) n += a.load(std::memory_order_acquire) ? 1 : 0;
  return n;
}

bool Cluster::Available() const {
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

uint32_t Cluster::PartitionForValue(uint64_t partition_value) const {
  return static_cast<uint32_t>(HashU64(partition_value) % num_partitions_);
}

std::optional<uint32_t> Cluster::PrimaryNode(uint32_t partition) const {
  uint32_t group = GroupOf(partition);
  for (uint32_t r = 0; r < config_.replication; ++r) {
    uint32_t node = group * config_.replication + r;
    if (IsAlive(node)) return node;
  }
  return std::nullopt;
}

bool Cluster::PartitionAvailable(uint32_t partition) const {
  return PrimaryNode(partition).has_value();
}

hops::Result<uint32_t> Cluster::Route(const Table& t, const Key& pk_values,
                                      std::optional<uint64_t> pv) const {
  if (pv) return PartitionForValue(*pv);
  if (t.schema.requires_explicit_partition) {
    return hops::Status::InvalidArgument(t.schema.table_name +
                                         " requires an explicit partition value");
  }
  // Hash the encoded partition-key column values, which must all be present
  // in the supplied key/prefix.
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

ClusterStats Cluster::StatsSnapshot() const {
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
  s.lock_timeouts = stats_.lock_timeouts.load(std::memory_order_relaxed);
  s.lock_waits = stats_.lock_waits.load(std::memory_order_relaxed);
  s.round_trips = stats_.round_trips.load(std::memory_order_relaxed);
  s.overlapped_round_trips = stats_.overlapped_round_trips.load(std::memory_order_relaxed);
  return s;
}

void Cluster::ResetStats() {
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
  stats_.lock_timeouts = 0;
  stats_.lock_waits = 0;
  stats_.round_trips = 0;
  stats_.overlapped_round_trips = 0;
}

size_t Cluster::TableRowCount(TableId id) const {
  const Table& t = table(id);
  size_t n = 0;
  for (const auto& p : t.partitions) n += p->row_count();
  return n;
}

size_t Cluster::TableMemoryBytes(TableId id) const {
  const Table& t = table(id);
  size_t bytes = 0;
  for (const auto& p : t.partitions) {
    bytes += p->data_bytes() + p->row_count() * kPerRowOverheadBytes;
  }
  return bytes * config_.replication;
}

size_t Cluster::TotalMemoryBytes() const {
  size_t total = 0;
  size_t n;
  {
    std::lock_guard<std::mutex> lock(tables_mu_);
    n = tables_.size();
  }
  for (size_t i = 0; i < n; ++i) total += TableMemoryBytes(static_cast<TableId>(i));
  return total;
}

std::string_view AccessKindName(AccessKind kind) {
  switch (kind) {
    case AccessKind::kPkRead: return "PK";
    case AccessKind::kPkWrite: return "PKW";
    case AccessKind::kBatchRead: return "B";
    case AccessKind::kPpis: return "PPIS";
    case AccessKind::kIndexScan: return "IS";
    case AccessKind::kFullTableScan: return "FTS";
    case AccessKind::kCommit: return "COMMIT";
  }
  return "?";
}

}  // namespace hops::ndb
