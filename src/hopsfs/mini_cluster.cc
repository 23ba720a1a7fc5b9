#include "hopsfs/mini_cluster.h"

#include <cstdlib>

namespace hops::fs {

namespace {

// Fail-fast validation of the combined engine + filesystem knob set. Every
// rejected combination here either crashed an assert deep in the engine or
// silently misbehaved (a zero-wide pipeline window); surfacing them at
// construction names the knob instead.
hops::Status ValidateOptions(const MiniClusterOptions& o) {
  if (o.db.num_datanodes == 0) {
    return hops::Status::InvalidArgument("db.num_datanodes must be > 0");
  }
  if (o.db.replication == 0) {
    return hops::Status::InvalidArgument("db.replication must be > 0");
  }
  if (o.db.num_datanodes % o.db.replication != 0) {
    return hops::Status::InvalidArgument(
        "db.num_datanodes must be a multiple of db.replication (node groups are "
        "replication-sized)");
  }
  if (o.db.max_in_flight_batches == 0) {
    return hops::Status::InvalidArgument(
        "db.max_in_flight_batches must be > 0 (a zero-wide pipeline window can never flush)");
  }
  if (o.num_namenodes <= 0) {
    return hops::Status::InvalidArgument("num_namenodes must be > 0");
  }
  if (o.num_datanodes < 0) {
    return hops::Status::InvalidArgument("num_datanodes must be >= 0");
  }
  if (o.fs.num_handlers < 0) {
    return hops::Status::InvalidArgument("fs.num_handlers must be >= 0 (0 = inline execution)");
  }
  if (o.fs.max_tx_retries < 1) {
    return hops::Status::InvalidArgument(
        "fs.max_tx_retries must be >= 1 (every transactional op needs at least one attempt)");
  }
  if (o.fs.max_subtree_wait_retries < 0) {
    return hops::Status::InvalidArgument("fs.max_subtree_wait_retries must be >= 0");
  }
  if (o.fs.random_partition_depth < 0) {
    return hops::Status::InvalidArgument("fs.random_partition_depth must be >= 0");
  }
  if (o.fs.id_chunk_size < 1) {
    return hops::Status::InvalidArgument("fs.id_chunk_size must be >= 1");
  }
  if (o.fs.subtree_delete_batch < 1) {
    return hops::Status::InvalidArgument("fs.subtree_delete_batch must be >= 1");
  }
  if (o.fs.subtree_parallelism < 1) {
    return hops::Status::InvalidArgument("fs.subtree_parallelism must be >= 1");
  }
  if (o.fs.async_metadata_commit && o.fs.intent_apply_batch < 1) {
    return hops::Status::InvalidArgument(
        "fs.intent_apply_batch must be >= 1 when fs.async_metadata_commit is on");
  }
  return hops::Status::Ok();
}

}  // namespace

MiniCluster::MiniCluster(MiniClusterOptions options, std::unique_ptr<kv::Engine> db,
                         MetadataSchema schema)
    : options_(std::move(options)), db_(std::move(db)), schema_(schema) {}

hops::Result<std::unique_ptr<MiniCluster>> MiniCluster::Start(MiniClusterOptions options) {
  // HOPS_KV_ENGINE wins over the configured backend, so a whole test or
  // bench binary can be re-run against the other engine without a rebuild.
  if (const char* env = std::getenv("HOPS_KV_ENGINE"); env != nullptr && *env != '\0') {
    auto kind = kv::ParseEngineKind(env);
    if (!kind) {
      return hops::Status::InvalidArgument(
          std::string("unrecognized HOPS_KV_ENGINE value: ") + env);
    }
    options.fs.kv_engine = *kind;
  }
  HOPS_RETURN_IF_ERROR(ValidateOptions(options));
  auto db = kv::MakeEngine(options.fs.kv_engine, options.db);
  HOPS_ASSIGN_OR_RETURN(schema, MetadataSchema::Format(*db));
  std::unique_ptr<MiniCluster> cluster(
      new MiniCluster(std::move(options), std::move(db), schema));
  for (int i = 0; i < cluster->options_.num_datanodes; ++i) {
    cluster->datanodes_.push_back(std::make_unique<Datanode>(i + 1));
  }
  for (int i = 0; i < cluster->options_.num_namenodes; ++i) {
    auto nn = std::make_unique<Namenode>(cluster->db_.get(), &cluster->schema_,
                                         &cluster->options_.fs,
                                         "nn-slot-" + std::to_string(i));
    HOPS_RETURN_IF_ERROR(nn->Start());
    cluster->InstallDatanodePicker(*nn);
    cluster->namenodes_.push_back(std::move(nn));
  }
  cluster->num_namenode_slots_ = static_cast<int>(cluster->namenodes_.size());
  cluster->TickHeartbeats();
  return cluster;
}

void MiniCluster::InstallDatanodePicker(Namenode& nn) {
  nn.SetDatanodePicker([this](int count) { return PickDatanodes(count); });
}

Namenode& MiniCluster::namenode(int i) {
  std::lock_guard<std::mutex> lock(nn_mu_);
  return *namenodes_[static_cast<size_t>(i)];
}

std::vector<Namenode*> MiniCluster::AliveNamenodes() {
  std::lock_guard<std::mutex> lock(nn_mu_);
  std::vector<Namenode*> alive;
  for (auto& nn : namenodes_) {
    if (nn && nn->alive()) alive.push_back(nn.get());
  }
  return alive;
}

Namenode* MiniCluster::leader() {
  std::lock_guard<std::mutex> lock(nn_mu_);
  for (auto& nn : namenodes_) {
    if (nn && nn->alive() && nn->IsLeader()) return nn.get();
  }
  return nullptr;
}

Datanode* MiniCluster::FindDatanode(DatanodeId id) {
  for (auto& dn : datanodes_) {
    if (dn->id() == id) return dn.get();
  }
  return nullptr;
}

std::vector<DatanodeId> MiniCluster::PickDatanodes(int count) {
  std::vector<DatanodeId> targets;
  const size_t n = datanodes_.size();
  const size_t start = dn_rr_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < n && targets.size() < static_cast<size_t>(count); ++i) {
    Datanode& dn = *datanodes_[(start + i) % n];
    if (dn.alive()) targets.push_back(dn.id());
  }
  return targets;
}

ClusterHintStats MiniCluster::AggregateHintStats() {
  std::lock_guard<std::mutex> lock(nn_mu_);
  ClusterHintStats out;
  auto add = [&out](Namenode& nn) {
    InodeHintCache::Stats s = nn.hint_cache().stats();
    out.cache.hits += s.hits;
    out.cache.misses += s.misses;
    out.cache.evictions += s.evictions;
    out.cache.invalidations += s.invalidations;
  };
  for (auto& nn : namenodes_) {
    if (nn) add(*nn);
  }
  for (auto& nn : retired_) {
    if (nn) add(*nn);
  }
  return out;
}

ClusterIntentStats MiniCluster::AggregateIntentStats() {
  std::lock_guard<std::mutex> lock(nn_mu_);
  ClusterIntentStats out;
  auto add = [&out](Namenode& nn) {
    IntentLogStats s = nn.intent_stats();
    out.log.intents_appended += s.intents_appended;
    out.log.intents_applied += s.intents_applied;
    out.log.intents_coalesced += s.intents_coalesced;
    out.log.apply_failures += s.apply_failures;
    out.log.acked_ops += s.acked_ops;
    out.log.ack_latency_us += s.ack_latency_us;
    out.log.apply_latency_us += s.apply_latency_us;
    out.log.covering_waits += s.covering_waits;
    out.intents_adopted += nn.intents_adopted();
  };
  for (auto& nn : namenodes_) {
    if (nn) add(*nn);
  }
  for (auto& nn : retired_) {
    if (nn) add(*nn);
  }
  return out;
}

void MiniCluster::DrainIntents() {
  // Snapshot outside the namenode calls: FlushIntents blocks on the apply
  // pipeline, and holding nn_mu_ there would stall client threads picking
  // namenodes. The pointers stay valid (graveyard) even if a slot restarts
  // mid-drain.
  for (Namenode* nn : AliveNamenodes()) nn->FlushIntents();
}

void MiniCluster::KillNamenode(int i) {
  Namenode* nn;
  {
    std::lock_guard<std::mutex> lock(nn_mu_);
    nn = namenodes_[static_cast<size_t>(i)].get();
  }
  nn->Kill();
}

hops::Status MiniCluster::RestartNamenode(int i) {
  // A restarted namenode gets a new id from the election service (§3).
  auto nn = std::make_unique<Namenode>(db_.get(), &schema_, &options_.fs,
                                       "nn-slot-" + std::to_string(i));
  HOPS_RETURN_IF_ERROR(nn->Start());
  InstallDatanodePicker(*nn);
  std::lock_guard<std::mutex> lock(nn_mu_);
  auto& slot = namenodes_[static_cast<size_t>(i)];
  if (slot) {
    // Retire, don't destroy: clients may hold raw pointers (sticky policy)
    // or be mid-call on the old instance. Kill first so every such call
    // fails over instead of mutating state under a replaced identity.
    slot->Kill();
    retired_.push_back(std::move(slot));
  }
  slot = std::move(nn);
  return hops::Status::Ok();
}

hops::Status MiniCluster::RestartNamenodeSameId(int i) {
  NamenodeId old_id;
  {
    std::lock_guard<std::mutex> lock(nn_mu_);
    auto& slot = namenodes_[static_cast<size_t>(i)];
    old_id = slot->id();
    slot->Kill();
  }
  auto nn = std::make_unique<Namenode>(db_.get(), &schema_, &options_.fs,
                                       "nn-slot-" + std::to_string(i));
  // Resume the old identity: election counter continues (no false-death
  // window) and the start-up sweep replays this id's own surviving intent
  // partition, so ops acked by the previous incarnation are not stranded.
  HOPS_RETURN_IF_ERROR(nn->Start(old_id));
  InstallDatanodePicker(*nn);
  std::lock_guard<std::mutex> lock(nn_mu_);
  auto& slot = namenodes_[static_cast<size_t>(i)];
  if (slot) retired_.push_back(std::move(slot));
  slot = std::move(nn);
  return hops::Status::Ok();
}

void MiniCluster::TickHeartbeats(int rounds) {
  for (int r = 0; r < rounds; ++r) {
    for (Namenode* nn : AliveNamenodes()) (void)nn->Heartbeat();
  }
}

Client MiniCluster::NewClient(NamenodePolicy policy, const std::string& name,
                              uint64_t seed) {
  return Client([this] { return AliveNamenodes(); }, policy, name, seed);
}

hops::Status MiniCluster::PipelineWrite(const LocatedBlock& block) {
  for (DatanodeId id : block.locations) {
    Datanode* dn = FindDatanode(id);
    if (dn == nullptr || !dn->alive()) continue;
    dn->StoreBlock(block.block_id);
    auto alive = AliveNamenodes();
    if (alive.empty()) return hops::Status::Unavailable("no alive namenode");
    HOPS_RETURN_IF_ERROR(alive.front()->BlockReceived(id, block.block_id));
  }
  return hops::Status::Ok();
}

}  // namespace hops::fs
