// Namenode core: the transactional inode-operation template of Figure 4
// (partition hints, batched path resolution via the inode hint cache with
// recursive fallback, total-order locking of the last path components,
// execute phase against decoded entities, batched update phase), plus the
// single-transaction file system operations.
#include "hopsfs/namenode.h"

#include <algorithm>
#include <cassert>
#include <thread>
#include <tuple>

#include "hopsfs/partition.h"
#include "hopsfs/retry.h"
#include "util/clock.h"

namespace hops::fs {

namespace {

// Permission bits wanted by CheckAccess.
constexpr int kRead = 4, kWrite = 2, kExec = 1;

kv::Key InodeKey(InodeId parent, const std::string& name) {
  return kv::Key{parent, name};
}

FileStatus StatusFromInode(const Inode& n, std::string path) {
  FileStatus st;
  st.path = std::move(path);
  st.name = n.name;
  st.inode_id = n.id;
  st.is_dir = n.is_dir;
  st.perm = n.perm;
  st.owner = n.owner;
  st.group = n.group;
  st.mtime = n.mtime;
  st.size = n.size;
  st.replication = n.replication;
  return st;
}

}  // namespace

// --- IdAllocator -------------------------------------------------------------

hops::Result<int64_t> IdAllocator::Next() {
  std::lock_guard<std::mutex> lock(mu_);
  if (next_ >= limit_) {
    const int64_t chunk = config_->id_chunk_size;
    HOPS_RETURN_IF_ERROR(RetryUntilTimeout(*config_, "id allocation", RetryOn::kTxAbort, [&] {
      auto tx = db_->Begin(kv::TxHint{schema_->variables, static_cast<uint64_t>(var_id_)});
      auto row = tx->Read(schema_->variables, {var_id_}, kv::LockMode::kExclusive);
      if (!row.ok()) return row.status();
      const int64_t base = (*row)[col::kVarValue].i64();
      HOPS_RETURN_IF_ERROR(tx->Update(schema_->variables, kv::Row{var_id_, base + chunk}));
      HOPS_RETURN_IF_ERROR(tx->Commit());
      next_ = base;
      limit_ = base + chunk;
      return hops::Status::Ok();
    }));
  }
  return next_++;
}

// --- Construction ------------------------------------------------------------

Namenode::Namenode(kv::Engine* db, const MetadataSchema* schema, const FsConfig* config,
                   std::string location)
    : db_(db),
      schema_(schema),
      config_(config),
      handlers_(config->num_handlers > 0 ? std::make_unique<HandlerPool>(config->num_handlers)
                                         : nullptr),
      intents_(config->async_metadata_commit
                   ? std::make_unique<IntentLog>(db, schema, config)
                   : nullptr),
      election_(db, schema, config, std::move(location)),
      hint_cache_(config->hint_cache_capacity),
      inode_ids_(db, schema, config, kVarNextInodeId),
      block_ids_(db, schema, config, kVarNextBlockId) {
  root_.parent_id = kInvalidInode;
  root_.name = "";
  root_.id = kRootInode;
  root_.is_dir = true;
  root_.owner = "hdfs";
  root_.group = "hdfs";
}

Namenode::~Namenode() {
  // The applier issues transactions and may publish acknowledgments to
  // waiting clients: stop it before anything else.
  if (intents_) intents_->Stop();
}

hops::Status Namenode::Start(std::optional<NamenodeId> resume_id) {
  if (resume_id) {
    HOPS_RETURN_IF_ERROR(election_.Resume(*resume_id));
  } else {
    HOPS_RETURN_IF_ERROR(election_.Register());
  }
  if (intents_) {
    intents_->Start(id_safe(),
                    [this](const IntentRecord& rec) { return ApplyIntent(rec); });
    // Restart recovery: durable intents left by namenodes now dead are
    // replayed before serving. A resumed identity replays its OWN partition
    // too -- the previous incarnation's acknowledged-but-unapplied ops would
    // otherwise be stranded, because the ordinary sweep (correctly) skips
    // the live self partition and no leader will ever see this id as dead.
    AdoptOrphanedIntents(/*include_self=*/resume_id.has_value());
  }
  return Heartbeat();
}

void Namenode::FlushIntents() {
  if (intents_) intents_->Flush();
}

void Namenode::SetIntentApplierPausedForTesting(bool paused) {
  if (intents_) intents_->SetApplierPausedForTesting(paused);
}

void Namenode::SetIntentAppendHoldForTesting(bool hold) {
  if (intents_) intents_->SetAppendHoldForTesting(hold);
}

size_t Namenode::IntentQueuedAppendsForTesting() const {
  return intents_ ? intents_->QueuedAppendsForTesting() : 0;
}

void Namenode::SetIntentCrashHookForTesting(IntentLog::CrashHook hook) {
  if (intents_) intents_->SetCrashHookForTesting(std::move(hook));
}

void Namenode::SetIntentCleanerPausedForTesting(bool paused) {
  if (intents_) intents_->SetCleanerPausedForTesting(paused);
}

IntentLogStats Namenode::intent_stats() const {
  return intents_ ? intents_->stats() : IntentLogStats{};
}

void Namenode::SetTraceSink(TraceSink sink) {
  if (intents_) intents_->SetTraceSink(sink);
  std::lock_guard<std::mutex> lock(trace_mu_);
  trace_sink_ = std::move(sink);
  tracing_.store(trace_sink_ != nullptr, std::memory_order_relaxed);
}

hops::Status Namenode::Heartbeat() {
  // A dead namenode must not advance its election counter: peers would read
  // the advance as liveness and defer adoption of its orphaned intents.
  HOPS_RETURN_IF_ERROR(CheckAlive());
  hops::Status st = election_.Heartbeat();
  // Failover adoption: once the membership view ages a dead namenode out,
  // the leader replays its acknowledged-but-unapplied intents.
  if (alive_ && intents_ && election_.IsLeader()) AdoptOrphanedIntents();
  return st;
}

void Namenode::SetDatanodePicker(std::function<std::vector<DatanodeId>(int)> picker) {
  std::lock_guard<std::mutex> lock(dn_picker_mu_);
  dn_picker_ = std::move(picker);
}

// --- Transaction runner ------------------------------------------------------

hops::Status Namenode::RunTx(std::optional<kv::TxHint> hint,
                             const std::function<hops::Status(kv::Txn&)>& body) {
  const bool want_trace = tracing_.load(std::memory_order_relaxed);
  // With a handler pool, each ATTEMPT holds one handler slot, while the
  // retry loop -- and in particular its subtree-wait backoff sleeps -- runs
  // outside it. A waiter must not hold a slot while it sleeps: the subtree
  // operation it is waiting out needs slots for its own phase transactions,
  // and sleeping waiters would starve it (priority inversion). Applier-issued
  // work takes no slot: the apply pool already bounds its own concurrency,
  // and gating it would both cap the drain at num_handlers and let
  // background applies crowd client ops out of the pool. An active subtree
  // operation owning part of the path is waited out like an abort (§6.3).
  const bool gated = handlers_ != nullptr && !IntentLog::OnApplierThread();
  return RetryUntilTimeout(*config_, /*stage=*/{}, RetryOn::kTxAbortOrSubtreeLock, [&] {
    return gated ? handlers_->Run([&] { return RunTxAttempt(hint, body, want_trace); })
                 : RunTxAttempt(hint, body, want_trace);
  });
}

hops::Status Namenode::RunTxAttempt(std::optional<kv::TxHint> hint,
                                    const std::function<hops::Status(kv::Txn&)>& body,
                                    bool want_trace) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  auto tx = db_->Begin(hint);
  if (want_trace) tx->EnableTrace();
  if (IntentLog::OnApplierThread()) tx->SetBackground(true);
  hops::Status st = body(*tx);
  if (st.ok()) {
    st = tx->Commit();
    if (st.ok() && want_trace) {
      std::lock_guard<std::mutex> lock(trace_mu_);
      if (trace_sink_) trace_sink_(tx->trace());
    }
    return st;
  }
  if (tx->active()) tx->Abort();
  return st;
}

// --- Path resolution & locking (Figure 4, lines 1-6) -------------------------

Namenode::SpeculativeRider Namenode::StageSpeculativeFanout(
    kv::Txn& tx, const std::vector<std::string>& components,
    std::initializer_list<kv::TableId> tables) {
  SpeculativeRider rider;
  if (components.size() < 2) return rider;
  // Non-counting probe: ResolveAndLock performs the counted lookup for the
  // operation right after; a counting probe here would double-book every
  // hit/miss and skew the reported hit rate.
  auto hints = hint_cache_.PeekChain(components);
  if (hints.size() < components.size()) return rider;
  const InodeHintCache::Hint& target_hint = hints[components.size() - 1];
  // Every rider table is a file satellite (blocks, replicas, leases): when
  // the hint knows the target is a directory, the scans would come back
  // empty and be discarded -- skip staging them at all, so a warm directory
  // stat pays no wasted fan-out.
  if (target_hint.is_dir_known && target_hint.is_dir) return rider;
  const InodeId candidate = target_hint.inode_id;
  const uint32_t part = db_->PartitionForValue(static_cast<uint64_t>(candidate));
  if (!db_->PrimaryNode(part).has_value()) return rider;
  rider.hinted = candidate;
  rider.batch = std::make_unique<kv::ReadBatch>();
  for (kv::TableId table : tables) rider.batch->Scan(table, {candidate});
  rider.pending = tx.ExecuteAsync(*rider.batch);
  rider.flushed_early = rider.pending.done();
  return rider;
}

Namenode::SpeculativeRider Namenode::StageAddBlockFanout(
    kv::Txn& tx, const std::vector<std::string>& components) {
  SpeculativeRider rider;
  if (components.size() < 2) return rider;
  auto hints = hint_cache_.PeekChain(components);
  if (hints.size() < components.size()) return rider;
  const InodeHintCache::Hint& target_hint = hints[components.size() - 1];
  if (target_hint.is_dir_known && target_hint.is_dir) return rider;
  const InodeId candidate = target_hint.inode_id;
  const uint32_t part = db_->PartitionForValue(static_cast<uint64_t>(candidate));
  if (!db_->PrimaryNode(part).has_value()) return rider;
  rider.hinted = candidate;
  rider.batch = std::make_unique<kv::ReadBatch>();
  // The lease X-lock rides ahead of the inode lock. The lease protocol
  // admits one writer per file, so no two writers race this file's lease
  // row, and a reader never locks it -- the inverted lock order cannot
  // produce a deadlock that a lock timeout + retry does not already cover.
  // A stale hint's discard must UnlockRow the hinted lease (the caller's
  // job) because, unlike the read-only riders, this one locks what it read.
  rider.batch->Get(schema_->leases, {candidate}, kv::LockMode::kExclusive);
  rider.batch->Scan(schema_->blocks, {candidate});
  rider.pending = tx.ExecuteAsync(*rider.batch);
  rider.flushed_early = rider.pending.done();
  return rider;
}

uint64_t Namenode::InodePv(int depth, InodeId parent, std::string_view name) const {
  return InodePartitionValue(depth, parent, name, config_->random_partition_depth);
}

Namenode::InodePvPair Namenode::InodePvCandidates(int depth, InodeId parent,
                                                  std::string_view name) const {
  InodePvPair p;
  p.primary = InodePv(depth, parent, name);
  p.alternate = depth <= config_->random_partition_depth ? static_cast<uint64_t>(parent)
                                                         : HashBytes(name);
  p.dual = db_->PartitionForValue(p.alternate) != db_->PartitionForValue(p.primary);
  return p;
}

hops::Result<Namenode::ReadInodeOut> Namenode::ReadInode(kv::Txn& tx, InodeId parent,
                                                         const std::string& name, int depth,
                                                         kv::LockMode mode) {
  // Rows that crossed the random-partition depth boundary in a move keep
  // their insert-time partition, so the row may live under either rule. Both
  // probes go out in one batched read instead of primary-then-alternate.
  const InodePvPair pv = InodePvCandidates(depth, parent, name);
  if (!pv.dual) {
    auto row = tx.Read(schema_->inodes, InodeKey(parent, name), mode, pv.primary);
    if (row.ok()) return ReadInodeOut{InodeFromRow(*row), pv.primary};
    if (row.status().code() != hops::StatusCode::kNotFound) return row.status();
    return hops::Status::NotFound("no inode " + name);
  }
  kv::ReadBatch batch;
  size_t primary_slot = batch.Get(schema_->inodes, InodeKey(parent, name), mode, pv.primary);
  size_t alternate_slot =
      batch.Get(schema_->inodes, InodeKey(parent, name), mode, pv.alternate);
  HOPS_RETURN_IF_ERROR(tx.Execute(batch));
  if (batch.row(primary_slot).has_value()) {
    return ReadInodeOut{InodeFromRow(*batch.row(primary_slot)), pv.primary};
  }
  if (batch.row(alternate_slot).has_value()) {
    return ReadInodeOut{InodeFromRow(*batch.row(alternate_slot)), pv.alternate};
  }
  return hops::Status::NotFound("no inode " + name);
}

hops::Result<std::vector<std::optional<Namenode::ReadInodeOut>>> Namenode::ReadLockItemsBatched(
    kv::Txn& tx, const std::vector<LockItem>& items) {
  // kStagedOrder: the batch must not re-sort the lock waits into the global
  // (table, partition, key) order, because the rename deadlock-freedom
  // argument is the *path* total order -- the one mkdir/create/delete follow
  // when they lock parent before target one row at a time. Two crossing
  // renames therefore queue on their first common item instead of cycling.
  kv::ReadBatch batch(kv::BatchLockOrder::kStagedOrder);
  struct Slots {
    size_t primary = 0;
    size_t alternate = SIZE_MAX;
    uint64_t primary_pv = 0;
    uint64_t alternate_pv = 0;
  };
  std::vector<Slots> slots;
  slots.reserve(items.size());
  for (const LockItem& item : items) {
    Slots s;
    const InodePvPair pv = InodePvCandidates(item.depth, item.parent, item.name);
    s.primary_pv = pv.primary;
    // Within one item the two per-partition key slots stage in the global
    // (partition, key) sub-order -- the order ReadInode's two-probe batch
    // acquires them in -- so the item-internal waits cannot cross with a
    // concurrent per-row ReadInode of the same key.
    const bool alternate_first =
        pv.dual && db_->PartitionForValue(pv.alternate) < db_->PartitionForValue(pv.primary);
    if (alternate_first) {
      s.alternate_pv = pv.alternate;
      s.alternate = batch.Get(schema_->inodes, InodeKey(item.parent, item.name),
                              kv::LockMode::kExclusive, pv.alternate);
    }
    s.primary = batch.Get(schema_->inodes, InodeKey(item.parent, item.name),
                          kv::LockMode::kExclusive, pv.primary);
    if (pv.dual && !alternate_first) {
      s.alternate_pv = pv.alternate;
      s.alternate = batch.Get(schema_->inodes, InodeKey(item.parent, item.name),
                              kv::LockMode::kExclusive, pv.alternate);
    }
    slots.push_back(s);
  }
  HOPS_RETURN_IF_ERROR(tx.Execute(batch));
  std::vector<std::optional<ReadInodeOut>> out(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    const Slots& s = slots[i];
    if (batch.row(s.primary).has_value()) {
      out[i] = ReadInodeOut{InodeFromRow(*batch.row(s.primary)), s.primary_pv};
    } else if (s.alternate != SIZE_MAX && batch.row(s.alternate).has_value()) {
      out[i] = ReadInodeOut{InodeFromRow(*batch.row(s.alternate)), s.alternate_pv};
    }
  }
  return out;
}

hops::Status Namenode::CheckSubtreeLock(kv::Txn& tx, Inode& inode, uint64_t pv) {
  if (inode.subtree_lock_owner == kNoSubtreeLock) return hops::Status::Ok();
  if (inode.subtree_lock_owner == id_safe()) {
    // Our own flag. If the owning subtree operation is still in flight on
    // this namenode, ordinary inode operations must back off exactly as on
    // any other namenode; otherwise it is residue of a failed cleanup.
    if (IsMySubtreeOpActive(inode.id)) {
      return hops::Status::SubtreeLocked("subtree op in progress on this namenode");
    }
  } else if (election_.IsNamenodeAlive(inode.subtree_lock_owner)) {
    return hops::Status::SubtreeLocked("subtree locked by namenode " +
                                       std::to_string(inode.subtree_lock_owner));
  }
  // Lazy cleanup (§6.2): the owner died (or the stale flag is our own);
  // clear the flag and carry on.
  inode.subtree_lock_owner = kNoSubtreeLock;
  return tx.Update(schema_->inodes, ToRow(inode), pv);
}

hops::Status Namenode::ResolveSuffix(kv::Txn& tx,
                                     const std::vector<std::string>& components, size_t from,
                                     std::vector<Inode>& chain) {
  // chain holds [root, inode(components[0]) .. inode(components[from-1])];
  // resolves interior components only (the target is read in the lock phase).
  for (size_t i = from; i + 1 < components.size(); ++i) {
    InodeId parent = chain.back().id;
    auto out = ReadInode(tx, parent, components[i], static_cast<int>(i) + 1,
                         kv::LockMode::kReadCommitted);
    if (!out.ok()) return out.status();
    hint_cache_.Put(parent, components[i], out->inode.id, out->inode.is_dir);
    chain.push_back(std::move(out->inode));
  }
  return hops::Status::Ok();
}

void Namenode::EraseHint(const std::vector<std::string>& components) {
  const size_t n = components.size();
  if (n == 0) return;
  auto hints = hint_cache_.PeekChain(components);
  if (hints.size() + 1 < n) return;
  hint_cache_.Erase(n == 1 ? kRootInode : hints[n - 2].inode_id, components.back());
}

hops::Result<Namenode::Resolved> Namenode::ResolveAndLock(
    kv::Txn& tx, const std::vector<std::string>& components, const LockSpec& spec) {
  Resolved r;
  r.components = components;
  r.chain.push_back(root_);
  r.chain_pvs.push_back(RootPartitionValue());
  const size_t n = components.size();
  if (n == 0) {
    r.target_exists = true;  // the root itself; immutable and never locked
    return r;
  }

  // --- Interior components [0 .. n-2], read-committed -----------------------
  // On a full hint-cache hit the target rides in the same batch with the
  // lock phase's mode, so a cached path resolves *and locks* in a single
  // round trip (paper §5.1/§6.3). Parent-locking mutations keep the
  // separate two-step lock phase (parent before target, in path order).
  bool interiors_ok = n == 1;
  Inode batched_target;
  uint64_t batched_target_pv = 0;
  bool target_from_batch = false;
  bool had_target_hint = false;
  if (!interiors_ok) {
    auto hints = hint_cache_.LookupChain(components);
    had_target_hint = hints.size() >= n;
    bool try_target = had_target_hint && !spec.lock_parent;
    if (hints.size() >= n - 1) {
      // Single batched primary-key read for the whole interior (1 round trip
      // instead of N-1), plus the target when its hint is cached too.
      kv::ReadBatch batch;
      std::vector<uint64_t> pvs;
      const size_t batched = try_target ? n : n - 1;
      pvs.reserve(batched);
      for (size_t i = 0; i < batched; ++i) {
        InodeId parent = i == 0 ? kRootInode : hints[i - 1].inode_id;
        uint64_t pv = InodePv(static_cast<int>(i) + 1, parent, components[i]);
        kv::LockMode mode =
            i + 1 == n ? spec.target_mode : kv::LockMode::kReadCommitted;
        batch.Get(schema_->inodes, InodeKey(parent, components[i]), mode, pv);
        pvs.push_back(pv);
      }
      HOPS_RETURN_IF_ERROR(tx.Execute(batch));
      interiors_ok = true;
      InodeId expect_parent = kRootInode;
      for (size_t i = 0; i + 1 < n; ++i) {
        const auto& slot = batch.row(i);
        if (!slot.has_value()) {
          interiors_ok = false;  // stale hint
          break;
        }
        Inode inode = InodeFromRow(*slot);
        if (inode.parent_id != expect_parent) {
          interiors_ok = false;  // hint chain broken by a concurrent move
          break;
        }
        expect_parent = inode.id;
        r.chain.push_back(std::move(inode));
        r.chain_pvs.push_back(pvs[i]);
      }
      if (interiors_ok && try_target && batch.row(n - 1).has_value()) {
        Inode inode = InodeFromRow(*batch.row(n - 1));
        if (inode.parent_id == expect_parent) {
          batched_target = std::move(inode);
          batched_target_pv = pvs[n - 1];
          target_from_batch = true;
        }
        // A mismatched parent means the hint was stale; the ordinary target
        // read below retries both partition rules.
      }
      if (try_target && !target_from_batch &&
          spec.target_mode != kv::LockMode::kReadCommitted) {
        // The batch locked the target key derived from an (evidently stale)
        // hint; drop that lock before falling back so an unrelated live row
        // is not pinned for the rest of the transaction.
        tx.UnlockRow(schema_->inodes,
                     InodeKey(hints[n - 2].inode_id, components[n - 1]), pvs[n - 1]);
      }
      if (!interiors_ok) {
        r.chain.resize(1);
        r.chain_pvs.resize(1);
      }
    }
    if (!interiors_ok) {
      // Fall back to recursive resolution, repairing the cache (§5.1.1).
      hops::Status st = ResolveSuffix(tx, components, 0, r.chain);
      if (!st.ok()) {
        // A cached interior hint named a component that no longer exists (a
        // peer namenode moved or deleted it): erase the first dead entry so
        // later resolutions stop re-reading the dead key. Entries below it
        // are keyed by the dead inode's id and no chain reaches them again.
        const size_t missing = r.chain.size() - 1;
        if (st.code() == hops::StatusCode::kNotFound && missing < hints.size()) {
          hint_cache_.Erase(missing == 0 ? kRootInode : hints[missing - 1].inode_id,
                            components[missing]);
        }
        return st;
      }
      r.chain_pvs.resize(1);
      for (size_t i = 0; i + 1 < n; ++i) {
        r.chain_pvs.push_back(
            InodePv(static_cast<int>(i) + 1, r.chain[i].id, components[i]));
      }
      interiors_ok = true;
    }
    // Interior sanity + subtree-lock checks.
    for (size_t i = 1; i < r.chain.size(); ++i) {
      if (!r.chain[i].is_dir) return hops::Status::NotDirectory(components[i - 1]);
      HOPS_RETURN_IF_ERROR(CheckSubtreeLock(tx, r.chain[i], r.chain_pvs[i]));
    }
  }

  // --- Lock phase: parent, then target, in path (total) order ---------------
  if (spec.lock_parent && n >= 2) {
    // Re-read the parent with an exclusive lock; the RC copy may be stale.
    Inode& rc_parent = r.chain[n - 1];
    auto locked = ReadInode(tx, rc_parent.parent_id, rc_parent.name,
                            static_cast<int>(n) - 1, kv::LockMode::kExclusive);
    if (!locked.ok()) {
      if (locked.status().code() == hops::StatusCode::kNotFound) {
        return hops::Status::TxAborted("parent vanished during resolution");
      }
      return locked.status();
    }
    if (locked->inode.id != rc_parent.id) {
      return hops::Status::TxAborted("parent replaced during resolution");
    }
    HOPS_RETURN_IF_ERROR(CheckSubtreeLock(tx, locked->inode, locked->pv));
    r.chain[n - 1] = std::move(locked->inode);
    r.chain_pvs[n - 1] = locked->pv;
  }

  Inode& parent = r.chain[n - 1];
  if (!parent.is_dir) return hops::Status::NotDirectory(parent.name);
  hops::Result<ReadInodeOut> target =
      target_from_batch
          ? hops::Result<ReadInodeOut>(
                ReadInodeOut{std::move(batched_target), batched_target_pv})
          : ReadInode(tx, parent.id, components[n - 1], static_cast<int>(n),
                      spec.target_mode);
  if (target.ok()) {
    HOPS_RETURN_IF_ERROR(CheckSubtreeLock(tx, target->inode, target->pv));
    hint_cache_.Put(parent.id, components[n - 1], target->inode.id, target->inode.is_dir);
    r.chain.push_back(std::move(target->inode));
    r.chain_pvs.push_back(target->pv);
    r.target_exists = true;
    r.target_locked_in_batch = target_from_batch;
  } else if (target.status().code() != hops::StatusCode::kNotFound) {
    return target.status();
  } else {
    // Depth-1 paths skip the hint lookup above entirely; probe so their
    // dead hints are evicted too (they would otherwise keep feeding the
    // speculative getBlockLocations rider a dead key).
    bool stale_target_hint = had_target_hint;
    if (!stale_target_hint && n == 1) {
      stale_target_hint = !hint_cache_.PeekChain(components).empty();
    }
    if (stale_target_hint) {
      // A target hint existed but the path turned out NotFound: the hint
      // points at a dead key. Erase it so the next resolution doesn't
      // re-lock the same dead slot and fall back all over again.
      hint_cache_.Erase(parent.id, components[n - 1]);
    }
    if (spec.target_must_exist) {
      return hops::Status::NotFound(JoinPath(components) + " does not exist");
    }
    // The key lock taken by the failed locked read guards the insert slot.
    r.target_exists = false;
  }

  // For mutations, re-validate the ancestor chain *after* the locks are
  // held: the earlier read-committed copies may predate a subtree
  // operation's phase-1 flag. Combined with the quiesce scan's
  // take-and-release locks this closes the window where a mutation could
  // slip under an in-flight subtree operation unnoticed.
  if (spec.target_mode == kv::LockMode::kExclusive && n >= 2) {
    std::vector<kv::Key> keys;
    std::vector<uint64_t> pvs;
    for (size_t i = 0; i + 1 < n; ++i) {
      keys.push_back(InodeKey(r.chain[i].id, components[i]));
      pvs.push_back(r.chain_pvs[i + 1]);
    }
    auto fresh = tx.BatchRead(schema_->inodes, keys, kv::LockMode::kReadCommitted, &pvs);
    if (!fresh.ok()) return fresh.status();
    for (size_t i = 0; i + 1 < n; ++i) {
      const auto& slot = (*fresh)[i];
      if (!slot.has_value()) {
        return hops::Status::TxAborted("ancestor vanished during the lock phase");
      }
      Inode current = InodeFromRow(*slot);
      if (current.id != r.chain[i + 1].id) {
        return hops::Status::TxAborted("ancestor replaced during the lock phase");
      }
      HOPS_RETURN_IF_ERROR(CheckSubtreeLock(tx, current, r.chain_pvs[i + 1]));
    }
  }
  return r;
}

// --- Permissions ---------------------------------------------------------------

hops::Status Namenode::CheckAccess(const Inode& inode, const UserContext& user,
                                   int want) const {
  if (user.superuser) return hops::Status::Ok();
  int bits = user.user == inode.owner ? (inode.perm >> 6) & 7 : inode.perm & 7;
  if ((bits & want) != want) {
    return hops::Status::PermissionDenied("user=" + user.user + " inode=" + inode.name);
  }
  return hops::Status::Ok();
}

hops::Status Namenode::CheckPathTraversal(const Resolved& r, const UserContext& user) const {
  if (user.superuser) return hops::Status::Ok();
  // Every ancestor directory needs the execute bit.
  size_t ancestors = r.chain.size() - (r.target_exists ? 1 : 0);
  for (size_t i = 0; i < ancestors; ++i) {
    HOPS_RETURN_IF_ERROR(CheckAccess(r.chain[i], user, kExec));
  }
  return hops::Status::Ok();
}

// --- Quota bookkeeping -----------------------------------------------------------

hops::Status Namenode::UpdateQuotaUsage(kv::Txn& tx,
                                        const std::vector<Inode>& ancestors,
                                        int64_t ns_delta, int64_t ss_delta, bool enforce) {
  if (ns_delta == 0 && ss_delta == 0) return hops::Status::Ok();
  // Lock and read every quota row along the chain in one batched round trip
  // (the batch's global lock order keeps concurrent quota updaters
  // deadlock-free), then stage the adjustments in one write batch.
  kv::ReadBatch reads;
  std::vector<const Inode*> quota_dirs;
  for (const Inode& dir : ancestors) {
    if (!dir.has_quota) continue;
    reads.Get(schema_->quotas, {dir.id}, kv::LockMode::kExclusive);
    quota_dirs.push_back(&dir);
  }
  if (quota_dirs.empty()) return hops::Status::Ok();
  HOPS_RETURN_IF_ERROR(tx.Execute(reads));
  kv::WriteBatch writes;
  for (size_t i = 0; i < quota_dirs.size(); ++i) {
    if (!reads.row(i).has_value()) continue;  // racing clear
    DirectoryQuota q = QuotaFromRow(*reads.row(i));
    q.ns_used += ns_delta;
    q.ss_used += ss_delta;
    if (enforce) {
      if (q.ns_quota >= 0 && q.ns_used > q.ns_quota) {
        return hops::Status::QuotaExceeded("namespace quota of " + quota_dirs[i]->name);
      }
      if (q.ss_quota >= 0 && q.ss_used > q.ss_quota) {
        return hops::Status::QuotaExceeded("storage quota of " + quota_dirs[i]->name);
      }
    }
    writes.Update(schema_->quotas, ToRow(q));
  }
  return tx.Execute(writes);
}

// --- Children listing --------------------------------------------------------

hops::Result<std::vector<kv::Row>> Namenode::ScanChildren(kv::Txn& tx,
                                                           const Inode& dir, int dir_depth,
                                                           const kv::ScanOptions& opts) {
  if (ChildrenArePruned(dir_depth, config_->random_partition_depth)) {
    // All children share the parent's shard: one partition-pruned scan.
    return tx.Ppis(schema_->inodes, {dir.id}, opts, ChildrenPartitionValue(dir.id));
  }
  // Top of the tree: children are spread pseudo-randomly; pay an index scan
  // over all shards (§4.2.1's trade-off).
  return tx.IndexScan(schema_->inodes, {dir.id}, opts);
}

// --- Operations ---------------------------------------------------------------

// Create, mkdirs and file setattr share one validate -> plan -> apply shape.
// Validation checks the op against acknowledged state; the plan is an
// IntentRecord; the apply body is the op's Figure-4 transaction, which
// re-checks everything under locks. Sync commit runs the apply body inline
// (its own locked checks ARE the validation, so no extra trip); async commit
// appends the plan to the intent log, acknowledges once it is durable, and
// the applier runs the same apply body later (ApplyIntent).

hops::Status Namenode::Mkdirs(const std::string& path, const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(path));
  if (!UseAsyncCommit()) return ApplyMkdirs(components, user);
  if (components.empty()) return hops::Status::Ok();
  const int64_t start = MonotonicMicros();
  HOPS_ASSIGN_OR_RETURN(known, ValidateAcknowledged(components, user, /*is_dir=*/true));
  // Plan: one intent per missing level, top-down, so the applier (FIFO,
  // ancestor-related intents never applied concurrently) materializes
  // parents before children.
  bool submitted = false;
  std::string prefix;
  for (size_t i = 0; i < components.size(); ++i) {
    prefix += "/" + components[i];
    if (i < known) continue;
    if (auto p = intents_->LookupPending(prefix)) {
      // Acknowledged by a concurrent mkdirs since the validation; idempotent.
      if (!p->is_dir) return hops::Status::NotDirectory(prefix);
      continue;
    }
    HOPS_RETURN_IF_ERROR(intents_->ReserveDir(prefix, user.user));
    IntentRecord rec;
    rec.op = IntentOp::kMkdirs;
    rec.path = prefix;
    rec.user = user.user;
    rec.superuser = user.superuser;
    HOPS_RETURN_IF_ERROR(intents_->Submit(std::move(rec)));  // releases on failure
    submitted = true;
  }
  if (submitted) intents_->RecordAck(static_cast<uint64_t>(MonotonicMicros() - start));
  return hops::Status::Ok();
}

hops::Status Namenode::Create(const std::string& path, const std::string& client_name,
                              const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(path));
  if (components.empty()) return hops::Status::IsDirectory("/");
  if (!UseAsyncCommit()) return InsertInodeTx(components, /*is_dir=*/false, client_name, user);
  const int64_t start = MonotonicMicros();
  const std::string target = JoinPath(components);
  // Validation FIRST, reservation second: reserving up front would make a
  // racing second create fail with AlreadyExists even when this one is
  // about to fail validation.
  auto validated = ValidateAcknowledged(components, user, /*is_dir=*/false);
  // Read-your-writes across namenodes: the parent may be a mkdirs a PEER
  // acknowledged but has not applied, which this namenode's pending index
  // cannot see. Re-validate while such an intent is in the log, bounded
  // like WaitCovering.
  const std::string parent =
      JoinPath(std::vector<std::string>(components.begin(), components.end() - 1));
  if (validated.status().code() == hops::StatusCode::kNotFound && PeerMkdirsPending(parent)) {
    const auto deadline = std::chrono::steady_clock::now() + config_->op_timeout;
    do {
      if (std::chrono::steady_clock::now() >= deadline) {
        return WaitTimedOut("peer mkdirs wait", config_->op_timeout,
                            "a peer's mkdirs intent covering " + parent + " to apply");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      validated = ValidateAcknowledged(components, user, /*is_dir=*/false);
    } while (validated.status().code() == hops::StatusCode::kNotFound &&
             PeerMkdirsPending(parent));
  }
  HOPS_RETURN_IF_ERROR(validated.status());
  // Reservation is the atomic conflict gate: two racing validated creates
  // of one path serialize here, the loser gets AlreadyExists.
  HOPS_RETURN_IF_ERROR(intents_->ReserveCreate(target, user.user));
  IntentRecord rec;
  rec.op = IntentOp::kCreate;
  rec.path = target;
  rec.client = client_name;
  rec.user = user.user;
  rec.superuser = user.superuser;
  HOPS_RETURN_IF_ERROR(intents_->Submit(std::move(rec)));
  intents_->RecordAck(static_cast<uint64_t>(MonotonicMicros() - start));
  return hops::Status::Ok();
}

hops::Result<size_t> Namenode::ValidateAcknowledged(const std::vector<std::string>& components,
                                                    const UserContext& user, bool is_dir) {
  const size_t n = components.size();
  const std::string target = JoinPath(components);
  if (!is_dir) {
    if (auto p = intents_->LookupPending(target)) {
      return p->is_dir ? hops::Status::IsDirectory(target) : hops::Status::AlreadyExists(target);
    }
  }
  // Fast path -- nothing pending anywhere on the path, so committed state is
  // the whole truth: the same hint-batched resolution the apply uses (one
  // round trip on a warm cache, and its Puts pre-warm the apply's own
  // resolution). It settles everything unless an interior is missing.
  if (!intents_->HasPendingPrefix(target)) {
    size_t known = 0;
    hops::Status st = RunTx(
        kv::TxHint{schema_->inodes, InodePv(static_cast<int>(n), 0, components.back())},
        [&](kv::Txn& tx) -> hops::Status {
          LockSpec spec;
          spec.target_mode = kv::LockMode::kReadCommitted;
          spec.target_must_exist = false;
          HOPS_ASSIGN_OR_RETURN(r, ResolveAndLock(tx, components, spec));
          HOPS_RETURN_IF_ERROR(CheckPathTraversal(r, user));
          if (r.target_exists) {
            if (!is_dir) {
              return r.target().is_dir ? hops::Status::IsDirectory(target)
                                       : hops::Status::AlreadyExists(target);
            }
            if (!r.target().is_dir) return hops::Status::NotDirectory(components.back());
            known = n;
            return hops::Status::Ok();
          }
          known = n - 1;
          return CheckAccess(r.parent_of_target(), user, kWrite);
        });
    if (st.ok()) return known;
    // A missing interior: a mkdirs needs the per-level walk to learn how much
    // of the chain exists; for a create, it is final unless an intent was
    // acknowledged on the path during the resolution.
    if (st.code() != hops::StatusCode::kNotFound ||
        !(is_dir || intents_->HasPendingPrefix(target))) {
      return st;
    }
  }
  // Slow path -- a per-level walk. Committed state is probed FIRST at every
  // level: a pending mkdirs entry may be an idempotent duplicate of a
  // directory that is already committed, so "pending" alone must never
  // shortcut the walk. Only a pending dir with NO committed row governs the
  // chain below it (an uncommitted parent cannot have committed children).
  // If that chain applies mid-walk the pending index goes silent while our
  // transaction already read the older state; that shows up as a miss below
  // an uncommitted dir, and the walk restarts against the committed rows.
  // A create walks the interiors, a mkdirs every level.
  const size_t levels = is_dir ? n : n - 1;
  std::vector<Inode> chain;  // committed levels: root, then the found dirs
  size_t known = 0;          // leading levels that exist, committed or pending
  // The deepest pending level, once the walk is below the committed chain.
  std::optional<IntentLog::PendingInfo> pending_parent;
  for (int restart = 0;; ++restart) {
    if (restart == 64) return hops::Status::TxAborted("validation kept racing applies");
    bool applied_mid_walk = false;
    hops::Status st = RunTx(
        std::nullopt,
        [&](kv::Txn& tx) -> hops::Status {
          applied_mid_walk = false;
          chain.assign(1, root_);
          known = 0;
          pending_parent.reset();
          std::string prefix;
          for (size_t i = 0; i < levels; ++i) {
            const std::string parent_prefix = prefix;
            prefix += "/" + components[i];
            auto p = intents_->LookupPending(prefix);
            if (p && !p->is_dir) return hops::Status::NotDirectory(prefix);
            if (pending_parent) {
              if (!p) {
                // Neither committed nor pending below a parent that is still
                // pending-and-uncommitted: the level is missing. A silent
                // parent means its chain applied mid-walk.
                if (!intents_->LookupPending(parent_prefix)) applied_mid_walk = true;
                break;
              }
              pending_parent = p;  // a pending dir, still governed by the index
            } else {
              auto out = ReadInode(tx, chain.back().id, components[i], static_cast<int>(i) + 1,
                                   kv::LockMode::kReadCommitted);
              if (out.ok()) {
                if (!out->inode.is_dir) return hops::Status::NotDirectory(prefix);
                chain.push_back(std::move(out->inode));
              } else if (out.status().code() != hops::StatusCode::kNotFound) {
                return out.status();
              } else if (p) {
                pending_parent = p;
              } else {
                break;
              }
            }
            known = i + 1;
          }
          if (is_dir || known < levels || pending_parent) return hops::Status::Ok();
          // A create under a committed parent: probe the target's row too
          // (a pending target is the reservation's to reject).
          auto out = ReadInode(tx, chain.back().id, components[n - 1], static_cast<int>(n),
                               kv::LockMode::kReadCommitted);
          if (out.ok()) {
            return out->inode.is_dir ? hops::Status::IsDirectory(target)
                                     : hops::Status::AlreadyExists(target);
          }
          return out.status().code() == hops::StatusCode::kNotFound ? hops::Status::Ok()
                                                                    : out.status();
        });
    if (applied_mid_walk) continue;
    HOPS_RETURN_IF_ERROR(st);
    break;
  }
  if (!is_dir && known < levels) {
    return hops::Status::NotFound(
        JoinPath(std::vector<std::string>(components.begin(),
                                          components.begin() + static_cast<long>(known) + 1)) +
        " does not exist");
  }
  // Access, as the apply would check it once every acknowledged level has
  // materialized: exec on each committed ancestor of the first level this op
  // creates (pending dirs are created 0755, which every user may traverse),
  // then write on that level's parent, committed or pending.
  for (size_t i = 0; i < chain.size() && i < n; ++i) {
    HOPS_RETURN_IF_ERROR(CheckAccess(chain[i], user, kExec));
  }
  if (known == n) return known;  // a mkdirs whose every level exists
  if (!pending_parent) {
    HOPS_RETURN_IF_ERROR(CheckAccess(chain.back(), user, kWrite));
  } else {
    Inode to_be;  // default attributes: what the pending mkdirs will insert
    to_be.name = components[known - 1];
    to_be.owner = pending_parent->user;
    HOPS_RETURN_IF_ERROR(CheckAccess(to_be, user, kWrite));
  }
  return known;
}

hops::Status Namenode::ApplyMkdirs(const std::vector<std::string>& components,
                                   const UserContext& user) {
  // Create missing directories top-down, one transaction per level (each
  // level is an ordinary "mkdir" inode operation).
  for (size_t depth = 1; depth <= components.size(); ++depth) {
    std::vector<std::string> prefix(components.begin(), components.begin() + depth);
    HOPS_RETURN_IF_ERROR(InsertInodeTx(prefix, /*is_dir=*/true, /*client_name=*/"", user));
  }
  return hops::Status::Ok();
}

hops::Status Namenode::InsertInodeTx(const std::vector<std::string>& components, bool is_dir,
                                     const std::string& client_name, const UserContext& user) {
  const std::string path = JoinPath(components);
  const int depth = static_cast<int>(components.size());
  return RunTx(
      kv::TxHint{schema_->inodes, InodePv(depth, 0, components.back())},
      [&](kv::Txn& tx) -> hops::Status {
        LockSpec spec;
        spec.target_mode = kv::LockMode::kExclusive;
        spec.lock_parent = true;
        spec.target_must_exist = false;
        HOPS_ASSIGN_OR_RETURN(r, ResolveAndLock(tx, components, spec));
        HOPS_RETURN_IF_ERROR(CheckPathTraversal(r, user));
        if (r.target_exists) {
          if (is_dir) {
            return r.target().is_dir ? hops::Status::Ok()
                                     : hops::Status::NotDirectory(r.target().name);
          }
          return r.target().is_dir ? hops::Status::IsDirectory(path)
                                   : hops::Status::AlreadyExists(path);
        }
        Inode& parent = r.parent_of_target();
        HOPS_RETURN_IF_ERROR(CheckAccess(parent, user, kWrite));
        HOPS_ASSIGN_OR_RETURN(id, inode_ids_.Next());
        Inode inode;
        inode.parent_id = parent.id;
        inode.name = components.back();
        inode.id = id;
        inode.is_dir = is_dir;
        inode.owner = user.user;
        inode.group = "hdfs";
        inode.mtime = NowMicros();
        if (!is_dir) {
          inode.replication = config_->default_replication;
          inode.under_construction = true;
        }
        std::vector<Inode> ancestors(r.chain.begin(), r.chain.end());
        HOPS_RETURN_IF_ERROR(UpdateQuotaUsage(tx, ancestors, +1, 0, /*enforce=*/true));
        HOPS_RETURN_IF_ERROR(
            tx.Insert(schema_->inodes, ToRow(inode), InodePv(depth, parent.id, inode.name)));
        if (!is_dir) {
          Lease lease{id, client_name, NowMicros()};
          HOPS_RETURN_IF_ERROR(tx.Insert(schema_->leases, ToRow(lease)));
        }
        if (parent.id != kRootInode) {
          parent.mtime = NowMicros();
          HOPS_RETURN_IF_ERROR(tx.Update(schema_->inodes, ToRow(parent), r.parent_pv()));
        }
        hint_cache_.Put(parent.id, components.back(), id, is_dir);
        return hops::Status::Ok();
      });
}

hops::Status Namenode::ApplyIntent(const IntentRecord& rec) {
  IntentLog::ApplierScope scope;
  UserContext user{rec.user, rec.superuser};
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(rec.path));
  switch (rec.op) {
    case IntentOp::kMkdirs:
      return ApplyMkdirs(components, user);
    case IntentOp::kCreate: {
      hops::Status st = InsertInodeTx(components, /*is_dir=*/false, rec.client, user);
      // At-least-once replay: a re-applied create finds the inode it made.
      if (st.code() == hops::StatusCode::kAlreadyExists) return hops::Status::Ok();
      return st;
    }
    case IntentOp::kSetPermission:
      return SetAttrFileTx(components, rec.perm, std::nullopt, user);
    case IntentOp::kSetOwner:
      return SetAttrFileTx(components, std::nullopt, std::make_pair(rec.owner, rec.group), user);
  }
  return hops::Status::InvalidArgument("unknown intent op");
}

bool Namenode::PeerMkdirsPending(const std::string& dir) {
  const NamenodeId self = id_safe();
  kv::ScanOptions opts;
  opts.predicate = [&](const kv::Row& row) {
    IntentRecord rec = IntentFromRow(row);
    return rec.nn != self && rec.op == IntentOp::kMkdirs &&
           (IsPrefixPath(rec.path, dir) || IsPrefixPath(dir, rec.path));
  };
  auto tx = db_->Begin(kv::TxHint{schema_->op_intents, static_cast<uint64_t>(self)});
  auto scan = tx->FullTableScan(schema_->op_intents, opts);
  if (tx->active()) tx->Abort();
  return scan.ok() && !scan->empty();
}

void Namenode::AdoptOrphanedIntents(bool include_self) {
  if (intents_ == nullptr || !alive_) return;
  std::vector<kv::Row> rows;
  {
    auto tx = db_->Begin(kv::TxHint{schema_->op_intents, static_cast<uint64_t>(id_safe())});
    auto scan = tx->FullTableScan(schema_->op_intents);
    if (!scan.ok()) {
      if (tx->active()) tx->Abort();
      return;  // next heartbeat retries
    }
    (void)tx->Commit();
    rows = std::move(*scan);
  }
  std::map<NamenodeId, std::vector<IntentRecord>> orphans;
  for (const auto& row : rows) {
    IntentRecord rec = IntentFromRow(row);
    // Skip our own partition (our applier owns it) and alive publishers
    // (their appliers are draining; the membership view must age a dead one
    // out before its log is adopted -- the same rule subtree-lock cleanup
    // follows). The resumed-identity start path passes include_self: the
    // previous incarnation's rows ARE ours to replay, and no client can
    // reach us yet so the applier owns nothing.
    if (rec.nn == id_safe()) {
      if (!include_self) continue;
    } else if (election_.IsNamenodeAlive(rec.nn)) {
      continue;
    }
    orphans[rec.nn].push_back(std::move(rec));
  }
  for (auto& [publisher, recs] : orphans) {
    // Per-publisher seq order is acknowledgment order; replay preserves it.
    std::sort(recs.begin(), recs.end(),
              [](const IntentRecord& a, const IntentRecord& b) { return a.seq < b.seq; });
    size_t replayed = 0;
    for (; replayed < recs.size(); ++replayed) {
      // ApplyIntent's transactions already retried for op_timeout.
      hops::Status st = ApplyIntent(recs[replayed]);
      if (st.code() == hops::StatusCode::kFailover) return;  // we died mid-sweep
      // A fault, subtree lock or node-group outage that outlasted the
      // retries must not consume an acknowledged op: stop this publisher's
      // replay here, and leave this record and the later ones (seq order) to
      // the next heartbeat's sweep. A terminal failure still consumes the
      // record: replaying it forever would wedge the partition behind one
      // poisoned intent.
      if (IntentApplyRetryable(st)) break;
      intents_adopted_.fetch_add(1, std::memory_order_relaxed);
    }
    recs.resize(replayed);
    if (recs.empty()) continue;
    // Consume the replayed rows, tolerating rows a racing adopter already
    // took. The publisher's intent_heads row is deliberately LEFT BEHIND:
    // deleting it would restart that id's seq at 1 if the "dead" namenode
    // was merely stalled (or restarts under its old id), and a reused seq can
    // collide with the old incarnation's cleaner deleting freshly
    // acknowledged rows -- a lost ack. One inert two-column row per retired
    // id is the price of monotonic sequences. A delete that fails leaks rows
    // that re-adopt idempotently.
    (void)RetryUntilTimeout(*config_, "adoption cleanup", RetryOn::kTxAbort, [&] {
      auto tx = db_->Begin(kv::TxHint{schema_->op_intents, static_cast<uint64_t>(publisher)});
      for (const IntentRecord& rec : recs) {
        hops::Status st = tx->Delete(schema_->op_intents, {rec.nn, rec.seq});
        if (!st.ok() && st.code() != hops::StatusCode::kNotFound) return st;
      }
      return tx->Commit();
    });
  }
}

hops::Result<LocatedBlock> Namenode::AddBlock(const std::string& path,
                                              const std::string& client_name,
                                              int64_t num_bytes, const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(path));
  if (components.empty()) return hops::Status::IsDirectory("/");
  // The file may exist only as an acknowledged intent; block until it is
  // applied (read-your-writes for a create-then-write client).
  HOPS_RETURN_IF_ERROR(WaitForPendingIntents(JoinPath(components)));
  LocatedBlock result;
  uint64_t hint_pv = InodePv(static_cast<int>(components.size()), 0, components.back());
  hops::Status st = RunTx(
      kv::TxHint{schema_->inodes, hint_pv}, [&](kv::Txn& tx) -> hops::Status {
        // Speculative fan-out (§5.1 hint reuse): the lease X-lock (slot 0)
        // and the blocks scan (slot 1) ride the resolution window, so a warm
        // addBlock costs one round-trip window before its write batch.
        SpeculativeRider rider = StageAddBlockFanout(tx, components);
        LockSpec spec;
        spec.target_mode = kv::LockMode::kExclusive;
        HOPS_ASSIGN_OR_RETURN(r, ResolveAndLock(tx, components, spec));
        HOPS_RETURN_IF_ERROR(CheckPathTraversal(r, user));
        Inode& file = r.target();
        if (file.is_dir) return hops::Status::IsDirectory(path);
        if (!file.under_construction) {
          return hops::Status::LeaseConflict(path + " is not under construction");
        }
        kv::ReadBatch lease_read;
        kv::ReadBatch block_fan;
        const std::optional<kv::Row>* lease_row = nullptr;
        const std::vector<kv::Row>* block_rows = nullptr;
        if (rider.Serveable(file.id, r.target_locked_in_batch)) {
          HOPS_RETURN_IF_ERROR(rider.pending.Wait());
          lease_row = &rider.batch->row(0);
          block_rows = &rider.batch->rows(1);
        } else {
          if (rider.pending.valid()) {
            const InodeId hinted = rider.hinted;
            rider.Discard();
            // Unlike the read-only riders this one locked what it read: a
            // stale hint leaves an X-lock on the wrong file's lease row.
            tx.UnlockRow(schema_->leases, {hinted});
          }
          // The lease lock and the block fan-out are independent; the two
          // batches pipeline into one overlapped round-trip window instead
          // of chaining two trips.
          size_t lease_slot =
              lease_read.Get(schema_->leases, {file.id}, kv::LockMode::kExclusive);
          auto lease_pending = tx.ExecuteAsync(lease_read);
          // File-inode-related data lives in the file's shard: pruned scan.
          size_t blocks_slot = block_fan.Scan(schema_->blocks, {file.id});
          auto blocks_pending = tx.ExecuteAsync(block_fan);
          HOPS_RETURN_IF_ERROR(lease_pending.Wait());
          HOPS_RETURN_IF_ERROR(blocks_pending.Wait());
          lease_row = &lease_read.row(lease_slot);
          block_rows = &block_fan.rows(blocks_slot);
        }
        if (!lease_row->has_value()) {
          return hops::Status::NotFound("no lease on " + path);
        }
        if (LeaseFromRow(**lease_row).holder != client_name) {
          return hops::Status::LeaseConflict(path + " is held by another client");
        }
        // Commit the previous block (the client finished writing it) and
        // stage the new block + lookup + replica-under-construction rows in
        // one write batch.
        kv::WriteBatch writes;
        int64_t next_index = 0;
        for (const auto& row : *block_rows) {
          Block b = BlockFromRow(row);
          next_index = std::max(next_index, b.block_index + 1);
          if (b.state == BlockState::kUnderConstruction) {
            b.state = BlockState::kComplete;
            writes.Update(schema_->blocks, ToRow(b));
          }
        }
        HOPS_ASSIGN_OR_RETURN(block_id, block_ids_.Next());
        Block b;
        b.inode_id = file.id;
        b.block_id = block_id;
        b.block_index = next_index;
        b.state = BlockState::kUnderConstruction;
        b.num_bytes = num_bytes;
        b.replication = file.replication;
        writes.Insert(schema_->blocks, ToRow(b));
        writes.Insert(schema_->block_lookup, kv::Row{block_id, file.id});
        std::vector<DatanodeId> targets;
        {
          std::lock_guard<std::mutex> lock(dn_picker_mu_);
          if (dn_picker_) targets = dn_picker_(static_cast<int>(file.replication));
        }
        for (DatanodeId dn : targets) {
          Replica ruc{file.id, block_id, dn, ReplicaState::kFinalized};
          writes.Insert(schema_->ruc, ToRow(ruc));
        }
        HOPS_RETURN_IF_ERROR(tx.Execute(writes));
        std::vector<Inode> ancestors(r.chain.begin(), r.chain.end() - 1);
        HOPS_RETURN_IF_ERROR(UpdateQuotaUsage(tx, ancestors, 0,
                                              num_bytes * file.replication,
                                              /*enforce=*/true));
        file.size += num_bytes;
        file.mtime = NowMicros();
        HOPS_RETURN_IF_ERROR(tx.Update(schema_->inodes, ToRow(file), r.target_pv()));
        result = LocatedBlock{block_id, next_index, num_bytes, std::move(targets)};
        return hops::Status::Ok();
      });
  if (!st.ok()) return st;
  return result;
}

hops::Status Namenode::CompleteFile(const std::string& path, const std::string& client_name,
                                    const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(path));
  if (components.empty()) return hops::Status::IsDirectory("/");
  HOPS_RETURN_IF_ERROR(WaitForPendingIntents(JoinPath(components)));
  uint64_t hint_pv = InodePv(static_cast<int>(components.size()), 0, components.back());
  return RunTx(
      kv::TxHint{schema_->inodes, hint_pv}, [&](kv::Txn& tx) -> hops::Status {
        LockSpec spec;
        spec.target_mode = kv::LockMode::kExclusive;
        HOPS_ASSIGN_OR_RETURN(r, ResolveAndLock(tx, components, spec));
        HOPS_RETURN_IF_ERROR(CheckPathTraversal(r, user));
        Inode& file = r.target();
        if (file.is_dir) return hops::Status::IsDirectory(path);
        if (!file.under_construction) return hops::Status::Ok();  // idempotent
        // The lease lock and the block + RUC fan-out are independent; both
        // batches pipeline into one overlapped round-trip window.
        kv::ReadBatch lease_read;
        size_t lease_slot =
            lease_read.Get(schema_->leases, {file.id}, kv::LockMode::kExclusive);
        auto lease_pending = tx.ExecuteAsync(lease_read);
        kv::ReadBatch fanout;
        size_t block_slot = fanout.Scan(schema_->blocks, {file.id});
        size_t ruc_slot = fanout.Scan(schema_->ruc, {file.id});
        auto fanout_pending = tx.ExecuteAsync(fanout);
        HOPS_RETURN_IF_ERROR(lease_pending.Wait());
        HOPS_RETURN_IF_ERROR(fanout_pending.Wait());
        const std::optional<kv::Row>& lease_row = lease_read.row(lease_slot);
        if (lease_row.has_value() && LeaseFromRow(*lease_row).holder != client_name) {
          return hops::Status::LeaseConflict(path + " is held by another client");
        }
        // ... and one batch staging every state flip.
        kv::WriteBatch writes;
        for (const auto& row : fanout.rows(block_slot)) {
          Block b = BlockFromRow(row);
          if (b.state == BlockState::kUnderConstruction) {
            b.state = BlockState::kComplete;
            writes.Update(schema_->blocks, ToRow(b));
          }
        }
        // Any replicas still marked under-construction are finalized now
        // (datanodes that already called BlockReceived consumed their RUC
        // rows earlier; the upsert absorbs the duplicate).
        for (const auto& row : fanout.rows(ruc_slot)) {
          Replica rep = ReplicaFromRow(row);
          writes.Delete(schema_->ruc, {rep.inode_id, rep.block_id, rep.datanode_id});
          writes.Write(schema_->replicas, ToRow(rep));
        }
        if (lease_row.has_value()) {
          writes.Delete(schema_->leases, {file.id});
        }
        file.under_construction = false;
        file.mtime = NowMicros();
        writes.Update(schema_->inodes, ToRow(file), r.target_pv());
        return tx.Execute(writes);
      });
}

hops::Status Namenode::Append(const std::string& path, const std::string& client_name,
                              const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(path));
  if (components.empty()) return hops::Status::IsDirectory("/");
  HOPS_RETURN_IF_ERROR(WaitForPendingIntents(JoinPath(components)));
  uint64_t hint_pv = InodePv(static_cast<int>(components.size()), 0, components.back());
  return RunTx(kv::TxHint{schema_->inodes, hint_pv},
               [&](kv::Txn& tx) -> hops::Status {
                 LockSpec spec;
                 spec.target_mode = kv::LockMode::kExclusive;
                 HOPS_ASSIGN_OR_RETURN(r, ResolveAndLock(tx, components, spec));
                 HOPS_RETURN_IF_ERROR(CheckPathTraversal(r, user));
                 Inode& file = r.target();
                 if (file.is_dir) return hops::Status::IsDirectory(path);
                 HOPS_RETURN_IF_ERROR(CheckAccess(file, user, kWrite));
                 if (file.under_construction) {
                   return hops::Status::LeaseConflict(path + " is already open");
                 }
                 file.under_construction = true;
                 Lease lease{file.id, client_name, NowMicros()};
                 HOPS_RETURN_IF_ERROR(tx.Insert(schema_->leases, ToRow(lease)));
                 return tx.Update(schema_->inodes, ToRow(file), r.target_pv());
               });
}

hops::Result<std::vector<LocatedBlock>> Namenode::GetBlockLocations(
    const std::string& path, const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(path));
  if (components.empty()) return hops::Status::IsDirectory("/");
  HOPS_RETURN_IF_ERROR(WaitForPendingIntents(JoinPath(components)));
  std::vector<LocatedBlock> blocks;
  uint64_t hint_pv = InodePv(static_cast<int>(components.size()), 0, components.back());
  hops::Status st = RunTx(
      kv::TxHint{schema_->inodes, hint_pv}, [&](kv::Txn& tx) -> hops::Status {
        blocks.clear();
        // Speculative fan-out (§5.1 hint reuse): the block + replica scans
        // go in flight before resolution and share its window -- a warm
        // read costs one round-trip window instead of two (slot 0 = blocks,
        // slot 1 = replicas).
        SpeculativeRider rider = StageSpeculativeFanout(
            tx, components, {schema_->blocks, schema_->replicas});
        LockSpec spec;
        spec.target_mode = kv::LockMode::kShared;
        HOPS_ASSIGN_OR_RETURN(r, ResolveAndLock(tx, components, spec));
        HOPS_RETURN_IF_ERROR(CheckPathTraversal(r, user));
        Inode& file = r.target();
        if (file.is_dir) return hops::Status::IsDirectory(path);
        HOPS_RETURN_IF_ERROR(CheckAccess(file, user, kRead));
        // Both scans are pruned to the file's shard (Figure 3) and batched
        // into a single round trip: the block + replica fan-out of a read.
        kv::ReadBatch fanout;
        const std::vector<kv::Row>* block_rows = nullptr;
        const std::vector<kv::Row>* replica_rows = nullptr;
        if (rider.Serveable(file.id, r.target_locked_in_batch)) {
          HOPS_RETURN_IF_ERROR(rider.pending.Wait());
          block_rows = &rider.batch->rows(0);
          replica_rows = &rider.batch->rows(1);
        } else {
          rider.Discard();  // re-read under the confirmed id + lock
          size_t block_slot = fanout.Scan(schema_->blocks, {file.id});
          size_t replica_slot = fanout.Scan(schema_->replicas, {file.id});
          HOPS_RETURN_IF_ERROR(tx.Execute(fanout));
          block_rows = &fanout.rows(block_slot);
          replica_rows = &fanout.rows(replica_slot);
        }
        for (const auto& row : *block_rows) {
          Block b = BlockFromRow(row);
          LocatedBlock lb{b.block_id, b.block_index, b.num_bytes, {}};
          for (const auto& rep_row : *replica_rows) {
            Replica rep = ReplicaFromRow(rep_row);
            if (rep.block_id == b.block_id && rep.state == ReplicaState::kFinalized) {
              lb.locations.push_back(rep.datanode_id);
            }
          }
          blocks.push_back(std::move(lb));
        }
        std::sort(blocks.begin(), blocks.end(),
                  [](const LocatedBlock& a, const LocatedBlock& b) {
                    return a.block_index < b.block_index;
                  });
        return hops::Status::Ok();
      });
  if (!st.ok()) return st;
  return blocks;
}

hops::Result<FileStatus> Namenode::GetFileInfo(const std::string& path,
                                               const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(path));
  if (components.empty()) return StatusFromInode(root_, "/");
  HOPS_RETURN_IF_ERROR(WaitForPendingIntents(JoinPath(components)));
  FileStatus status;
  uint64_t hint_pv = InodePv(static_cast<int>(components.size()), 0, components.back());
  hops::Status st =
      RunTx(kv::TxHint{schema_->inodes, hint_pv}, [&](kv::Txn& tx) -> hops::Status {
        // Speculative fan-out (the getBlockLocations pattern): the
        // block-count scan rides the resolution window, so a warm stat of a
        // file costs one overlapped round-trip window instead of two. A
        // directory target simply discards the rider.
        SpeculativeRider rider =
            StageSpeculativeFanout(tx, components, {schema_->blocks});
        LockSpec spec;
        spec.target_mode = kv::LockMode::kShared;
        HOPS_ASSIGN_OR_RETURN(r, ResolveAndLock(tx, components, spec));
        HOPS_RETURN_IF_ERROR(CheckPathTraversal(r, user));
        status = StatusFromInode(r.target(), JoinPath(components));
        if (!r.target().is_dir) {
          if (rider.Serveable(r.target().id, r.target_locked_in_batch)) {
            HOPS_RETURN_IF_ERROR(rider.pending.Wait());
            status.num_blocks = static_cast<int64_t>(rider.batch->rows(0).size());
          } else {
            rider.Discard();
            HOPS_ASSIGN_OR_RETURN(block_rows, tx.Ppis(schema_->blocks, {r.target().id}));
            status.num_blocks = static_cast<int64_t>(block_rows.size());
          }
        } else {
          rider.Discard();
        }
        return hops::Status::Ok();
      });
  if (!st.ok()) return st;
  return status;
}

hops::Result<std::vector<FileStatus>> Namenode::ListStatus(const std::string& path,
                                                           const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(path));
  // A listing must include acknowledged children; "/" is covered by ANY
  // pending intent, so a root listing waits for a full drain.
  HOPS_RETURN_IF_ERROR(WaitForPendingIntents(JoinPath(components)));
  std::vector<FileStatus> listing;
  uint64_t hint_pv = components.empty()
                         ? RootPartitionValue()
                         : InodePv(static_cast<int>(components.size()), 0, components.back());
  hops::Status st = RunTx(
      kv::TxHint{schema_->inodes, hint_pv}, [&](kv::Txn& tx) -> hops::Status {
        listing.clear();
        Inode dir = root_;
        int dir_depth = 0;
        if (!components.empty()) {
          // The directory inode is shared-locked so the listing cannot see
          // phantom children (paper §5.2.1).
          LockSpec spec;
          spec.target_mode = kv::LockMode::kShared;
          HOPS_ASSIGN_OR_RETURN(r, ResolveAndLock(tx, components, spec));
          HOPS_RETURN_IF_ERROR(CheckPathTraversal(r, user));
          if (!r.target().is_dir) {
            listing.push_back(StatusFromInode(r.target(), JoinPath(components)));
            return hops::Status::Ok();
          }
          HOPS_RETURN_IF_ERROR(CheckAccess(r.target(), user, kRead));
          dir = r.target();
          dir_depth = r.target_depth();
        }
        HOPS_ASSIGN_OR_RETURN(children, ScanChildren(tx, dir, dir_depth, {}));
        std::string base = JoinPath(components);
        if (base == "/") base.clear();
        for (const auto& row : children) {
          Inode child = InodeFromRow(row);
          listing.push_back(StatusFromInode(child, base + "/" + child.name));
        }
        std::sort(listing.begin(), listing.end(),
                  [](const FileStatus& a, const FileStatus& b) { return a.name < b.name; });
        return hops::Status::Ok();
      });
  if (!st.ok()) return st;
  return listing;
}

hops::Status Namenode::SetPermission(const std::string& path, int64_t perm,
                                     const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(path));
  return SetAttr(components, perm, std::nullopt, user);
}

hops::Status Namenode::SetOwner(const std::string& path, const std::string& owner,
                                const std::string& group, const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(path));
  return SetAttr(components, std::nullopt, std::make_pair(owner, group), user);
}

hops::Status Namenode::SetAttr(const std::vector<std::string>& components,
                               std::optional<int64_t> perm,
                               std::optional<std::pair<std::string, std::string>> owner,
                               const UserContext& user) {
  if (components.empty()) return hops::Status::PermissionDenied("the root inode is immutable");
  if (owner && !user.superuser) return hops::Status::PermissionDenied("chown requires superuser");
  const int64_t start = MonotonicMicros();
  const std::string target = JoinPath(components);
  // Validate against acknowledged state: a file that exists only as a
  // pending create is checked against its pending entry (no wait, no
  // database trip); anything else through a stat, which waits out any
  // covering intent. Directories take the subtree path (§5: a chmod on a
  // non-empty directory may invalidate operations running below; quiesce
  // first) and never commit asynchronously.
  std::string current_owner;
  std::optional<IntentLog::PendingInfo> pending;
  if (UseAsyncCommit()) pending = intents_->LookupPending(target);
  if (pending && !pending->is_dir) {
    current_owner = pending->user;
  } else {
    auto info = GetFileInfo(target, user);
    if (!info.ok()) return info.status();
    if (info->is_dir) return SubtreeSetAttr(components, perm, owner, user);
    current_owner = info->owner;
  }
  if (perm && !user.superuser && user.user != current_owner) {
    return hops::Status::PermissionDenied("only the owner may chmod");
  }
  if (!UseAsyncCommit()) return SetAttrFileTx(components, perm, owner, user);
  IntentRecord rec;
  rec.op = owner ? IntentOp::kSetOwner : IntentOp::kSetPermission;
  rec.path = target;
  rec.user = user.user;
  rec.superuser = user.superuser;
  rec.perm = perm.value_or(0);
  if (owner) std::tie(rec.owner, rec.group) = *owner;
  // The pending entry tracks the owner-to-be, so a follow-up chmod by a new
  // owner validates against the acknowledged state.
  intents_->ReserveTouch(target, owner ? owner->first : current_owner,
                         /*owner_changes=*/owner.has_value());
  HOPS_RETURN_IF_ERROR(intents_->Submit(std::move(rec)));
  intents_->RecordAck(static_cast<uint64_t>(MonotonicMicros() - start));
  return hops::Status::Ok();
}

hops::Status Namenode::SetAttrFileTx(const std::vector<std::string>& components,
                                     std::optional<int64_t> perm,
                                     std::optional<std::pair<std::string, std::string>> owner,
                                     const UserContext& user) {
  return RunTx(
      kv::TxHint{schema_->inodes,
                 InodePv(static_cast<int>(components.size()), 0, components.back())},
      [&](kv::Txn& tx) -> hops::Status {
        LockSpec spec;
        spec.target_mode = kv::LockMode::kExclusive;
        HOPS_ASSIGN_OR_RETURN(r, ResolveAndLock(tx, components, spec));
        HOPS_RETURN_IF_ERROR(CheckPathTraversal(r, user));
        Inode& inode = r.target();
        if (perm) {
          if (!user.superuser && user.user != inode.owner) {
            return hops::Status::PermissionDenied("only the owner may chmod");
          }
          inode.perm = *perm;
        }
        if (owner) std::tie(inode.owner, inode.group) = *owner;
        inode.mtime = NowMicros();
        return tx.Update(schema_->inodes, ToRow(inode), r.target_pv());
      });
}

hops::Status Namenode::SetReplication(const std::string& path, int64_t replication,
                                      const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  if (replication < 1) return hops::Status::InvalidArgument("replication must be >= 1");
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(path));
  if (components.empty()) return hops::Status::IsDirectory("/");
  HOPS_RETURN_IF_ERROR(WaitForPendingIntents(JoinPath(components)));
  uint64_t hint_pv = InodePv(static_cast<int>(components.size()), 0, components.back());
  return RunTx(
      kv::TxHint{schema_->inodes, hint_pv}, [&](kv::Txn& tx) -> hops::Status {
        LockSpec spec;
        spec.target_mode = kv::LockMode::kExclusive;
        HOPS_ASSIGN_OR_RETURN(r, ResolveAndLock(tx, components, spec));
        HOPS_RETURN_IF_ERROR(CheckPathTraversal(r, user));
        Inode& file = r.target();
        if (file.is_dir) return hops::Status::IsDirectory(path);
        HOPS_RETURN_IF_ERROR(CheckAccess(file, user, kWrite));
        int64_t delta = replication - file.replication;
        if (delta == 0) return hops::Status::Ok();
        std::vector<Inode> ancestors(r.chain.begin(), r.chain.end() - 1);
        HOPS_RETURN_IF_ERROR(UpdateQuotaUsage(tx, ancestors, 0, file.size * delta,
                                              /*enforce=*/delta > 0));
        // Block + replica fan-out in one batched round trip, then one write
        // batch staging every per-block adjustment.
        kv::ReadBatch fanout;
        size_t block_slot = fanout.Scan(schema_->blocks, {file.id});
        size_t replica_slot = fanout.Scan(schema_->replicas, {file.id});
        HOPS_RETURN_IF_ERROR(tx.Execute(fanout));
        kv::WriteBatch writes;
        for (const auto& row : fanout.rows(block_slot)) {
          Block b = BlockFromRow(row);
          b.replication = replication;
          writes.Update(schema_->blocks, ToRow(b));
          // Re-evaluate the block's replica population.
          std::vector<Replica> reps;
          for (const auto& rep_row : fanout.rows(replica_slot)) {
            Replica rep = ReplicaFromRow(rep_row);
            if (rep.block_id == b.block_id) reps.push_back(rep);
          }
          int64_t have = static_cast<int64_t>(reps.size());
          if (have < replication) {
            Replica urb{file.id, b.block_id, 0, ReplicaState::kFinalized};
            writes.Write(schema_->urb, ToRow(urb));
          }
          // Excess replicas are *moved* to the ER table and queued for
          // datanode-side invalidation (§4.1).
          for (int64_t i = replication; i < have; ++i) {
            Replica extra = reps[static_cast<size_t>(i)];
            writes.Delete(schema_->replicas,
                          {extra.inode_id, extra.block_id, extra.datanode_id});
            writes.Write(schema_->er, ToRow(extra));
            writes.Write(schema_->inv, ToRow(extra));
          }
        }
        file.replication = replication;
        file.mtime = NowMicros();
        writes.Update(schema_->inodes, ToRow(file), r.target_pv());
        return tx.Execute(writes);
      });
}

hops::Result<ContentSummary> Namenode::GetContentSummary(const std::string& path,
                                                         const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(path));
  ContentSummary summary;
  // Read-only BFS with read-committed scans; like HDFS, the summary is not
  // atomic with respect to concurrent mutations.
  struct DirRef {
    InodeId id;
    int depth;
  };
  std::vector<DirRef> frontier;
  {
    auto info = GetFileInfo(path, user);
    if (!info.ok()) return info.status();
    if (!info->is_dir) {
      return ContentSummary{1, 0, info->size * info->replication};
    }
    summary.dir_count = 1;
    frontier.push_back({info->inode_id, static_cast<int>(components.size())});
  }
  while (!frontier.empty()) {
    std::vector<DirRef> next;
    for (const DirRef& dir : frontier) {
      hops::Status st = RunTx(
          kv::TxHint{schema_->inodes, ChildrenPartitionValue(dir.id)},
          [&](kv::Txn& tx) -> hops::Status {
            Inode fake;
            fake.id = dir.id;
            fake.is_dir = true;
            HOPS_ASSIGN_OR_RETURN(children, ScanChildren(tx, fake, dir.depth, {}));
            for (const auto& row : children) {
              Inode child = InodeFromRow(row);
              if (child.is_dir) {
                summary.dir_count++;
                next.push_back({child.id, dir.depth + 1});
              } else {
                summary.file_count++;
                summary.total_bytes += child.size * child.replication;
              }
            }
            return hops::Status::Ok();
          });
      if (!st.ok()) return st;
    }
    frontier = std::move(next);
  }
  return summary;
}

hops::Status Namenode::Rename(const std::string& src, const std::string& dst,
                              const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  HOPS_ASSIGN_OR_RETURN(src_parts, SplitPath(src));
  HOPS_ASSIGN_OR_RETURN(dst_parts, SplitPath(dst));
  if (src_parts.empty()) return hops::Status::PermissionDenied("the root inode is immutable");
  if (dst_parts.empty()) return hops::Status::AlreadyExists("/");
  if (IsPrefixPath(JoinPath(src_parts), JoinPath(dst_parts))) {
    return hops::Status::InvalidArgument("cannot move a directory into its own subtree");
  }
  // Rename stays a synchronous transaction; it must observe every
  // acknowledged op on both endpoints first.
  HOPS_RETURN_IF_ERROR(WaitForPendingIntents(JoinPath(src_parts)));
  HOPS_RETURN_IF_ERROR(WaitForPendingIntents(JoinPath(dst_parts)));
  hops::Status st = RenameInTx(src_parts, dst_parts, user);
  if (st.code() == hops::StatusCode::kNotEmpty) {
    // Non-empty directory: go through the subtree operations protocol (§6).
    st = SubtreeRename(src_parts, dst_parts, user);
  }
  if (st.ok()) {
    // The moved inode keeps its id, so only two entries go stale: src's,
    // and dst's if it names a previous occupant (or was planted by a
    // resolution racing this rename). Descendants are keyed by the moved
    // inode's id and stay valid. dst is not Put: its first resolution
    // caches it. Other namenodes' hints repair lazily on a miss (§5.1).
    EraseHint(src_parts);
    EraseHint(dst_parts);
  }
  return st;
}

hops::Status Namenode::RenameInTx(const std::vector<std::string>& src,
                                  const std::vector<std::string>& dst,
                                  const UserContext& user) {
  return RunTx(std::nullopt, [&](kv::Txn& tx) -> hops::Status {
    // Resolve both paths' interiors read-committed (no locks yet).
    LockSpec rc_only;
    rc_only.target_mode = kv::LockMode::kReadCommitted;
    rc_only.target_must_exist = true;
    HOPS_ASSIGN_OR_RETURN(src_r, ResolveAndLock(tx, src, rc_only));
    LockSpec rc_dst;
    rc_dst.target_mode = kv::LockMode::kReadCommitted;
    rc_dst.target_must_exist = false;
    HOPS_ASSIGN_OR_RETURN(dst_r, ResolveAndLock(tx, dst, rc_dst));
    HOPS_RETURN_IF_ERROR(CheckPathTraversal(src_r, user));
    HOPS_RETURN_IF_ERROR(CheckPathTraversal(dst_r, user));
    if (dst_r.target_exists) return hops::Status::AlreadyExists(JoinPath(dst));
    Inode& src_parent_rc = src_r.parent_of_target();
    Inode& dst_parent_rc = dst_r.parent_of_target();
    HOPS_RETURN_IF_ERROR(CheckAccess(src_parent_rc, user, kWrite));
    HOPS_RETURN_IF_ERROR(CheckAccess(dst_parent_rc, user, kWrite));

    // Take exclusive locks in the left-ordered depth-first total order (§5).
    struct LockItem {
      std::vector<std::string> path;
      InodeId parent;
      std::string name;
      int depth;
      bool expect_exists;
      InodeId expect_id;  // 0 = don't care
      Inode out;
      uint64_t out_pv = 0;
      bool found = false;
    };
    std::vector<LockItem> items;
    auto parent_path = [](const std::vector<std::string>& p) {
      return std::vector<std::string>(p.begin(), p.end() - 1);
    };
    if (src.size() >= 2) {
      items.push_back({parent_path(src), src_parent_rc.parent_id, src_parent_rc.name,
                       static_cast<int>(src.size()) - 1, true, src_parent_rc.id, {}, 0,
                       false});
    }
    items.push_back({src, src_parent_rc.id, src.back(), static_cast<int>(src.size()), true,
                     src_r.target().id, {}, 0, false});
    if (dst.size() >= 2 && dst_parent_rc.id != src_parent_rc.id) {
      items.push_back({parent_path(dst), dst_parent_rc.parent_id, dst_parent_rc.name,
                       static_cast<int>(dst.size()) - 1, true, dst_parent_rc.id, {}, 0,
                       false});
    }
    items.push_back(
        {dst, dst_parent_rc.id, dst.back(), static_cast<int>(dst.size()), false, 0, {}, 0,
         false});
    std::sort(items.begin(), items.end(),
              [](const LockItem& a, const LockItem& b) { return LockOrderLess(a.path, b.path); });
    // Batched lock phase: every lock item in one round trip, waits still in
    // the path total order established by the sort above.
    std::vector<Namenode::LockItem> refs;
    refs.reserve(items.size());
    for (const auto& item : items) refs.push_back({item.parent, item.name, item.depth});
    HOPS_ASSIGN_OR_RETURN(lock_reads, ReadLockItemsBatched(tx, refs));
    for (size_t i = 0; i < items.size(); ++i) {
      auto& item = items[i];
      if (lock_reads[i].has_value()) {
        item.found = true;
        item.out = std::move(lock_reads[i]->inode);
        item.out_pv = lock_reads[i]->pv;
        if (item.expect_id != 0 && item.out.id != item.expect_id) {
          return hops::Status::TxAborted("path changed during rename resolution");
        }
        HOPS_RETURN_IF_ERROR(CheckSubtreeLock(tx, item.out, item.out_pv));
      } else if (item.expect_exists) {
        return hops::Status::TxAborted("path changed during rename resolution");
      }
    }
    auto find_item = [&](const std::vector<std::string>& p) -> LockItem* {
      for (auto& item : items) {
        if (item.path == p) return &item;
      }
      return nullptr;
    };
    LockItem* src_item = find_item(src);
    LockItem* dst_item = find_item(dst);
    if (dst_item->found) return hops::Status::AlreadyExists(JoinPath(dst));
    Inode moving = src_item->out;

    // A directory with children cannot move in one transaction; signal the
    // caller to use the subtree protocol.
    if (moving.is_dir) {
      kv::ScanOptions probe;
      HOPS_ASSIGN_OR_RETURN(children,
                            ScanChildren(tx, moving, static_cast<int>(src.size()), probe));
      if (!children.empty()) return hops::Status::NotEmpty(JoinPath(src));
    }

    // Execute: the move rewrites only the moved inode's row (its primary key
    // and partition change); all satellite data keys on the inode id.
    HOPS_RETURN_IF_ERROR(
        tx.Delete(schema_->inodes, InodeKey(moving.parent_id, moving.name), src_item->out_pv));
    Inode moved = moving;
    moved.parent_id = dst_item->parent;
    moved.name = dst.back();
    moved.mtime = NowMicros();
    HOPS_RETURN_IF_ERROR(tx.Insert(schema_->inodes, ToRow(moved),
                                   InodePv(static_cast<int>(dst.size()), dst_item->parent,
                                           moved.name)));

    // Parent mtimes (the immutable root is never rewritten).
    int64_t now = NowMicros();
    LockItem* src_parent_item = src.size() >= 2 ? find_item(parent_path(src)) : nullptr;
    LockItem* dst_parent_item = dst.size() >= 2 ? find_item(parent_path(dst)) : nullptr;
    if (dst_parent_item == nullptr && dst.size() >= 2) {
      dst_parent_item = src_parent_item;  // same parent, deduplicated above
    }
    if (src_parent_item != nullptr) {
      src_parent_item->out.mtime = now;
      HOPS_RETURN_IF_ERROR(tx.Update(schema_->inodes, ToRow(src_parent_item->out),
                                     src_parent_item->out_pv));
    }
    if (dst_parent_item != nullptr && dst_parent_item != src_parent_item) {
      dst_parent_item->out.mtime = now;
      HOPS_RETURN_IF_ERROR(tx.Update(schema_->inodes, ToRow(dst_parent_item->out),
                                     dst_parent_item->out_pv));
    }

    // Quota usage moves from the source chain to the destination chain.
    int64_t ns = 1;
    int64_t ss = moving.is_dir ? 0 : moving.size * moving.replication;
    std::vector<Inode> src_ancestors(src_r.chain.begin(),
                                     src_r.chain.begin() + static_cast<long>(src.size()));
    // dst did not exist, so its chain is exactly [root .. dst parent].
    std::vector<Inode> dst_ancestors(dst_r.chain.begin(), dst_r.chain.end());
    HOPS_RETURN_IF_ERROR(UpdateQuotaUsage(tx, src_ancestors, -ns, -ss, /*enforce=*/false));
    HOPS_RETURN_IF_ERROR(UpdateQuotaUsage(tx, dst_ancestors, +ns, +ss, /*enforce=*/true));
    return hops::Status::Ok();
  });
}

Namenode::FileArtifactSlots Namenode::StageFileArtifactReads(kv::ReadBatch& batch,
                                                             InodeId file_id) {
  // All satellite tables are partitioned by the inode id, so the whole
  // fan-out -- blocks, replicas, and every life-cycle table -- stages as
  // pruned scans of one shard.
  FileArtifactSlots slots;
  slots.block_slot = batch.Scan(schema_->blocks, {file_id});
  slots.replica_slot = batch.Scan(schema_->replicas, {file_id});
  for (kv::TableId t : {schema_->urb, schema_->prb, schema_->ruc, schema_->cr, schema_->er}) {
    slots.lifecycle_slots.emplace_back(t, batch.Scan(t, {file_id}));
  }
  return slots;
}

void Namenode::StageFileArtifactRemovals(const kv::ReadBatch& batch,
                                         const FileArtifactSlots& slots, InodeId file_id,
                                         kv::WriteBatch& writes) {
  for (const auto& row : batch.rows(slots.block_slot)) {
    Block b = BlockFromRow(row);
    writes.Delete(schema_->blocks, {b.inode_id, b.block_id});
    writes.DeleteIfExists(schema_->block_lookup, {b.block_id});
  }
  for (const auto& row : batch.rows(slots.replica_slot)) {
    Replica rep = ReplicaFromRow(row);
    writes.Delete(schema_->replicas, {rep.inode_id, rep.block_id, rep.datanode_id});
    // Invalidation command for the datanode holding the replica (upsert:
    // the command may already be queued).
    writes.Write(schema_->inv, ToRow(rep));
  }
  for (const auto& [table, slot] : slots.lifecycle_slots) {
    for (const auto& row : batch.rows(slot)) {
      writes.Delete(table, {row[col::kReplicaInode].i64(), row[col::kReplicaBlock].i64(),
                            row[col::kReplicaDatanode].i64()});
    }
  }
  writes.DeleteIfExists(schema_->leases, {file_id});
}

hops::Status Namenode::DeleteFileArtifacts(kv::Txn& tx, const Inode& file) {
  // One batched round trip of pruned scans, then one write batch staging
  // every row removal + invalidation.
  kv::ReadBatch fanout;
  FileArtifactSlots slots = StageFileArtifactReads(fanout, file.id);
  HOPS_RETURN_IF_ERROR(tx.Execute(fanout));
  kv::WriteBatch writes;
  StageFileArtifactRemovals(fanout, slots, file.id, writes);
  return tx.Execute(writes);
}

hops::Status Namenode::Delete(const std::string& path, bool recursive,
                              const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(path));
  if (components.empty()) return hops::Status::PermissionDenied("the root inode is immutable");
  // Deletes are synchronous and must not race an unapplied intent on or
  // under this path (deleting a dir whose acknowledged child has not
  // materialized would lose the child).
  HOPS_RETURN_IF_ERROR(WaitForPendingIntents(JoinPath(components)));
  uint64_t hint_pv = InodePv(static_cast<int>(components.size()), 0, components.back());
  hops::Status st = RunTx(
      kv::TxHint{schema_->inodes, hint_pv}, [&](kv::Txn& tx) -> hops::Status {
        LockSpec spec;
        spec.target_mode = kv::LockMode::kExclusive;
        spec.lock_parent = true;
        HOPS_ASSIGN_OR_RETURN(r, ResolveAndLock(tx, components, spec));
        HOPS_RETURN_IF_ERROR(CheckPathTraversal(r, user));
        Inode& target = r.target();
        Inode& parent = r.parent_of_target();
        HOPS_RETURN_IF_ERROR(CheckAccess(parent, user, kWrite));
        if (target.is_dir) {
          HOPS_ASSIGN_OR_RETURN(children,
                                ScanChildren(tx, target, r.target_depth(), {}));
          if (!children.empty()) {
            return recursive ? hops::Status::NotEmpty(path)
                             : hops::Status::NotEmpty(path + " is not empty");
          }
          if (target.has_quota) {
            hops::Status qst = tx.Delete(schema_->quotas, {target.id});
            if (!qst.ok() && qst.code() != hops::StatusCode::kNotFound) return qst;
          }
        } else {
          HOPS_RETURN_IF_ERROR(DeleteFileArtifacts(tx, target));
        }
        HOPS_RETURN_IF_ERROR(tx.Delete(schema_->inodes,
                                       InodeKey(target.parent_id, target.name),
                                       r.target_pv()));
        int64_t ss = target.is_dir ? 0 : target.size * target.replication;
        std::vector<Inode> ancestors(r.chain.begin(), r.chain.end() - 1);
        HOPS_RETURN_IF_ERROR(UpdateQuotaUsage(tx, ancestors, -1, -ss, /*enforce=*/false));
        if (parent.id != kRootInode) {
          parent.mtime = NowMicros();
          HOPS_RETURN_IF_ERROR(tx.Update(schema_->inodes, ToRow(parent), r.parent_pv()));
        }
        return hops::Status::Ok();
      });
  if (st.code() == hops::StatusCode::kNotEmpty && recursive) {
    st = SubtreeDelete(components, user);
  }
  if (st.ok()) EraseHint(components);
  return st;
}

hops::Status Namenode::SetQuota(const std::string& path, int64_t ns_quota, int64_t ss_quota,
                                const UserContext& user) {
  HOPS_RETURN_IF_ERROR(CheckAlive());
  if (!user.superuser) return hops::Status::PermissionDenied("setQuota requires superuser");
  HOPS_ASSIGN_OR_RETURN(components, SplitPath(path));
  if (components.empty()) {
    return hops::Status::PermissionDenied("quotas on the root are not supported");
  }
  auto info = GetFileInfo(path, user);
  if (!info.ok()) return info.status();
  if (!info->is_dir) return hops::Status::NotDirectory(path);
  return SubtreeSetQuota(components, ns_quota, ss_quota, user);
}

// id_safe(): election id (0 before Start()).
NamenodeId Namenode::id_safe() const { return election_.id(); }

}  // namespace hops::fs
