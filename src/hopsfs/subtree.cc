// The subtree operations protocol (paper §6): operations on directories of
// unknown (possibly huge) size that cannot fit in one database transaction.
//
// Phase 1  sets a persistent subtree-lock flag (owner = this namenode) on the
//          subtree root and registers the operation in active_subtree_ops,
//          after verifying no overlapping subtree operation is in flight.
// Phase 2  quiesces the subtree: level by level, one take-and-release
//          exclusive-lock scan batch per directory is put in flight through
//          the async pipelined batch engine, so a whole level's
//          partition-pruned scans overlap in a handful of round-trip
//          windows while building an in-memory tree of the subtree.
// Phase 3  executes: deletes run bottom-up (post-order) in parallel batched
//          transactions -- each transaction pipelines its inode probes and
//          per-file artifact fan-outs in one overlapped window and stages
//          every removal in one write batch -- so a namenode crash can never
//          orphan an inode; move, chmod/chown and setQuota update only the
//          subtree root in a single transaction.
// Failure handling (§6.2) is lazy: flags owned by dead namenodes are cleared
// by whoever trips over them (see Namenode::CheckSubtreeLock).
#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>

#include "hopsfs/namenode.h"
#include "hopsfs/partition.h"
#include "util/clock.h"
#include "util/thread_pool.h"

namespace hops::fs {

hops::Result<Namenode::SubtreeSnapshot> Namenode::SubtreeLockAndQuiesce(
    const std::vector<std::string>& components, SubtreeOp op, const UserContext& user) {
  SubtreeSnapshot snap;
  snap.root_components = components;
  const std::string my_path = JoinPath(components);

  // --- Phase 1: set the subtree flag --------------------------------------
  // The local registration must be visible BEFORE the flag commits:
  // otherwise an inode operation on this same namenode could read the fresh
  // flag, find no registered op, misjudge it as stale residue and clear it.
  InodeId registered_root = kInvalidInode;
  uint64_t hint_pv = InodePv(static_cast<int>(components.size()), 0, components.back());
  hops::Status st = RunTx(
      kv::TxHint{schema_->inodes, hint_pv}, [&](kv::Txn& tx) -> hops::Status {
        if (registered_root != kInvalidInode) {
          UnregisterMySubtreeOp(registered_root);  // previous attempt aborted
          registered_root = kInvalidInode;
        }
        LockSpec spec;
        spec.target_mode = kv::LockMode::kExclusive;
        HOPS_ASSIGN_OR_RETURN(r, ResolveAndLock(tx, components, spec));
        HOPS_RETURN_IF_ERROR(CheckPathTraversal(r, user));
        if (!r.target().is_dir) return hops::Status::NotDirectory(my_path);
        // No overlapping subtree operation may be active anywhere above or
        // below us (§6.1 phase 1); rows of dead namenodes (and stale rows of
        // our own failed cleanups) are reaped here.
        HOPS_ASSIGN_OR_RETURN(active, tx.FullTableScan(schema_->active_subtree_ops));
        for (const auto& row : active) {
          NamenodeId owner = row[col::kSubtreeNn].i64();
          const std::string& other = row[col::kSubtreePath].str();
          if (!IsPrefixPath(other, my_path) && !IsPrefixPath(my_path, other)) continue;
          bool genuinely_active =
              owner == id_safe()
                  ? IsMySubtreeOpActive(row[col::kSubtreeInode].i64())
                  : election_.IsNamenodeAlive(owner);
          if (genuinely_active) {
            return hops::Status::SubtreeLocked("subtree op active on " + other);
          }
          HOPS_RETURN_IF_ERROR(
              tx.Delete(schema_->active_subtree_ops, {row[col::kSubtreeInode].i64()}));
        }
        Inode target = r.target();
        target.subtree_lock_owner = id_safe();
        RegisterMySubtreeOp(target.id);
        registered_root = target.id;
        HOPS_RETURN_IF_ERROR(tx.Update(schema_->inodes, ToRow(target), r.target_pv()));
        HOPS_RETURN_IF_ERROR(tx.Write(
            schema_->active_subtree_ops,
            kv::Row{target.id, id_safe(), static_cast<int64_t>(op), my_path}));
        snap.root = target;
        snap.ancestors.assign(r.chain.begin(), r.chain.end() - 1);
        return hops::Status::Ok();
      });
  if (!st.ok()) {
    if (registered_root != kInvalidInode) UnregisterMySubtreeOp(registered_root);
    return st;
  }

  if (die_at_ && die_at_("subtree:flagged")) {
    Kill();
    return hops::Status::Failover("namenode crashed after setting the subtree lock");
  }

  // --- Phase 2: quiesce + build the in-memory tree ------------------------
  const int root_depth = static_cast<int>(components.size());
  snap.levels.push_back({SubtreeNode{snap.root.id, snap.root.parent_id, snap.root.name,
                                     true, 0, 0, snap.root.has_quota, root_depth}});
  snap.inode_count = 1;

  while (true) {
    const auto& level = snap.levels.back();
    std::vector<const SubtreeNode*> dirs;
    for (const auto& node : level) {
      if (node.is_dir) dirs.push_back(&node);
    }
    if (dirs.empty()) break;

    auto next = QuiesceLevel(dirs);
    if (!next.ok()) {
      (void)SubtreeAbort(snap);
      return next.status();
    }
    std::vector<SubtreeNode> next_level = *std::move(next);
    if (next_level.empty()) break;
    snap.inode_count += static_cast<int64_t>(next_level.size());
    for (const auto& node : next_level) {
      if (!node.is_dir) snap.byte_count += node.size * node.replication;
    }
    snap.levels.push_back(std::move(next_level));
  }
  return snap;
}

hops::Result<std::vector<Namenode::SubtreeNode>> Namenode::QuiesceLevel(
    const std::vector<const SubtreeNode*>& dirs) {
  // Take-and-release exclusive locks wait out every in-flight inode
  // operation below us; new operations see the subtree flag and back off
  // voluntarily (§6.3). One scan batch per directory is put in flight
  // through the pipelined engine, so the level's independent per-partition
  // round trips overlap instead of costing one trip each. The level is
  // chunked into transactions so a retryable failure (any lock timeout
  // aborts its whole transaction) re-scans one chunk, not the whole level.
  kv::ScanOptions opts;
  opts.lock = kv::LockMode::kExclusive;
  opts.take_and_release = true;

  constexpr size_t kDirsPerTx = 64;
  std::vector<SubtreeNode> next_level;
  for (size_t base = 0; base < dirs.size(); base += kDirsPerTx) {
    const size_t end = std::min(dirs.size(), base + kDirsPerTx);
    hops::Status st;
    for (int attempt = 0; attempt < config_->max_tx_retries; ++attempt) {
      st = hops::Status::Ok();
      const size_t undo_mark = next_level.size();  // discard partial output on retry
      auto tx =
          db_->Begin(kv::TxHint{schema_->inodes, ChildrenPartitionValue(dirs[base]->id)});
      // deque: ExecuteAsync keeps a pointer to each staged batch until flush.
      std::deque<kv::ReadBatch> batches;
      std::vector<std::pair<const SubtreeNode*, kv::Pending>> pending;
      auto absorb = [&](const SubtreeNode* dir,
                        const std::vector<kv::Row>& rows) -> hops::Status {
        for (const auto& row : rows) {
          Inode child = InodeFromRow(row);
          if (child.subtree_lock_owner != kNoSubtreeLock &&
              child.subtree_lock_owner != id_safe() &&
              election_.IsNamenodeAlive(child.subtree_lock_owner)) {
            return hops::Status::SubtreeLocked("inner subtree locked by namenode " +
                                              std::to_string(child.subtree_lock_owner));
          }
          next_level.push_back(SubtreeNode{child.id, child.parent_id, child.name,
                                           child.is_dir, child.size, child.replication,
                                           child.has_quota, dir->depth + 1});
        }
        return hops::Status::Ok();
      };
      for (size_t d = base; d < end && st.ok(); ++d) {
        const SubtreeNode* dir = dirs[d];
        if (ChildrenArePruned(dir->depth, config_->random_partition_depth)) {
          batches.emplace_back();
          batches.back().Scan(schema_->inodes, kv::Key{dir->id}, opts,
                              ChildrenPartitionValue(dir->id));
          pending.emplace_back(dir, tx->ExecuteAsync(batches.back()));
        } else {
          // Top of the tree: children are scattered pseudo-randomly; pay an
          // index scan (§4.2.1). Rare -- only above random_partition_depth.
          auto rows = tx->IndexScan(schema_->inodes, kv::Key{dir->id}, opts);
          st = rows.ok() ? absorb(dir, *rows) : rows.status();
        }
      }
      for (size_t i = 0; i < pending.size() && st.ok(); ++i) {
        st = pending[i].second.Wait();
        if (st.ok()) st = absorb(pending[i].first, batches[i].rows(0));
      }
      if (st.ok()) {
        (void)tx->Commit();  // read-only: releases nothing but the tx slot
        break;
      }
      next_level.resize(undo_mark);
      if (!st.IsRetryableTx()) return st;
    }
    if (!st.ok()) return st;  // chunk exhausted its retries
  }
  return next_level;
}

hops::Status Namenode::SubtreeAbort(const SubtreeSnapshot& snap) {
  UnregisterMySubtreeOp(snap.root.id);
  return RunTx(std::nullopt, [&](kv::Txn& tx) -> hops::Status {
    auto out = ReadInode(tx, snap.root.parent_id, snap.root.name,
                         static_cast<int>(snap.root_components.size()),
                         kv::LockMode::kExclusive);
    if (out.ok() && out->inode.id == snap.root.id &&
        out->inode.subtree_lock_owner == id_safe()) {
      Inode cleared = out->inode;
      cleared.subtree_lock_owner = kNoSubtreeLock;
      HOPS_RETURN_IF_ERROR(tx.Update(schema_->inodes, ToRow(cleared), out->pv));
    } else if (!out.ok() && out.status().code() != hops::StatusCode::kNotFound) {
      return out.status();
    }
    hops::Status st = tx.Delete(schema_->active_subtree_ops, {snap.root.id});
    if (!st.ok() && st.code() != hops::StatusCode::kNotFound) return st;
    return hops::Status::Ok();
  });
}

hops::Status Namenode::DeleteBatchPipelined(const std::vector<SubtreeNode>& batch,
                                            const std::vector<Inode>& quota_ancestors) {
  hops::Status st = RunTx(std::nullopt, [&](kv::Txn& tx) -> hops::Status {
    // Stage 1: reads, all in flight together -- one X-locking existence
    // probe batch covering every inode row at both candidate partition
    // rules (rows that crossed the random-partition boundary in a move keep
    // their insert-time partition), plus one batch carrying every file's
    // artifact fan-out. Both flush as ONE overlapped window instead of a
    // trip per inode and two per file.
    struct InodeProbe {
      size_t primary_slot = 0;
      size_t alternate_slot = SIZE_MAX;
      uint64_t primary_pv = 0;
      uint64_t alternate_pv = 0;
    };
    kv::ReadBatch probes;
    std::vector<InodeProbe> probe_slots;
    probe_slots.reserve(batch.size());
    for (const SubtreeNode& node : batch) {
      InodeProbe p;
      const InodePvPair pv = InodePvCandidates(node.depth, node.parent_id, node.name);
      p.primary_pv = pv.primary;
      p.primary_slot = probes.Get(schema_->inodes, kv::Key{node.parent_id, node.name},
                                  kv::LockMode::kExclusive, pv.primary);
      if (pv.dual) {
        p.alternate_pv = pv.alternate;
        p.alternate_slot = probes.Get(schema_->inodes, kv::Key{node.parent_id, node.name},
                                      kv::LockMode::kExclusive, pv.alternate);
      }
      probe_slots.push_back(p);
    }
    auto probe_pending = tx.ExecuteAsync(probes);

    // One batch carries every file's artifact fan-out; it pipelines with
    // the probe batch, so the whole read stage is ONE overlapped window.
    struct FileFanout {
      const SubtreeNode* node = nullptr;
      FileArtifactSlots slots;
    };
    kv::ReadBatch fanout;
    std::vector<FileFanout> fanouts;
    for (const SubtreeNode& node : batch) {
      if (node.is_dir) continue;
      fanouts.push_back(FileFanout{&node, StageFileArtifactReads(fanout, node.id)});
    }
    kv::Pending fanout_pending;
    if (!fanout.empty()) fanout_pending = tx.ExecuteAsync(fanout);
    HOPS_RETURN_IF_ERROR(probe_pending.Wait());
    if (fanout_pending.valid()) HOPS_RETURN_IF_ERROR(fanout_pending.Wait());

    // Stage 2: one write batch stages every row removal + invalidation; the
    // probes' X locks pin the inode rows, so the staged deletes cannot race
    // a concurrent re-create.
    kv::WriteBatch writes;
    int64_t ns_removed = 0;
    int64_t ss_removed = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const SubtreeNode& node = batch[i];
      const InodeProbe& p = probe_slots[i];
      bool at_primary = probes.row(p.primary_slot).has_value();
      bool at_alternate = !at_primary && p.alternate_slot != SIZE_MAX &&
                          probes.row(p.alternate_slot).has_value();
      if (at_primary || at_alternate) {
        writes.Delete(schema_->inodes, kv::Key{node.parent_id, node.name},
                      at_primary ? p.primary_pv : p.alternate_pv);
        ns_removed++;
        if (!node.is_dir) ss_removed += node.size * node.replication;
      }  // else: already gone (a crashed predecessor's progress)
      if (node.has_quota) writes.DeleteIfExists(schema_->quotas, {node.id});
    }
    for (const FileFanout& f : fanouts) {
      StageFileArtifactRemovals(fanout, f.slots, f.node->id, writes);
    }
    HOPS_RETURN_IF_ERROR(tx.Execute(writes));
    return UpdateQuotaUsage(tx, quota_ancestors, -ns_removed, -ss_removed,
                            /*enforce=*/false);
  });
  // The batch committed: its inodes are gone, and so are their hints. A
  // batch that failed deleted nothing and leaves its hints live.
  if (st.ok()) {
    for (const SubtreeNode& node : batch) hint_cache_.Erase(node.parent_id, node.name);
  }
  return st;
}

hops::Status Namenode::SubtreeDelete(const std::vector<std::string>& components,
                                     const UserContext& user) {
  auto snap_or = SubtreeLockAndQuiesce(components, SubtreeOp::kDelete, user);
  if (!snap_or.ok()) return snap_or.status();
  SubtreeSnapshot& snap = *snap_or;

  if (die_at_ && die_at_("subtree:quiesced")) {
    Kill();
    return hops::Status::Failover("namenode crashed after quiescing the subtree");
  }

  // Phase 3: bottom-up (post-order) parallel batched deletes. Children are
  // always removed before their parents, so a crash leaves a connected,
  // consistent namespace -- the client just re-runs the delete (§6.2).
  ThreadPool pool(static_cast<size_t>(std::max(1, config_->subtree_parallelism)));
  const int batch_size = std::max(1, config_->subtree_delete_batch);
  for (size_t li = snap.levels.size(); li-- > 0;) {
    const auto& level = snap.levels[li];
    std::mutex err_mu;
    hops::Status first_error;
    std::atomic<bool> failed{false};
    for (size_t base = 0; base < level.size(); base += static_cast<size_t>(batch_size)) {
      if (die_at_ && die_at_("subtree:batch")) {
        Kill();
        pool.Wait();
        return hops::Status::Failover("namenode crashed mid-delete");
      }
      size_t end = std::min(level.size(), base + static_cast<size_t>(batch_size));
      std::vector<SubtreeNode> batch(level.begin() + static_cast<long>(base),
                                     level.begin() + static_cast<long>(end));
      pool.Submit([&, batch = std::move(batch)] {
        if (failed.load(std::memory_order_relaxed)) return;
        hops::Status st = DeleteBatchPipelined(batch, snap.ancestors);
        if (!st.ok()) {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!failed.exchange(true)) first_error = st;
        }
      });
    }
    pool.Wait();
    if (failed.load()) {
      (void)SubtreeAbort(snap);
      return first_error;
    }
  }

  // The root row is gone (its flag with it); drop the op registration and
  // touch the parent directory.
  UnregisterMySubtreeOp(snap.root.id);
  return RunTx(std::nullopt, [&](kv::Txn& tx) -> hops::Status {
    hops::Status st = tx.Delete(schema_->active_subtree_ops, {snap.root.id});
    if (!st.ok() && st.code() != hops::StatusCode::kNotFound) return st;
    if (snap.root.parent_id != kRootInode && !snap.ancestors.empty()) {
      const Inode& rc_parent = snap.ancestors.back();
      auto out = ReadInode(tx, rc_parent.parent_id, rc_parent.name,
                           static_cast<int>(components.size()) - 1,
                           kv::LockMode::kExclusive);
      if (out.ok() && out->inode.id == snap.root.parent_id) {
        Inode parent = out->inode;
        parent.mtime = NowMicros();
        HOPS_RETURN_IF_ERROR(tx.Update(schema_->inodes, ToRow(parent), out->pv));
      }
    }
    return hops::Status::Ok();
  });
}

hops::Status Namenode::SubtreeRename(const std::vector<std::string>& src,
                                     const std::vector<std::string>& dst,
                                     const UserContext& user) {
  auto snap_or = SubtreeLockAndQuiesce(src, SubtreeOp::kMove, user);
  if (!snap_or.ok()) return snap_or.status();
  SubtreeSnapshot& snap = *snap_or;

  if (die_at_ && die_at_("subtree:quiesced")) {
    Kill();
    return hops::Status::Failover("namenode crashed after quiescing the subtree");
  }

  // Phase 3: a single transaction rewrites only the subtree root's row; the
  // inner inodes reference their parents by id and are untouched.
  hops::Status st = RunTx(std::nullopt, [&](kv::Txn& tx) -> hops::Status {
    LockSpec rc_dst;
    rc_dst.target_mode = kv::LockMode::kReadCommitted;
    rc_dst.target_must_exist = false;
    HOPS_ASSIGN_OR_RETURN(dst_r, ResolveAndLock(tx, dst, rc_dst));
    HOPS_RETURN_IF_ERROR(CheckPathTraversal(dst_r, user));
    if (dst_r.target_exists) return hops::Status::AlreadyExists(JoinPath(dst));
    Inode& dst_parent_rc = dst_r.parent_of_target();
    HOPS_RETURN_IF_ERROR(CheckAccess(dst_parent_rc, user, 2));

    // Lock in left-ordered DFS total order: src parent, src root, dst
    // parent, dst slot (deduplicated, sorted).
    struct Item {
      std::vector<std::string> path;
      InodeId parent;
      std::string name;
      int depth;
      bool must_exist;
      Inode out;
      uint64_t out_pv = 0;
      bool found = false;
    };
    auto parent_path = [](const std::vector<std::string>& p) {
      return std::vector<std::string>(p.begin(), p.end() - 1);
    };
    std::vector<Item> items;
    if (src.size() >= 2) {
      const Inode& sp = snap.ancestors.back();
      items.push_back({parent_path(src), sp.parent_id, sp.name,
                       static_cast<int>(src.size()) - 1, true, {}, 0, false});
    }
    items.push_back({src, snap.root.parent_id, snap.root.name,
                     static_cast<int>(src.size()), true, {}, 0, false});
    if (dst.size() >= 2 && parent_path(dst) != parent_path(src)) {
      items.push_back({parent_path(dst), dst_parent_rc.parent_id, dst_parent_rc.name,
                       static_cast<int>(dst.size()) - 1, true, {}, 0, false});
    }
    items.push_back({dst, dst_parent_rc.id, dst.back(), static_cast<int>(dst.size()),
                     false, {}, 0, false});
    std::sort(items.begin(), items.end(),
              [](const Item& a, const Item& b) { return LockOrderLess(a.path, b.path); });
    // Batched lock phase: one round trip for every lock item, waits in the
    // path total order (see ReadLockItemsBatched).
    std::vector<LockItem> refs;
    refs.reserve(items.size());
    for (const auto& item : items) refs.push_back({item.parent, item.name, item.depth});
    HOPS_ASSIGN_OR_RETURN(lock_reads, ReadLockItemsBatched(tx, refs));
    for (size_t i = 0; i < items.size(); ++i) {
      auto& item = items[i];
      if (lock_reads[i].has_value()) {
        item.found = true;
        item.out = std::move(lock_reads[i]->inode);
        item.out_pv = lock_reads[i]->pv;
      } else if (item.must_exist) {
        return hops::Status::TxAborted("path changed during subtree rename");
      }
    }
    auto find_item = [&](const std::vector<std::string>& p) -> Item* {
      for (auto& item : items) {
        if (item.path == p) return &item;
      }
      return nullptr;
    };
    Item* src_item = find_item(src);
    Item* dst_item = find_item(dst);
    if (dst_item->found) return hops::Status::AlreadyExists(JoinPath(dst));
    if (src_item->out.id != snap.root.id ||
        src_item->out.subtree_lock_owner != id_safe()) {
      return hops::Status::TxAborted("subtree root changed under the lock");
    }

    HOPS_RETURN_IF_ERROR(tx.Delete(
        schema_->inodes, kv::Key{src_item->out.parent_id, src_item->out.name},
        src_item->out_pv));
    Inode moved = src_item->out;
    moved.parent_id = dst_item->parent;
    moved.name = dst.back();
    moved.mtime = NowMicros();
    moved.subtree_lock_owner = kNoSubtreeLock;  // released by the same commit
    HOPS_RETURN_IF_ERROR(
        tx.Insert(schema_->inodes, ToRow(moved),
                  InodePv(static_cast<int>(dst.size()), moved.parent_id, moved.name)));

    int64_t now = NowMicros();
    Item* src_parent_item = src.size() >= 2 ? find_item(parent_path(src)) : nullptr;
    Item* dst_parent_item = dst.size() >= 2 ? find_item(parent_path(dst)) : nullptr;
    if (src_parent_item != nullptr && src_parent_item->found) {
      src_parent_item->out.mtime = now;
      HOPS_RETURN_IF_ERROR(
          tx.Update(schema_->inodes, ToRow(src_parent_item->out), src_parent_item->out_pv));
    }
    if (dst_parent_item != nullptr && dst_parent_item != src_parent_item &&
        dst_parent_item->found) {
      dst_parent_item->out.mtime = now;
      HOPS_RETURN_IF_ERROR(
          tx.Update(schema_->inodes, ToRow(dst_parent_item->out), dst_parent_item->out_pv));
    }

    // The whole subtree's usage migrates between the two ancestor chains.
    std::vector<Inode> dst_ancestors(dst_r.chain.begin(), dst_r.chain.end());
    HOPS_RETURN_IF_ERROR(UpdateQuotaUsage(tx, snap.ancestors, -snap.inode_count,
                                          -snap.byte_count, /*enforce=*/false));
    HOPS_RETURN_IF_ERROR(UpdateQuotaUsage(tx, dst_ancestors, +snap.inode_count,
                                          +snap.byte_count, /*enforce=*/true));
    hops::Status del = tx.Delete(schema_->active_subtree_ops, {snap.root.id});
    if (!del.ok() && del.code() != hops::StatusCode::kNotFound) return del;
    return hops::Status::Ok();
  });
  if (st.ok()) {
    UnregisterMySubtreeOp(snap.root.id);
  } else if (st.code() != hops::StatusCode::kFailover) {
    (void)SubtreeAbort(snap);
  }
  return st;
}

hops::Status Namenode::SubtreeSetAttr(
    const std::vector<std::string>& components, std::optional<int64_t> perm,
    std::optional<std::pair<std::string, std::string>> owner, const UserContext& user) {
  auto snap_or = SubtreeLockAndQuiesce(components, SubtreeOp::kSetAttr, user);
  if (!snap_or.ok()) return snap_or.status();
  SubtreeSnapshot& snap = *snap_or;
  hops::Status st = RunTx(std::nullopt, [&](kv::Txn& tx) -> hops::Status {
    auto out = ReadInode(tx, snap.root.parent_id, snap.root.name,
                         static_cast<int>(components.size()), kv::LockMode::kExclusive);
    if (!out.ok()) return out.status();
    Inode inode = out->inode;
    if (inode.id != snap.root.id || inode.subtree_lock_owner != id_safe()) {
      return hops::Status::TxAborted("subtree root changed under the lock");
    }
    if (perm) {
      if (!user.superuser && user.user != inode.owner) {
        return hops::Status::PermissionDenied("only the owner may chmod");
      }
      inode.perm = *perm;
    }
    if (owner) {
      inode.owner = owner->first;
      inode.group = owner->second;
    }
    inode.mtime = NowMicros();
    inode.subtree_lock_owner = kNoSubtreeLock;
    HOPS_RETURN_IF_ERROR(tx.Update(schema_->inodes, ToRow(inode), out->pv));
    hops::Status del = tx.Delete(schema_->active_subtree_ops, {snap.root.id});
    if (!del.ok() && del.code() != hops::StatusCode::kNotFound) return del;
    return hops::Status::Ok();
  });
  if (st.ok()) {
    UnregisterMySubtreeOp(snap.root.id);
  } else if (st.code() != hops::StatusCode::kFailover) {
    (void)SubtreeAbort(snap);
  }
  return st;
}

hops::Status Namenode::SubtreeSetQuota(const std::vector<std::string>& components,
                                       int64_t ns_quota, int64_t ss_quota,
                                       const UserContext& user) {
  auto snap_or = SubtreeLockAndQuiesce(components, SubtreeOp::kSetQuota, user);
  if (!snap_or.ok()) return snap_or.status();
  SubtreeSnapshot& snap = *snap_or;
  hops::Status st = RunTx(std::nullopt, [&](kv::Txn& tx) -> hops::Status {
    auto out = ReadInode(tx, snap.root.parent_id, snap.root.name,
                         static_cast<int>(components.size()), kv::LockMode::kExclusive);
    if (!out.ok()) return out.status();
    Inode inode = out->inode;
    if (inode.id != snap.root.id || inode.subtree_lock_owner != id_safe()) {
      return hops::Status::TxAborted("subtree root changed under the lock");
    }
    bool clearing = ns_quota < 0 && ss_quota < 0;
    if (clearing) {
      hops::Status del = tx.Delete(schema_->quotas, {inode.id});
      if (!del.ok() && del.code() != hops::StatusCode::kNotFound) return del;
      inode.has_quota = false;
    } else {
      // Usage counters initialize from the quiesced snapshot (the directory
      // counts itself in its namespace usage, as in HDFS).
      DirectoryQuota q{inode.id, ns_quota, ss_quota, snap.inode_count, snap.byte_count};
      HOPS_RETURN_IF_ERROR(tx.Write(schema_->quotas, ToRow(q)));
      inode.has_quota = true;
    }
    inode.subtree_lock_owner = kNoSubtreeLock;
    HOPS_RETURN_IF_ERROR(tx.Update(schema_->inodes, ToRow(inode), out->pv));
    hops::Status del = tx.Delete(schema_->active_subtree_ops, {inode.id});
    if (!del.ok() && del.code() != hops::StatusCode::kNotFound) return del;
    return hops::Status::Ok();
  });
  if (st.ok()) {
    UnregisterMySubtreeOp(snap.root.id);
  } else if (st.code() != hops::StatusCode::kFailover) {
    (void)SubtreeAbort(snap);
  }
  return st;
}

}  // namespace hops::fs
