// Tunables for the HopsFS metadata service.
#pragma once

#include <chrono>
#include <cstdint>

#include "kv/kv.h"

namespace hops::fs {

struct FsConfig {
  // Which transactional KV backend the metadata service runs on: the
  // NDB-style pessimistic 2PL engine (the paper's) or the optimistic MVCC
  // engine. MiniCluster::Start resolves the HOPS_KV_ENGINE environment
  // override (which wins over this field) and writes the result back here,
  // so after Start the field names the engine actually constructed.
  kv::EngineKind kv_engine = kv::EngineKind::kNdb;

  // Depth at or below which inodes are pseudo-randomly partitioned by child
  // name instead of by parent inode id (paper §4.2.1). Depth counts edges
  // from the root: root = 0, "/a" = 1, "/a/b" = 2. The default 1 matches the
  // paper's "first two levels ... the root directory and its immediate
  // descendants".
  int random_partition_depth = 1;

  // Inodes ids are allocated in chunks per namenode so the variables table
  // row is not a hotspot.
  int64_t id_chunk_size = 1024;

  // Subtree delete: inodes removed per transaction batch (paper §6.1 ph. 3).
  int subtree_delete_batch = 64;
  // Threads deleting subtree phase-3 batches in parallel.
  int subtree_parallelism = 4;

  // Handler slots per namenode (paper §7.1's many-handlers model): at most
  // this many client transactions run on a namenode at once, each on its
  // caller's thread while it holds a slot; further callers wait in FIFO
  // order. 0 = no pool: operations run unbounded on the calling thread.
  int num_handlers = 0;

  // Heartbeats a namenode may miss before peers consider it dead.
  int leader_missed_rounds = 2;

  // Default replication for new files.
  int64_t default_replication = 3;
  int64_t block_size = 128LL * 1024 * 1024;

  // Inode hint cache capacity (entries) per namenode; 0 disables the cache
  // (used by the ablation benchmark).
  size_t hint_cache_capacity = 1 << 20;

  // Asynchronous metadata commits (AsyncFS/SwitchFS direction): create,
  // mkdirs and file setattr acknowledge once the op is validated, ordered
  // and DURABLE in the per-namenode op_intents log; the real metadata
  // transaction runs later on the namenode's applier thread through the
  // normal RunTx machinery. Reads and conflicting mutations on a path
  // with unapplied intents block until the covering intent applies
  // (read-your-writes per namenode; clients are sticky). Off = every op
  // commits its full transaction before replying (the paper's behavior and
  // the ablation baseline).
  bool async_metadata_commit = false;
  // Max adjacent intents the applier drains as one concurrent window
  // (intents whose paths are prefix-disjoint apply in parallel; same-path
  // intents always apply in acknowledgment order).
  int intent_apply_batch = 8;

  // How long one stage of an operation may keep waiting before it fails.
  // A transaction loop (RunTx, subtree quiesce, id allocation, leader
  // election, intent append, cleanup and adoption) retries aborts, lock
  // timeouts, OCC conflicts and -- inode ops only -- subtree locks, with the
  // backoff schedule of hopsfs/retry.h, until op_timeout has passed since
  // its first failure; it then returns the last attempt's status code,
  // naming the stage. A read or mutation blocked on a covering intent, and
  // an async create polling for a peer's mkdirs, wait at most op_timeout
  // from the start of the wait, then fail with a retryable kUnavailable
  // rather than run against committed state that lacks the acknowledged
  // write (a wedged applier must not hang every op forever, nor serve it
  // stale). Background intent applies never time out: an acknowledged op
  // must eventually apply.
  std::chrono::milliseconds op_timeout{30000};
};

}  // namespace hops::fs
