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

  // Retries for transactional inode operations aborted by lock timeouts or
  // coordinator failover.
  int max_tx_retries = 12;
  // Retries (with exponential backoff) when an operation keeps hitting an
  // active subtree lock.
  int max_subtree_wait_retries = 20;
  std::chrono::milliseconds subtree_retry_backoff{2};

  // Inodes ids are allocated in chunks per namenode so the variables table
  // row is not a hotspot.
  int64_t id_chunk_size = 1024;

  // Subtree delete: inodes removed per transaction batch (paper §6.1 ph. 3).
  int subtree_delete_batch = 64;
  // Threads deleting subtree phase-3 batches in parallel.
  int subtree_parallelism = 4;

  // Handler threads per namenode (paper §7.1's many-handlers model). Client
  // requests are enqueued and each handler runs one operation's transaction
  // at a time; all handlers of all namenodes share the database's
  // cross-transaction completion mux, so their flush windows merge into
  // overlapped round trips. 0 = no pool: operations run inline on the
  // calling thread (the pre-handler-pool behavior).
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
  // normal RunTx/mux machinery. Reads and conflicting mutations on a path
  // with unapplied intents block until the covering intent applies
  // (read-your-writes per namenode; clients are sticky). Off = every op
  // commits its full transaction before replying (the paper's behavior and
  // the ablation baseline).
  bool async_metadata_commit = false;
  // Max adjacent intents the applier drains as one concurrent window
  // (intents whose paths are prefix-disjoint apply in parallel and their
  // transactions merge in the completion mux; same-path intents always
  // apply in acknowledgment order).
  int intent_apply_batch = 8;
  // Upper bound a blocked reader waits for a covering intent to apply
  // before proceeding against the committed state (a wedged applier must
  // not hang every read forever; proceeding early is at worst a stale
  // read, never a wrong namespace).
  std::chrono::milliseconds intent_wait_timeout{30000};
};

}  // namespace hops::fs
