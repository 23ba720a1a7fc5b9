// The inode hint cache (paper §5.1).
//
// Each namenode caches inode primary keys: (parent inode id, name) ->
// inode id. A path resolves by following ids from the root, one map lookup
// per component; given a full chain, a path of depth N resolves with a
// single batched primary-key read instead of N round trips.
//
// Entries are only hints. The batched read verifies each row's parent id
// against the previous row's id, so a stale hint costs one fallback to
// recursive resolution (which repairs the cache) and never a wrong answer.
// Because a key names its parent by id and a move keeps the inode's id, a
// rename or delete stales exactly one entry: the moved or deleted inode's
// own. The descendants of a renamed directory stay valid, so invalidation
// is a single erase. Peer namenodes' entries repair lazily on their next
// miss; nothing orders a Put against a concurrent Erase, since a Put that
// raced one is just another stale hint.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hopsfs/types.h"

namespace hops::fs {

class InodeHintCache {
 public:
  struct Hint {
    InodeId inode_id = kInvalidInode;
    // Cached inode kind, when the producing resolution knew it. A known
    // directory lets a warm stat skip staging the file-only fan-out rider
    // it would always discard; `is_dir_known == false` (hints from
    // producers that did not read the row) keeps the speculative behavior.
    bool is_dir = false;
    bool is_dir_known = false;
  };

  // Aggregate counters (all monotonic).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;  // Erase calls that removed an entry
    // Always 0: no Put is ever rejected. Kept only because bench/hopsbench
    // still reads it (inode_cache.stale_put_rejections).
    uint64_t stale_put_rejections = 0;
  };

  // capacity 0 disables caching entirely (ablation).
  explicit InodeHintCache(size_t capacity) : capacity_(capacity) {}

  InodeHintCache(const InodeHintCache&) = delete;
  InodeHintCache& operator=(const InodeHintCache&) = delete;

  // Returns hints for components[0..k) for the longest cached chain k,
  // starting at the root, refreshing recency and counting a hit (full
  // chain) or a miss. hints[i] is the inode of /components[0]/../components[i].
  std::vector<Hint> LookupChain(const std::vector<std::string>& components) const;

  // Like LookupChain but side-effect free: no recency refresh, no hit/miss
  // accounting. For speculative probes whose resolution performs its own
  // counted lookup (e.g. the getBlockLocations fan-out rider).
  std::vector<Hint> PeekChain(const std::vector<std::string>& components) const;

  // Records that `name` under `parent_id` is `inode_id`. `is_dir` records
  // the inode kind when the producer knows it; a refresh that does not know
  // it keeps a known kind for the same inode id.
  void Put(InodeId parent_id, std::string_view name, InodeId inode_id,
           std::optional<bool> is_dir = std::nullopt);

  // Drops the entry for `name` under `parent_id` (move/delete invalidation).
  void Erase(InodeId parent_id, std::string_view name);

  void Clear();

  Stats stats() const;
  size_t size() const;

 private:
  struct Key {
    InodeId parent_id;
    std::string name;
  };
  // A borrowed key, so lookups by path component allocate nothing.
  struct KeyRef {
    InodeId parent_id;
    std::string_view name;
    KeyRef(InodeId parent, std::string_view n) : parent_id(parent), name(n) {}
    KeyRef(const Key& k) : parent_id(k.parent_id), name(k.name) {}  // NOLINT: implicit by design
  };
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(KeyRef k) const noexcept;
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(KeyRef a, KeyRef b) const noexcept {
      return a.parent_id == b.parent_id && a.name == b.name;
    }
  };
  struct Entry {
    Hint hint;
    std::list<const Key*>::iterator lru;
  };

  // Requires mu_ held.
  std::vector<Hint> Walk(const std::vector<std::string>& components, bool refresh) const;

  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<Key, Entry, KeyHash, KeyEq> map_;
  // Keys of map_ (node keys are address-stable), most recently used first.
  // Recency updates are logically const, so lookups may splice.
  mutable std::list<const Key*> lru_;
  mutable Stats stats_;
};

}  // namespace hops::fs
