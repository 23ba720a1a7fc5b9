#include "hopsfs/inode_cache.h"

#include <functional>

namespace hops::fs {

size_t InodeHintCache::KeyHash::operator()(KeyRef k) const noexcept {
  const size_t h = std::hash<std::string_view>{}(k.name);
  return h ^ (static_cast<size_t>(k.parent_id) * 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

std::vector<InodeHintCache::Hint> InodeHintCache::Walk(
    const std::vector<std::string>& components, bool refresh) const {
  std::vector<Hint> hints;
  InodeId parent = kRootInode;
  for (const std::string& name : components) {
    auto it = map_.find(KeyRef{parent, name});
    if (it == map_.end()) break;
    if (refresh) lru_.splice(lru_.begin(), lru_, it->second.lru);
    hints.push_back(it->second.hint);
    parent = it->second.hint.inode_id;
  }
  return hints;
}

std::vector<InodeHintCache::Hint> InodeHintCache::LookupChain(
    const std::vector<std::string>& components) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Hint> hints = Walk(components, /*refresh=*/true);
  if (!components.empty() && hints.size() == components.size()) {
    stats_.hits++;
  } else {
    stats_.misses++;
  }
  return hints;
}

std::vector<InodeHintCache::Hint> InodeHintCache::PeekChain(
    const std::vector<std::string>& components) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Walk(components, /*refresh=*/false);
}

void InodeHintCache::Put(InodeId parent_id, std::string_view name, InodeId inode_id,
                         std::optional<bool> is_dir) {
  if (capacity_ == 0) return;
  Hint fresh{inode_id, is_dir.value_or(false), is_dir.has_value()};
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(KeyRef{parent_id, name});
  if (it != map_.end()) {
    Hint& old = it->second.hint;
    if (!fresh.is_dir_known && old.is_dir_known && old.inode_id == inode_id) {
      fresh.is_dir = old.is_dir;
      fresh.is_dir_known = true;
    }
    old = fresh;
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    return;
  }
  it = map_.emplace(Key{parent_id, std::string(name)}, Entry{fresh, {}}).first;
  lru_.push_front(&it->first);
  it->second.lru = lru_.begin();
  if (map_.size() > capacity_) {
    map_.erase(map_.find(*lru_.back()));
    lru_.pop_back();
    stats_.evictions++;
  }
}

void InodeHintCache::Erase(InodeId parent_id, std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(KeyRef{parent_id, name});
  if (it == map_.end()) return;
  lru_.erase(it->second.lru);
  map_.erase(it);
  stats_.invalidations++;
}

void InodeHintCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
}

InodeHintCache::Stats InodeHintCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t InodeHintCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace hops::fs
