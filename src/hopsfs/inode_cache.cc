#include "hopsfs/inode_cache.h"

#include <functional>

namespace hops::fs {

namespace {

// The hint a Put of `fresh` leaves in place of `old`: a producer that does
// not know the kind keeps a known kind for the same inode.
InodeHintCache::Hint Merge(const InodeHintCache::Hint& old, InodeHintCache::Hint fresh) {
  if (!fresh.is_dir_known && old.is_dir_known && old.inode_id == fresh.inode_id) {
    fresh.is_dir = old.is_dir;
    fresh.is_dir_known = true;
  }
  return fresh;
}

}  // namespace

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
    const Entry& e = it->second;
    // Load first: the hot entries near the root are already set, and a
    // store would bounce their cache line between every reader.
    if (refresh && !e.referenced.load(std::memory_order_relaxed)) {
      e.referenced.store(true, std::memory_order_relaxed);
    }
    hints.push_back(e.hint);
    parent = e.hint.inode_id;
  }
  return hints;
}

std::vector<InodeHintCache::Hint> InodeHintCache::LookupChain(
    const std::vector<std::string>& components) const {
  std::vector<Hint> hints;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    hints = Walk(components, /*refresh=*/true);
  }
  if (!components.empty() && hints.size() == components.size()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return hints;
}

std::vector<InodeHintCache::Hint> InodeHintCache::PeekChain(
    const std::vector<std::string>& components) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return Walk(components, /*refresh=*/false);
}

void InodeHintCache::Put(InodeId parent_id, std::string_view name, InodeId inode_id,
                         std::optional<bool> is_dir) {
  if (capacity_ == 0) return;
  const Hint fresh{inode_id, is_dir.value_or(false), is_dir.has_value()};
  {
    // The common refresh changes nothing but recency.
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = map_.find(KeyRef{parent_id, name});
    if (it != map_.end() && Merge(it->second.hint, fresh) == it->second.hint) {
      it->second.referenced.store(true, std::memory_order_relaxed);
      return;
    }
  }
  std::lock_guard<std::shared_mutex> lock(mu_);
  auto it = map_.find(KeyRef{parent_id, name});
  if (it != map_.end()) {
    it->second.hint = Merge(it->second.hint, fresh);
    it->second.referenced.store(true, std::memory_order_relaxed);
    return;
  }
  if (map_.size() >= capacity_) EvictOne();
  it = map_.try_emplace(Key{parent_id, std::string(name)}).first;
  it->second.hint = fresh;
  it->second.pos = ring_.insert(hand_, &*it);  // just behind the hand
}

void InodeHintCache::EvictOne() {
  for (;;) {
    if (hand_ == ring_.end()) hand_ = ring_.begin();
    Entry& e = (*hand_)->second;
    if (e.referenced.load(std::memory_order_relaxed)) {
      e.referenced.store(false, std::memory_order_relaxed);  // second chance
      ++hand_;
      continue;
    }
    const Key& victim = (*hand_)->first;
    hand_ = ring_.erase(hand_);
    map_.erase(map_.find(victim));
    evictions_++;
    return;
  }
}

void InodeHintCache::Erase(InodeId parent_id, std::string_view name) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  auto it = map_.find(KeyRef{parent_id, name});
  if (it == map_.end()) return;
  const bool at_hand = hand_ == it->second.pos;
  auto next = ring_.erase(it->second.pos);
  if (at_hand) hand_ = next;
  map_.erase(it);
  invalidations_++;
}

void InodeHintCache::Clear() {
  std::lock_guard<std::shared_mutex> lock(mu_);
  map_.clear();
  ring_.clear();
  hand_ = ring_.end();
}

InodeHintCache::Stats InodeHintCache::stats() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.evictions = evictions_;
  s.invalidations = invalidations_;
  return s;
}

size_t InodeHintCache::size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return map_.size();
}

}  // namespace hops::fs
