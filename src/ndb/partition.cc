#include "ndb/partition.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hops::ndb {

namespace {
size_t RowBytes(const std::string& ekey, const Row& row) {
  return ekey.size() + row.FootprintBytes();
}
}  // namespace

bool Partition::Grantable(const LockState& ls, TxId tx, LockMode mode) const {
  if (ls.exclusive == tx) return true;  // already hold X: any request is fine
  if (mode == LockMode::kShared) {
    return ls.exclusive == 0;
  }
  // Exclusive: no other exclusive holder and no other shared holders.
  if (ls.exclusive != 0) return false;
  for (TxId holder : ls.shared) {
    if (holder != tx) return false;
  }
  return true;
}

hops::Status Partition::AcquireLock(TxId tx, const std::string& ekey, LockMode mode,
                                    std::chrono::steady_clock::time_point deadline,
                                    bool* waited) {
  if (mode == LockMode::kReadCommitted) return hops::Status::Ok();
  std::unique_lock<std::mutex> lock(lock_mu_);
  // References into unordered_map stay valid across inserts; ReleaseLock
  // never erases an entry while waiters > 0.
  LockState& ls = locks_[ekey];
  while (!Grantable(ls, tx, mode)) {
    if (waited != nullptr) *waited = true;
    ls.waiters++;
    auto wait_result = lock_released_.wait_until(lock, deadline);
    ls.waiters--;
    if (wait_result == std::cv_status::timeout && !Grantable(ls, tx, mode)) {
      if (ls.exclusive == 0 && ls.shared.empty() && ls.waiters == 0) {
        locks_.erase(ekey);
      }
      return hops::Status::LockTimeout("row lock wait timed out");
    }
  }
  if (mode == LockMode::kExclusive) {
    // Drop any shared entry we held (sole-holder upgrade) and take ownership.
    ls.shared.erase(std::remove(ls.shared.begin(), ls.shared.end(), tx), ls.shared.end());
    ls.exclusive = tx;
  } else {
    if (ls.exclusive != tx &&
        std::find(ls.shared.begin(), ls.shared.end(), tx) == ls.shared.end()) {
      ls.shared.push_back(tx);
    }
  }
  return hops::Status::Ok();
}

void Partition::ReleaseLock(TxId tx, const std::string& ekey) {
  bool had_waiters;
  {
    std::lock_guard<std::mutex> lock(lock_mu_);
    auto it = locks_.find(ekey);
    if (it == locks_.end()) return;
    LockState& ls = it->second;
    if (ls.exclusive == tx) ls.exclusive = 0;
    ls.shared.erase(std::remove(ls.shared.begin(), ls.shared.end(), tx), ls.shared.end());
    had_waiters = ls.waiters > 0;
    if (ls.exclusive == 0 && ls.shared.empty() && !had_waiters) locks_.erase(it);
  }
  // The condition variable is shared by every row of the partition: waking
  // it for a row nobody waits on would only send other rows' waiters back
  // to sleep.
  if (had_waiters) lock_released_.notify_all();
}

bool Partition::Holds(TxId tx, const std::string& ekey, LockMode mode) const {
  if (mode == LockMode::kReadCommitted) return true;
  std::lock_guard<std::mutex> lock(lock_mu_);
  auto it = locks_.find(ekey);
  if (it == locks_.end()) return false;
  const LockState& ls = it->second;
  if (ls.exclusive == tx) return true;
  if (mode == LockMode::kShared) {
    return std::find(ls.shared.begin(), ls.shared.end(), tx) != ls.shared.end();
  }
  return false;
}

std::optional<Row> Partition::Get(const std::string& ekey) const {
  std::shared_lock<std::shared_mutex> lock(rows_mu_);
  auto it = rows_.find(ekey);
  if (it == rows_.end()) return std::nullopt;
  return it->second;
}

bool Partition::Contains(const std::string& ekey) const {
  std::shared_lock<std::shared_mutex> lock(rows_mu_);
  return rows_.count(ekey) > 0;
}

void Partition::ApplyPut(const std::string& ekey, Row row) {
  // Declared before the guard, so the replaced row is dropped after rows_mu_
  // is released.
  Row replaced;
  std::lock_guard<std::shared_mutex> lock(rows_mu_);
  data_bytes_ += RowBytes(ekey, row);
  auto [it, inserted] = rows_.try_emplace(ekey);
  if (!inserted) data_bytes_ -= RowBytes(ekey, it->second);
  replaced = std::exchange(it->second, std::move(row));
}

void Partition::ApplyDelete(const std::string& ekey) {
  decltype(rows_)::node_type erased;  // dropped after rows_mu_ is released
  std::lock_guard<std::shared_mutex> lock(rows_mu_);
  auto it = rows_.find(ekey);
  if (it == rows_.end()) return;
  data_bytes_ -= RowBytes(ekey, it->second);
  erased = rows_.extract(it);
}

std::vector<std::pair<std::string, Row>> Partition::SnapshotPrefix(
    const std::string& prefix) const {
  std::vector<std::pair<std::string, Row>> out;
  std::shared_lock<std::shared_mutex> lock(rows_mu_);
  auto it = prefix.empty() ? rows_.begin() : rows_.lower_bound(prefix);
  for (; it != rows_.end(); ++it) {
    if (!prefix.empty() && it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.emplace_back(it->first, it->second);
  }
  return out;
}

size_t Partition::row_count() const {
  std::shared_lock<std::shared_mutex> lock(rows_mu_);
  return rows_.size();
}

size_t Partition::data_bytes() const {
  std::shared_lock<std::shared_mutex> lock(rows_mu_);
  return data_bytes_;
}

}  // namespace hops::ndb
