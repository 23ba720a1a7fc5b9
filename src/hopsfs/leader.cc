#include "hopsfs/leader.h"

#include "hopsfs/retry.h"

namespace hops::fs {

LeaderElection::LeaderElection(kv::Engine* db, const MetadataSchema* schema,
                               const FsConfig* config, std::string location)
    : db_(db), schema_(schema), config_(config), location_(std::move(location)) {}

hops::Status LeaderElection::Register() {
  // Allocate a unique id from the variables table; retry on conflicts with
  // other registering namenodes.
  return RetryUntilTimeout(*config_, "namenode registration", RetryOn::kTxAbort, [&] {
    auto tx = db_->Begin(kv::TxHint{schema_->variables, 0});
    auto row = tx->Read(schema_->variables, {kVarNextNamenodeId}, kv::LockMode::kExclusive);
    if (!row.ok()) return row.status();
    const int64_t next = (*row)[col::kVarValue].i64();
    HOPS_RETURN_IF_ERROR(
        tx->Update(schema_->variables, kv::Row{kVarNextNamenodeId, next + 1}));
    HOPS_RETURN_IF_ERROR(tx->Insert(schema_->leader, kv::Row{next, int64_t{0}, location_}));
    HOPS_RETURN_IF_ERROR(tx->Commit());
    id_ = next;
    return hops::Status::Ok();
  });
}

hops::Status LeaderElection::Resume(NamenodeId id) {
  return RetryUntilTimeout(*config_, "namenode resume", RetryOn::kTxAbort, [&] {
    auto tx = db_->Begin(kv::TxHint{schema_->leader, static_cast<uint64_t>(id)});
    int64_t counter = 0;
    auto row = tx->Read(schema_->leader, {id}, kv::LockMode::kExclusive);
    if (row.ok()) {
      counter = (*row)[col::kLeaderCounter].i64();
    } else if (row.status().code() != hops::StatusCode::kNotFound) {
      return row.status();
    }
    // A long-dead row may have been evicted by the leader; re-create it
    // (counter continuity only matters while the old row survives).
    HOPS_RETURN_IF_ERROR(tx->Write(schema_->leader, kv::Row{id, counter + 1, location_}));
    HOPS_RETURN_IF_ERROR(tx->Commit());
    id_ = id;
    return hops::Status::Ok();
  });
}

hops::Status LeaderElection::Heartbeat() {
  // Bump our counter and snapshot the whole (small) leader table.
  std::vector<kv::Row> rows;
  HOPS_RETURN_IF_ERROR(RetryUntilTimeout(*config_, "heartbeat", RetryOn::kTxAbort, [&] {
    auto tx = db_->Begin(kv::TxHint{schema_->leader, static_cast<uint64_t>(id_)});
    auto mine = tx->Read(schema_->leader, {id_}, kv::LockMode::kExclusive);
    if (!mine.ok()) return mine.status();
    const kv::Row& row = *mine;
    HOPS_RETURN_IF_ERROR(tx->Update(
        schema_->leader, kv::Row{row[col::kLeaderNn], row[col::kLeaderCounter].i64() + 1,
                                 row[col::kLeaderLocation]}));
    auto all = tx->FullTableScan(schema_->leader);
    if (!all.ok()) return all.status();
    HOPS_RETURN_IF_ERROR(tx->Commit());
    rows = *std::move(all);
    return hops::Status::Ok();
  }));

  std::vector<NamenodeId> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    round_++;
    for (const auto& row : rows) {
      NamenodeId nn = row[col::kLeaderNn].i64();
      int64_t counter = row[col::kLeaderCounter].i64();
      auto [it, inserted] = peers_.try_emplace(nn);
      if (inserted || counter > it->second.counter) {
        it->second.counter = counter;
        it->second.last_advance_round = round_;
      }
    }
    // Drop local state for rows that no longer exist.
    for (auto it = peers_.begin(); it != peers_.end();) {
      bool present = false;
      for (const auto& row : rows) {
        if (row[col::kLeaderNn].i64() == it->first) {
          present = true;
          break;
        }
      }
      it = present ? std::next(it) : peers_.erase(it);
    }
    for (const auto& [nn, state] : peers_) {
      if (nn != id_ && round_ - state.last_advance_round > 4 * config_->leader_missed_rounds) {
        dead.push_back(nn);
      }
    }
  }

  // The leader lazily evicts rows of long-dead namenodes.
  if (IsLeader()) {
    for (NamenodeId nn : dead) {
      auto tx = db_->Begin(kv::TxHint{schema_->leader, static_cast<uint64_t>(nn)});
      if (tx->Delete(schema_->leader, {nn}).ok()) {
        (void)tx->Commit();
      }
    }
  }
  return hops::Status::Ok();
}

void LeaderElection::Deregister() {
  auto tx = db_->Begin(kv::TxHint{schema_->leader, static_cast<uint64_t>(id_)});
  if (tx->Delete(schema_->leader, {id_}).ok()) {
    (void)tx->Commit();
  }
  std::lock_guard<std::mutex> lock(mu_);
  peers_.erase(id_);
}

bool LeaderElection::IsLeader() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [nn, state] : peers_) {
    if (nn == id_) break;
    if (round_ - state.last_advance_round <= config_->leader_missed_rounds) {
      return false;  // a smaller-id namenode is alive
    }
  }
  return true;
}

std::vector<NamenodeId> LeaderElection::AliveNamenodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<NamenodeId> alive;
  for (const auto& [nn, state] : peers_) {
    if (nn == id_ || round_ - state.last_advance_round <= config_->leader_missed_rounds) {
      alive.push_back(nn);
    }
  }
  return alive;
}

bool LeaderElection::IsNamenodeAlive(NamenodeId nn) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(nn);
  if (it == peers_.end()) return false;
  if (nn == id_) return true;
  return round_ - it->second.last_advance_round <= config_->leader_missed_rounds;
}

}  // namespace hops::fs
