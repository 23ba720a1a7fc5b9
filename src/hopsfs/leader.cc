#include "hopsfs/leader.h"

namespace hops::fs {

LeaderElection::LeaderElection(kv::Engine* db, const MetadataSchema* schema,
                               const FsConfig* config, std::string location)
    : db_(db), schema_(schema), config_(config), location_(std::move(location)) {}

hops::Status LeaderElection::Register() {
  // Allocate a unique id from the variables table; retry on conflicts with
  // other registering namenodes.
  for (int attempt = 0; attempt < 16; ++attempt) {
    auto tx = db_->Begin(kv::TxHint{schema_->variables, 0});
    auto row = tx->Read(schema_->variables, {kVarNextNamenodeId}, kv::LockMode::kExclusive);
    if (!row.ok()) {
      if (row.status().IsRetryableTx()) continue;
      return row.status();
    }
    int64_t next = (*row)[col::kVarValue].i64();
    hops::Status st =
        tx->Update(schema_->variables, kv::Row{kVarNextNamenodeId, next + 1});
    if (!st.ok()) continue;
    st = tx->Insert(schema_->leader, kv::Row{next, int64_t{0}, location_});
    if (!st.ok()) continue;
    st = tx->Commit();
    if (st.ok()) {
      id_ = next;
      return hops::Status::Ok();
    }
    if (!st.IsRetryableTx()) return st;
  }
  return hops::Status::TxAborted("could not register namenode");
}

hops::Status LeaderElection::Resume(NamenodeId id) {
  for (int attempt = 0; attempt < 16; ++attempt) {
    auto tx = db_->Begin(kv::TxHint{schema_->leader, static_cast<uint64_t>(id)});
    int64_t counter = 0;
    auto row = tx->Read(schema_->leader, {id}, kv::LockMode::kExclusive);
    if (row.ok()) {
      counter = (*row)[col::kLeaderCounter].i64();
    } else if (row.status().code() != hops::StatusCode::kNotFound) {
      // A long-dead row may have been evicted by the leader; re-create it
      // (counter continuity only matters while the old row survives).
      if (row.status().IsRetryableTx()) continue;
      return row.status();
    }
    hops::Status st = tx->Write(schema_->leader, kv::Row{id, counter + 1, location_});
    if (!st.ok()) continue;
    st = tx->Commit();
    if (st.ok()) {
      id_ = id;
      return hops::Status::Ok();
    }
    if (!st.IsRetryableTx()) return st;
  }
  return hops::Status::TxAborted("could not resume namenode identity");
}

hops::Status LeaderElection::Heartbeat() {
  // Bump our counter and snapshot the whole (small) leader table.
  std::vector<kv::Row> rows;
  for (int attempt = 0; attempt < 8; ++attempt) {
    auto tx = db_->Begin(kv::TxHint{schema_->leader, static_cast<uint64_t>(id_)});
    auto mine = tx->Read(schema_->leader, {id_}, kv::LockMode::kExclusive);
    if (!mine.ok()) {
      if (mine.status().IsRetryableTx()) continue;
      return mine.status();
    }
    kv::Row updated = *mine;
    updated[col::kLeaderCounter] = updated[col::kLeaderCounter].i64() + 1;
    hops::Status st = tx->Update(schema_->leader, std::move(updated));
    if (!st.ok()) continue;
    auto all = tx->FullTableScan(schema_->leader);
    if (!all.ok()) {
      if (all.status().IsRetryableTx()) continue;
      return all.status();
    }
    st = tx->Commit();
    if (st.ok()) {
      rows = *std::move(all);
      break;
    }
    if (!st.IsRetryableTx()) return st;
    if (attempt == 7) return st;
  }

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
