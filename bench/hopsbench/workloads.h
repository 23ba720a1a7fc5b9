// hopsbench workload generators: the four named traffic mixes, their
// set-up namespaces, and the per-client closed-loop workers that issue them
// through a timed fs::Client.
//
// Every worker names the paths it creates with a per-phase, per-client
// prefix ("p<phase>c<client>_<n>"), so a warm-up pass followed by the
// measured pass never re-issues a name, and tracks what it believes about
// every file it owns (existence, acknowledged permission/owner/block count)
// for the post-run no-lost-ack oracle.
#pragma once

#include <array>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hopsfs/client.h"
#include "util/rng.h"
#include "workload/namespace_gen.h"
#include "workload/spec.h"

namespace hopsbench {

// The client RPCs, in the order the per-layer client metrics list them.
enum class Rpc : int {
  kGetBlockLocations,
  kStat,
  kList,
  kContentSummary,
  kCreate,
  kAddBlock,
  kComplete,
  kMkdirs,
  kSetPermission,
  kSetOwner,
  kSetReplication,
  kRename,
  kDelete,
  kAppend,
};
inline constexpr int kNumRpcs = 14;
const char* RpcName(Rpc rpc);

// Raw samples of one client thread over one phase, in microseconds.
struct ThreadSamples {
  std::array<std::vector<float>, kNumRpcs> rpc_us;
  std::vector<float> read_us, write_us;  // whole ops (one mix entry each)
  uint64_t ops = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failures_by_code;
  std::vector<std::string> failure_examples;  // first few, with messages
};

// fs::Client wrapper that times every RPC into the current phase's samples
// (and, while the traced window records, into the span buffer).
class TimedClient {
 public:
  explicit TimedClient(hops::fs::Client client) : client_(std::move(client)) {}

  void set_samples(ThreadSamples* samples) { samples_ = samples; }
  uint64_t failovers() const { return client_.failovers(); }

  hops::Status Create(const std::string& path);
  hops::Status AddBlock(const std::string& path);
  hops::Status Complete(const std::string& path);
  hops::Status Append(const std::string& path);
  hops::Status Mkdirs(const std::string& path);
  hops::Status GetBlockLocations(const std::string& path);
  hops::Result<hops::fs::FileStatus> Stat(const std::string& path);
  hops::Status List(const std::string& path);
  hops::Status ContentSummary(const std::string& path);
  hops::Status SetPermission(const std::string& path, int64_t perm);
  hops::Status SetOwner(const std::string& path, const std::string& owner);
  hops::Status SetReplication(const std::string& path, int64_t replication);
  hops::Status Rename(const std::string& src, const std::string& dst);
  hops::Status Delete(const std::string& path, bool recursive);

 private:
  template <typename Fn>
  auto Call(Rpc rpc, Fn&& fn) -> decltype(fn());

  hops::fs::Client client_;
  ThreadSamples* samples_ = nullptr;
};

// Outcome of one op (one mix entry, possibly several RPCs).
struct OpResult {
  bool read = false;
  hops::Status status;
};

// What a client believes about one of its files after the last
// acknowledged op on it. Unset fields are not asserted by the oracle.
struct LiveFile {
  std::string path;
  int64_t perm = -1;
  std::string owner;
  int64_t blocks = -1;
};

class Worker {
 public:
  Worker(int client, TimedClient client_rpc, uint64_t seed)
      : client_(client), rpc_(std::move(client_rpc)), rng_(seed) {}
  virtual ~Worker() = default;
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  // Runs one mix entry.
  virtual OpResult Step() = 0;
  // Every file this client believes is live, with its acknowledged state.
  virtual std::vector<LiveFile> LiveFiles() const = 0;
  // The most recent paths this client removed, which must stay gone.
  std::vector<std::string> RemovedPaths() const { return {removed_.begin(), removed_.end()}; }

  void BeginPhase(int phase) { phase_ = phase; }
  TimedClient& rpc() { return rpc_; }
  // Inode rows this client's acknowledged ops added and removed.
  int64_t inodes_created() const { return created_; }
  int64_t inodes_deleted() const { return deleted_; }

 protected:
  std::string Fresh() {
    return "p" + std::to_string(phase_) + "c" + std::to_string(client_) + "_" +
           std::to_string(counter_++);
  }
  void RememberRemoved(std::string path) {
    removed_.push_back(std::move(path));
    if (removed_.size() > 64) removed_.pop_front();
  }

  const int client_;
  TimedClient rpc_;
  hops::Rng rng_;
  int phase_ = 0;
  uint64_t counter_ = 0;
  int64_t created_ = 0;
  int64_t deleted_ = 0;

 private:
  std::deque<std::string> removed_;
};

// One named workload: its op mix, engine, commit mode and the knobs that
// size it. Every workload runs over a bulk-loaded spotify-shape namespace of
// `files` files; the hotdir and jobs mixes work in directories of their own
// beside it.
struct WorkloadDef {
  enum class Mix { kSpotify, kHotdir, kJobs };
  const char* name;
  Mix mix;
  hops::kv::EngineKind engine;
  bool async_commit;
  // Client t talks only to namenode t % 2 (sticky); otherwise every op
  // picks a namenode at random.
  bool pinned;
  size_t hint_cache_capacity;  // entries per namenode
  int64_t files;
};

const std::vector<WorkloadDef>& Workloads();
const WorkloadDef* FindWorkload(std::string_view name);

// Inputs shared by a run's workers: the set-up namespace and the samplers
// over it. Built once per run from the seed; read-only afterwards.
class Generator {
 public:
  Generator(const WorkloadDef& def, int clients, uint64_t seed);

  // The namespace bulk-loaded at set-up.
  const hops::wl::GeneratedNamespace& ns() const { return ns_; }
  std::unique_ptr<Worker> MakeWorker(int client, TimedClient rpc) const;

 private:
  const WorkloadDef& def_;
  const uint64_t seed_;
  hops::wl::GeneratedNamespace ns_;
  // Popularity over the spotify-shape tree (the spotify mix's targets).
  hops::ZipfSampler file_zipf_, dir_zipf_;
};

}  // namespace hopsbench
