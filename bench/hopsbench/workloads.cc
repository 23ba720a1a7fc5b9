#include "workloads.h"

#include <deque>

#include "timed_engine.h"

namespace hopsbench {

namespace fs = hops::fs;
namespace wl = hops::wl;

const char* RpcName(Rpc rpc) {
  static const char* const kNames[kNumRpcs] = {
      "get_block_locations", "stat",   "list",           "content_summary", "create",
      "add_block",           "complete", "mkdirs",       "set_permission",  "set_owner",
      "set_replication",     "rename", "delete",         "append"};
  return kNames[static_cast<int>(rpc)];
}

// --- TimedClient -------------------------------------------------------------

namespace {

template <typename T>
hops::Status StatusOf(const hops::Result<T>& r) {
  return r.status();
}

constexpr int64_t kBlockBytes = 1024;

}  // namespace

template <typename Fn>
auto TimedClient::Call(Rpc rpc, Fn&& fn) -> decltype(fn()) {
  const SteadyClock::time_point t0 = SteadyClock::now();
  auto result = fn();
  const SteadyClock::time_point t1 = SteadyClock::now();
  if (samples_ != nullptr) {
    samples_->rpc_us[static_cast<int>(rpc)].push_back(static_cast<float>(MicrosBetween(t0, t1)));
  }
  LayerClock& clock = LayerClock::Get();
  if (clock.recording()) clock.AddSpan(SpanKind::kRpc, RpcName(rpc), 0, t0, t1);
  return result;
}

hops::Status TimedClient::Create(const std::string& path) {
  return Call(Rpc::kCreate, [&] { return client_.CreateFile(path); });
}
hops::Status TimedClient::AddBlock(const std::string& path) {
  return Call(Rpc::kAddBlock, [&] { return StatusOf(client_.AddBlock(path, kBlockBytes)); });
}
hops::Status TimedClient::Complete(const std::string& path) {
  return Call(Rpc::kComplete, [&] { return client_.CompleteFile(path); });
}
hops::Status TimedClient::Append(const std::string& path) {
  return Call(Rpc::kAppend, [&] { return client_.Append(path); });
}
hops::Status TimedClient::Mkdirs(const std::string& path) {
  return Call(Rpc::kMkdirs, [&] { return client_.Mkdirs(path); });
}
hops::Status TimedClient::GetBlockLocations(const std::string& path) {
  return Call(Rpc::kGetBlockLocations, [&] { return StatusOf(client_.Read(path)); });
}
hops::Result<fs::FileStatus> TimedClient::Stat(const std::string& path) {
  return Call(Rpc::kStat, [&] { return client_.Stat(path); });
}
hops::Status TimedClient::List(const std::string& path) {
  return Call(Rpc::kList, [&] { return StatusOf(client_.List(path)); });
}
hops::Status TimedClient::ContentSummary(const std::string& path) {
  return Call(Rpc::kContentSummary, [&] { return StatusOf(client_.ContentSummaryOf(path)); });
}
hops::Status TimedClient::SetPermission(const std::string& path, int64_t perm) {
  return Call(Rpc::kSetPermission, [&] { return client_.SetPermission(path, perm); });
}
hops::Status TimedClient::SetOwner(const std::string& path, const std::string& owner) {
  return Call(Rpc::kSetOwner, [&] { return client_.SetOwner(path, owner, "users"); });
}
hops::Status TimedClient::SetReplication(const std::string& path, int64_t replication) {
  return Call(Rpc::kSetReplication, [&] { return client_.SetReplication(path, replication); });
}
hops::Status TimedClient::Rename(const std::string& src, const std::string& dst) {
  return Call(Rpc::kRename, [&] { return client_.Rename(src, dst); });
}
hops::Status TimedClient::Delete(const std::string& path, bool recursive) {
  return Call(Rpc::kDelete, [&] { return client_.Delete(path, recursive); });
}

// --- Workload table ------------------------------------------------------------

const std::vector<WorkloadDef>& Workloads() {
  using hops::kv::EngineKind;
  using Mix = WorkloadDef::Mix;
  // The 24k-file namespace (~1.5k dirs) fits the default 1M-entry hint
  // cache; the 48k-file one is ~12x a 4,096-entry cache. (96k files against
  // 8,192 entries overflows the same way, but needs 380 MB and 2 s set-ups.)
  static const std::vector<WorkloadDef> kDefs = {
      {"spotify", Mix::kSpotify, EngineKind::kNdb, false, false, size_t{1} << 20, 24000},
      {"spotify-bigns-occ", Mix::kSpotify, EngineKind::kOcc, false, false, 4096, 48000},
      {"hotdir-occ", Mix::kHotdir, EngineKind::kOcc, false, true, size_t{1} << 20, 24000},
      {"jobs-async", Mix::kJobs, EngineKind::kNdb, true, true, size_t{1} << 20, 24000},
  };
  return kDefs;
}

const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& def : Workloads()) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

namespace {

// --- spotify / spotify-bigns-occ: the Table 1 mix --------------------------------
// Read and setattr targets are Zipf(1.05)-popular over the bulk-loaded
// namespace; deletes, renames and appends act on the client's own files, so
// no race between clients ends in NotFound. Op semantics follow
// wl::RunDriver: a create is create + addBlock + complete, an "add blocks"
// entry appends one block to an own file, and entries that need an own file
// fall back to a stat of a popular file while the client owns none. Unlike
// wl::RunDriver, creates and mkdirs go to a uniformly chosen directory: in
// Zipf-popular ones they pile up exactly where the 9% list share reads, and
// rows read per op then climb through a run (12 to 16 over 40 s).
class SpotifyWorker final : public Worker {
 public:
  SpotifyWorker(int client, TimedClient rpc, uint64_t seed, const wl::GeneratedNamespace& ns,
                const hops::ZipfSampler& file_zipf, const hops::ZipfSampler& dir_zipf)
      : Worker(client, std::move(rpc), seed),
        ns_(ns),
        sampler_(wl::OpMix::Spotify()),
        file_zipf_(file_zipf),
        dir_zipf_(dir_zipf) {}

  OpResult Step() override {
    auto [op, on_dir] = sampler_.Sample(rng_);
    switch (op) {
      case wl::OpType::kRead:
        return {true, rpc_.GetBlockLocations(GlobalFile())};
      case wl::OpType::kStat:
        return {true, rpc_.Stat(on_dir ? GlobalDir() : GlobalFile()).status()};
      case wl::OpType::kList:
        return {true, rpc_.List(on_dir ? GlobalDir() : GlobalFile())};
      case wl::OpType::kContentSummary:
        return {true, rpc_.ContentSummary(LeafDir())};
      case wl::OpType::kCreateFile: {
        std::string path = AnyDir() + "/" + Fresh();
        hops::Status st = rpc_.Create(path);
        if (!st.ok()) return {false, st};
        created_++;
        st = rpc_.AddBlock(path);
        if (st.ok()) st = rpc_.Complete(path);
        own_.push_back(LiveFile{path, -1, "", st.ok() ? 1 : -1});
        return {false, st};
      }
      case wl::OpType::kAddBlock:
      case wl::OpType::kAppendFile: {
        if (own_.empty()) return StatFallback();
        LiveFile& f = own_[rng_.Below(own_.size())];
        hops::Status st = rpc_.Append(f.path);
        if (st.ok()) st = rpc_.AddBlock(f.path);
        if (st.ok()) st = rpc_.Complete(f.path);
        f.blocks = st.ok() && f.blocks >= 0 ? f.blocks + 1 : -1;
        return {false, st};
      }
      case wl::OpType::kDelete: {
        if (own_.empty()) return StatFallback();
        size_t idx = rng_.Below(own_.size());
        std::string path = own_[idx].path;
        own_[idx] = std::move(own_.back());
        own_.pop_back();
        hops::Status st = rpc_.Delete(path, false);
        if (st.ok()) {
          deleted_++;
          RememberRemoved(path);
        }
        return {false, st};
      }
      case wl::OpType::kMove: {
        if (own_.empty()) return StatFallback();
        LiveFile& f = own_[rng_.Below(own_.size())];
        std::string dst = f.path.substr(0, f.path.rfind('/') + 1) + Fresh();
        hops::Status st = rpc_.Rename(f.path, dst);
        if (st.ok()) {
          RememberRemoved(f.path);
          f.path = dst;
        }
        return {false, st};
      }
      case wl::OpType::kMkdirs: {
        hops::Status st = rpc_.Mkdirs(AnyDir() + "/" + Fresh());
        if (st.ok()) created_++;
        return {false, st};
      }
      case wl::OpType::kSetPermission:
        return {false, rpc_.SetPermission(on_dir ? LeafDir() : GlobalFile(), 0750)};
      case wl::OpType::kSetOwner:
        return {false, rpc_.SetOwner(on_dir ? LeafDir() : GlobalFile(),
                                     "owner" + std::to_string(client_))};
      case wl::OpType::kSetReplication:
        return {false, rpc_.SetReplication(GlobalFile(),
                                           static_cast<int64_t>(2 + rng_.Below(3)))};
    }
    return {false, hops::Status::InvalidArgument("unknown op")};
  }

  std::vector<LiveFile> LiveFiles() const override { return own_; }

 private:
  const std::string& GlobalFile() { return ns_.files[file_zipf_.Sample(rng_)]; }
  const std::string& GlobalDir() { return ns_.dirs[dir_zipf_.Sample(rng_)]; }
  const std::string& AnyDir() { return ns_.dirs[rng_.Below(ns_.dirs.size())]; }
  // Leaf-heavy directory choice for content summary and directory setattr
  // (keeps the quiesced subtrees small), as wl::RunDriver does.
  const std::string& LeafDir() {
    size_t half = ns_.dirs.size() / 2;
    return ns_.dirs[half + rng_.Below(ns_.dirs.size() - half)];
  }
  OpResult StatFallback() { return {true, rpc_.Stat(GlobalFile()).status()}; }

  const wl::GeneratedNamespace& ns_;
  const wl::OpSampler sampler_;
  const hops::ZipfSampler& file_zipf_;
  const hops::ZipfSampler& dir_zipf_;
  std::vector<LiveFile> own_;
};

// --- hotdir-occ: the §7.2.1 hot directory ---------------------------------------
// Every client works in the same four directories, under client-private
// names, so each mutation rewrites a parent row other clients are writing
// too. Mix: 30% create+complete, 20% delete, 15% rename across the shared
// directories, 10% chmod, 25% stat. A client keeps at most kHotMaxLive
// files: a create at the cap deletes instead, and an op that needs a file
// while the client has none creates instead. There is no list of the shared
// directories: the OCC engine never collects tombstones, a listing walks
// every tombstone under the directory under the partition mutex, and with a
// 10% list share throughput fell from 24k to 6k ops/s within one run.
constexpr int kHotDirs = 4;
constexpr size_t kHotMaxLive = 256;
constexpr int kHotPreload = 128;

std::string HotDir(int d) { return "/hot/d" + std::to_string(d); }
std::string HotPreloaded(int client, int i) {
  return HotDir(i % kHotDirs) + "/s" + std::to_string(client) + "_" + std::to_string(i);
}

class HotdirWorker final : public Worker {
 public:
  HotdirWorker(int client, TimedClient rpc, uint64_t seed) : Worker(client, std::move(rpc), seed) {
    for (int i = 0; i < kHotPreload; ++i) {
      files_.push_back({LiveFile{HotPreloaded(client, i), -1, "", -1}, i % kHotDirs});
    }
  }

  OpResult Step() override {
    const uint64_t r = rng_.Below(100);
    if (r < 30) return files_.size() >= kHotMaxLive ? DeleteOne() : CreateOne();
    if (files_.empty()) return CreateOne();
    if (r < 50) return DeleteOne();
    HotFile& f = files_[rng_.Below(files_.size())];
    if (r < 65) {
      const int to = (f.dir + 1 + static_cast<int>(rng_.Below(kHotDirs - 1))) % kHotDirs;
      std::string dst = HotDir(to) + "/" + Fresh();
      hops::Status st = rpc_.Rename(f.file.path, dst);
      if (st.ok()) {
        f.file.path = dst;
        f.dir = to;
      }
      return {false, st};
    }
    if (r < 75) {
      static constexpr int64_t kPerms[] = {0600, 0640, 0644, 0700, 0750};
      const int64_t perm = kPerms[rng_.Below(5)];
      hops::Status st = rpc_.SetPermission(f.file.path, perm);
      if (st.ok()) f.file.perm = perm;
      return {false, st};
    }
    return {true, rpc_.Stat(f.file.path).status()};
  }

  std::vector<LiveFile> LiveFiles() const override {
    std::vector<LiveFile> out;
    for (const HotFile& f : files_) out.push_back(f.file);
    return out;
  }

 private:
  struct HotFile {
    LiveFile file;
    int dir = 0;
  };

  OpResult CreateOne() {
    const int d = static_cast<int>(rng_.Below(kHotDirs));
    std::string path = HotDir(d) + "/" + Fresh();
    hops::Status st = rpc_.Create(path);
    if (!st.ok()) return {false, st};
    created_++;
    files_.push_back({LiveFile{path, -1, "", -1}, d});
    st = rpc_.Complete(path);
    if (st.ok()) files_.back().file.blocks = 0;
    return {false, st};
  }
  OpResult DeleteOne() {
    size_t idx = rng_.Below(files_.size());
    std::string path = files_[idx].file.path;
    files_[idx] = std::move(files_.back());
    files_.pop_back();
    hops::Status st = rpc_.Delete(path, false);
    if (st.ok()) {
      deleted_++;
      RememberRemoved(path);
    }
    return {false, st};
  }

  std::vector<HotFile> files_;
};

// --- jobs-async: per-client job staging under async metadata commit -------------
// Each client loops over jobs. A job is a directory staged with 48-80 empty
// creates; about a quarter of the creates are followed by a chmod and a
// quarter by a chown of a still-open file, each create from the 17th on
// completes (addBlock + complete) the file created 16 creates earlier and
// stats it, and every 8th create lists the job directory. Once a client
// holds more than kJobsLive finished jobs it deletes the oldest one
// recursively. The creates, chmods, chowns and mkdirs acknowledge at intent
// durability; the addBlocks and stats wait out their covering intents.
constexpr size_t kJobsLive = 4;
constexpr int kJobsCompleteLag = 16;

class JobsWorker final : public Worker {
 public:
  JobsWorker(int client, TimedClient rpc, uint64_t seed) : Worker(client, std::move(rpc), seed) {}

  OpResult Step() override {
    for (;;) {
      if (plan_.empty()) PlanJob();
      JobStep step = plan_.front();
      plan_.pop_front();
      if (step.kind == JobStep::kRetire) {
        if (jobs_.size() <= kJobsLive) continue;
        return Retire();
      }
      return Run(step);
    }
  }

  std::vector<LiveFile> LiveFiles() const override {
    std::vector<LiveFile> out;
    for (const Job& job : jobs_) {
      for (const LiveFile& f : job.files) {
        if (!f.path.empty()) out.push_back(f);
      }
    }
    return out;
  }

 private:
  struct JobStep {
    enum Kind { kMkdir, kCreate, kChmod, kChown, kComplete, kStat, kList, kRetire } kind;
    int file = 0;
    int64_t perm = 0;
    std::string owner;
  };
  struct Job {
    std::string dir;
    std::vector<LiveFile> files;  // index = file number; empty path = not created
  };

  void PlanJob() {
    jobs_.push_back(Job{"/jobs/c" + std::to_string(client_) + "/" + Fresh(), {}});
    const int n = 48 + static_cast<int>(rng_.Below(33));
    jobs_.back().files.resize(static_cast<size_t>(n));
    auto add = [&](JobStep::Kind kind, int file = 0, int64_t perm = 0, std::string owner = "") {
      plan_.push_back(JobStep{kind, file, perm, std::move(owner)});
    };
    // A file is open from its create until the create kJobsCompleteLag
    // later completes it.
    auto open_file = [&](int i) {
      const int lo = std::max(0, i - kJobsCompleteLag + 1);
      return lo + static_cast<int>(rng_.Below(static_cast<uint64_t>(i - lo + 1)));
    };
    add(JobStep::kMkdir);
    for (int i = 0; i < n; ++i) {
      add(JobStep::kCreate, i);
      if (rng_.Chance(0.25)) {
        static constexpr int64_t kPerms[] = {0600, 0640, 0644, 0700};
        add(JobStep::kChmod, open_file(i), kPerms[rng_.Below(4)]);
      }
      if (rng_.Chance(0.25)) {
        add(JobStep::kChown, open_file(i), 0, "u" + std::to_string(rng_.Below(8)));
      }
      if (i >= kJobsCompleteLag) {
        add(JobStep::kComplete, i - kJobsCompleteLag);
        add(JobStep::kStat, i - kJobsCompleteLag);
      }
      if (i % 8 == 7) add(JobStep::kList);
    }
    for (int i = std::max(0, n - kJobsCompleteLag); i < n; ++i) {
      add(JobStep::kComplete, i);
      add(JobStep::kStat, i);
    }
    add(JobStep::kRetire);
  }

  OpResult Run(const JobStep& step) {
    Job& job = jobs_.back();
    const std::string path = job.dir + "/f" + std::to_string(step.file);
    LiveFile& f = job.files[static_cast<size_t>(step.file)];
    switch (step.kind) {
      case JobStep::kMkdir: {
        hops::Status st = rpc_.Mkdirs(job.dir);
        if (st.ok()) created_++;
        return {false, st};
      }
      case JobStep::kCreate: {
        hops::Status st = rpc_.Create(path);
        if (st.ok()) {
          created_++;
          f = LiveFile{path, -1, "", 0};
        }
        return {false, st};
      }
      case JobStep::kChmod: {
        hops::Status st = rpc_.SetPermission(path, step.perm);
        if (st.ok()) f.perm = step.perm;
        return {false, st};
      }
      case JobStep::kChown: {
        hops::Status st = rpc_.SetOwner(path, step.owner);
        if (st.ok()) f.owner = step.owner;
        return {false, st};
      }
      case JobStep::kComplete: {
        hops::Status st = rpc_.AddBlock(path);
        if (st.ok()) st = rpc_.Complete(path);
        f.blocks = st.ok() ? 1 : -1;
        return {false, st};
      }
      case JobStep::kStat:
        return {true, rpc_.Stat(path).status()};
      case JobStep::kList:
        return {true, rpc_.List(job.dir)};
      case JobStep::kRetire:
        break;
    }
    return {false, hops::Status::InvalidArgument("unknown job step")};
  }

  OpResult Retire() {
    Job job = std::move(jobs_.front());
    jobs_.pop_front();
    hops::Status st = rpc_.Delete(job.dir, /*recursive=*/true);
    if (st.ok()) {
      deleted_ += 1;
      for (const LiveFile& f : job.files) {
        if (!f.path.empty()) deleted_++;
      }
      RememberRemoved(job.dir);
    }
    return {false, st};
  }

  std::deque<Job> jobs_;  // oldest first; back() is being staged
  std::deque<JobStep> plan_;
};

}  // namespace

// --- Generator -------------------------------------------------------------------

Generator::Generator(const WorkloadDef& def, int clients, uint64_t seed)
    : def_(def),
      seed_(seed),
      ns_(wl::PlanNamespace(wl::NamespaceShape{}, def.files, seed)),
      file_zipf_(ns_.files.size(), 1.05),
      dir_zipf_(ns_.dirs.size(), 1.05) {
  // The mixes' own directories (and hotdir's preloaded files) go after the
  // spotify-shape tree; BulkLoader wants parents before children.
  if (def.mix == WorkloadDef::Mix::kHotdir) {
    ns_.dirs.push_back("/hot");
    for (int d = 0; d < kHotDirs; ++d) ns_.dirs.push_back(HotDir(d));
    for (int c = 0; c < clients; ++c) {
      for (int i = 0; i < kHotPreload; ++i) ns_.files.push_back(HotPreloaded(c, i));
    }
  } else if (def.mix == WorkloadDef::Mix::kJobs) {
    ns_.dirs.push_back("/jobs");
    for (int c = 0; c < clients; ++c) ns_.dirs.push_back("/jobs/c" + std::to_string(c));
  }
}

std::unique_ptr<Worker> Generator::MakeWorker(int client, TimedClient rpc) const {
  const uint64_t seed = seed_ * 1000003 + static_cast<uint64_t>(client);
  switch (def_.mix) {
    case WorkloadDef::Mix::kSpotify:
      return std::make_unique<SpotifyWorker>(client, std::move(rpc), seed, ns_, file_zipf_,
                                             dir_zipf_);
    case WorkloadDef::Mix::kHotdir:
      return std::make_unique<HotdirWorker>(client, std::move(rpc), seed);
    case WorkloadDef::Mix::kJobs:
      break;
  }
  return std::make_unique<JobsWorker>(client, std::move(rpc), seed);
}

}  // namespace hopsbench
