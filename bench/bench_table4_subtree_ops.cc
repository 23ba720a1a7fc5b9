// Table 4: latency of move and recursive-delete subtree operations on large
// directories, HopsFS vs HDFS. Runs the *real* engines (no simulation):
// HopsFS executes the three-phase subtree protocol over NDB; HDFS mutates
// its in-memory tree (and wins on latency, as in the paper -- the trade-off
// §7.4.1 accepts for rare operations).
//
// Directory sizes are scaled down from the paper's 0.25M/0.5M/1M files to
// keep the default run short; set HOPS_BENCH_FULL=1 for the paper's sizes.
//
// The delete's database round trips are reported too. The per-row phase-3
// path this once compared against is gone; its last numbers are the
// filesN_per_row_{trips,ms} entries of bench/results/BENCH_table4_subtree_ops.json
// (225-245x the pipelined path's trips, 4.8-5.6x its latency).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "hdfs/ha_cluster.h"
#include "hopsfs/mini_cluster.h"
#include "util/clock.h"
#include "workload/namespace_gen.h"

namespace {

// Builds a directory subtree holding `files` one-block files under `base`.
hops::wl::GeneratedNamespace SubtreeUnder(const std::string& base, int64_t files,
                                          uint64_t seed) {
  hops::wl::NamespaceShape shape;
  shape.files_per_dir = 64;  // wide directories, as in the benchmark utility
  shape.subdirs_per_dir = 8;
  shape.top_level_dirs = 8;
  shape.name_length = 16;
  return hops::wl::PlanNamespaceUnder(base, shape, files, seed);
}

}  // namespace

int main() {
  using namespace hops;
  bench::BenchJson json("table4_subtree_ops");
  const bool full = std::getenv("HOPS_BENCH_FULL") != nullptr;
  const std::vector<int64_t> sizes = full
      ? std::vector<int64_t>{250000, 500000, 1000000}
      : std::vector<int64_t>{25000, 50000, 100000};

  std::printf("# Table 4: mv and rm -rf latency on large directories\n");
  std::printf("# sizes %s (HOPS_BENCH_FULL=1 for the paper's 0.25M/0.5M/1M)\n",
              full ? "full" : "scaled 10x down");
  std::printf("%-10s %14s %14s %14s %14s %14s\n", "dir size", "HDFS mv", "HopsFS mv",
              "HDFS rm -rf", "HopsFS rm -rf", "rm trips");

  for (int64_t files : sizes) {
    // --- HopsFS ---------------------------------------------------------
    auto ns = SubtreeUnder("/victim", files, 7);
    fs::MiniClusterOptions options;
    options.db.num_datanodes = 12;
    options.db.replication = 2;
    options.db.partitions_per_table = 48;
    options.fs.subtree_delete_batch = 512;
    options.fs.subtree_parallelism = 2;
    options.num_namenodes = 2;
    options.num_datanodes = 3;
    auto cluster = *fs::MiniCluster::Start(options);
    auto client = cluster->NewClient(fs::NamenodePolicy::kSticky, "bench");
    if (!client.Mkdirs("/victim").ok() || !client.Mkdirs("/dst").ok()) return 1;
    wl::BulkLoader loader(&cluster->db(), &cluster->schema(), &cluster->fs_config());
    if (!loader.Load(ns, 1.0, 0, 7).ok()) return 1;

    int64_t t0 = MonotonicMicros();
    if (!client.Rename("/victim", "/dst/victim").ok()) return 1;
    const double hops_mv_ms = static_cast<double>(MonotonicMicros() - t0) / 1000.0;

    auto before = cluster->db().StatsSnapshot();
    t0 = MonotonicMicros();
    if (!client.Delete("/dst/victim", true).ok()) return 1;
    const double hops_rm_ms = static_cast<double>(MonotonicMicros() - t0) / 1000.0;
    const uint64_t rm_trips = cluster->db().StatsSnapshot().round_trips - before.round_trips;
    cluster.reset();

    // --- HDFS -----------------------------------------------------------
    hdfs::HaCluster ha(hdfs::HaCluster::Options{});
    hdfs::Namesystem* hdfs_fs = ha.active();
    if (!hdfs_fs->Mkdirs("/dst").ok()) return 1;
    for (const auto& dir : ns.dirs) {
      if (!hdfs_fs->Mkdirs(dir).ok()) return 1;
    }
    for (const auto& file : ns.files) {
      if (!hdfs_fs->Create(file, "b").ok()) return 1;
      if (!hdfs_fs->AddBlock(file, "b", 1024).ok()) return 1;
      if (!hdfs_fs->CompleteFile(file, "b").ok()) return 1;
    }
    t0 = MonotonicMicros();
    if (!hdfs_fs->Rename("/victim", "/dst/victim").ok()) return 1;
    double hdfs_mv_ms = static_cast<double>(MonotonicMicros() - t0) / 1000.0;
    t0 = MonotonicMicros();
    if (!hdfs_fs->Delete("/dst/victim", true).ok()) return 1;
    double hdfs_rm_ms = static_cast<double>(MonotonicMicros() - t0) / 1000.0;

    char label[32];
    std::snprintf(label, sizeof(label), "%.2fM", static_cast<double>(files) / 1e6);
    std::printf("%-10s %12.0fms %12.0fms %12.0fms %12.0fms %14llu\n", label, hdfs_mv_ms,
                hops_mv_ms, hdfs_rm_ms, hops_rm_ms, static_cast<unsigned long long>(rm_trips));
    std::fflush(stdout);
    std::string prefix = "files" + std::to_string(files) + "_";
    json.Metric(prefix + "hops_mv_ms", hops_mv_ms);
    json.Metric(prefix + "hops_rm_ms", hops_rm_ms);
    json.Metric(prefix + "hdfs_mv_ms", hdfs_mv_ms);
    json.Metric(prefix + "hdfs_rm_ms", hdfs_rm_ms);
    json.Metric(prefix + "pipelined_trips", static_cast<double>(rm_trips));
  }
  std::printf("\npaper reference (1M files): HDFS mv 357ms / HopsFS mv 5870ms;\n");
  std::printf("HDFS rm 606ms / HopsFS rm 15941ms. Shape: HDFS wins on subtree ops\n");
  std::printf("(all in RAM), HopsFS pays network reads + batched transactions, and\n");
  std::printf("mv grows slower than rm because it rewrites only the subtree root.\n");
  return 0;
}
