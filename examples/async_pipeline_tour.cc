// Tour of the async pipelined batch engine (NDB's executeAsynchPrepare /
// sendPollNdb idiom): stage several independent batches on one transaction,
// let them share one overlapped round-trip window, and watch the round-trip
// counters against the synchronous, chained execution of the same work.
#include <cstdio>
#include <vector>

#include "kv/kv.h"

int main() {
  using namespace hops::kv;

  EngineConfig cfg;
  cfg.num_datanodes = 8;
  cfg.replication = 2;
  cfg.partitions_per_table = 16;
  auto cluster = MakeEngine(EngineKind::kNdb, cfg);

  Schema s;
  s.table_name = "inodes";
  s.columns = {{"parent", ColumnType::kInt64},
               {"name", ColumnType::kString},
               {"id", ColumnType::kInt64}};
  s.primary_key = {0, 1};
  s.partition_key = {0};
  TableId table = *cluster->CreateTable(s);

  {
    auto tx = cluster->Begin();
    for (int64_t parent = 0; parent < 64; ++parent) {
      for (int64_t c = 0; c < 4; ++c) {
        (void)tx->Insert(table, Row{parent, "f" + std::to_string(c), parent * 4 + c});
      }
    }
    (void)tx->Commit();
  }

  auto stage = [&](ReadBatch& batch, int64_t base) {
    for (int64_t k = 0; k < 8; ++k) batch.Get(table, {base + k * 7, "f1"});
  };
  constexpr int kBatches = 6;

  std::printf("six independent 8-key read batches on one transaction\n\n");

  // Synchronous: each Execute is its own round trip, chained.
  cluster->ResetStats();
  {
    auto tx = cluster->Begin();
    for (int64_t b = 0; b < kBatches; ++b) {
      ReadBatch batch;
      stage(batch, b);
      if (!tx->Execute(batch).ok()) return 1;
    }
    (void)tx->Commit();
  }
  auto sync_stats = cluster->StatsSnapshot();
  std::printf("sync Execute        %llu round trips, %llu saved by overlap\n",
              static_cast<unsigned long long>(sync_stats.round_trips),
              static_cast<unsigned long long>(sync_stats.overlapped_round_trips));

  // Pipelined: ExecuteAsync prepares; the first Wait flushes the whole
  // in-flight window as ONE overlapped trip (bounded by
  // EngineConfig::max_in_flight_batches, default 8).
  cluster->ResetStats();
  {
    auto tx = cluster->Begin();
    std::vector<ReadBatch> batches(kBatches);
    std::vector<Pending> pending;
    for (int64_t b = 0; b < kBatches; ++b) {
      stage(batches[static_cast<size_t>(b)], b);
      pending.push_back(tx->ExecuteAsync(batches[static_cast<size_t>(b)]));
    }
    std::printf("\n%d batches prepared, %zu in flight, 0 executed yet...\n", kBatches,
                tx->InFlightBatches());
    for (auto& p : pending) {
      if (!p.Wait().ok()) return 1;  // the first Wait flushes the window
    }
    // Results read back per batch, exactly as on the synchronous path.
    if (!batches[0].row(0).has_value()) return 1;
    (void)tx->Commit();
  }
  auto pipe_stats = cluster->StatsSnapshot();
  std::printf("pipelined ExecuteAsync  %llu round trip(s), %llu saved by overlap\n",
              static_cast<unsigned long long>(pipe_stats.round_trips),
              static_cast<unsigned long long>(pipe_stats.overlapped_round_trips));

  std::printf("\nthe namenode's heavy consumers of this idiom: subtree quiesce scans\n");
  std::printf("(one in-flight scan batch per directory, level-wide), subtree delete\n");
  std::printf("transactions (inode probes + the per-file fan-out batch in one window),\n");
  std::printf("addBlock/completeFile lease+fan-out overlap, and speculative\n");
  std::printf("getBlockLocations riding the resolution window.\n");
  return 0;
}
