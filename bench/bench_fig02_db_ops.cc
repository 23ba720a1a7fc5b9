// Figure 2: relative cost of database operations --
// PK < batched PK < partition-pruned index scan < index scan < full table
// scan. Measured on the real NDB engine; reported in calibrated virtual
// microseconds (network round trips + per-partition service) and in raw
// engine round-trip / row counts. Uses google-benchmark with manual timing.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "kv/kv.h"
#include "sim/calibration.h"

namespace {

using namespace hops::kv;

struct Fixture {
  Fixture() {
    EngineConfig cfg;
    cfg.num_datanodes = 12;
    cfg.replication = 2;
    cfg.partitions_per_table = 24;
    cluster = MakeEngine(EngineKind::kNdb, cfg);
    Schema s;
    s.table_name = "t";
    s.columns = {{"parent", ColumnType::kInt64},
                 {"name", ColumnType::kString},
                 {"id", ColumnType::kInt64}};
    s.primary_key = {0, 1};
    s.partition_key = {0};
    table = *cluster->CreateTable(s);
    // 4096 parents x 16 children, mirroring a directory table.
    auto tx = cluster->Begin();
    int rows = 0;
    for (int64_t parent = 0; parent < 4096; ++parent) {
      for (int64_t c = 0; c < 16; ++c) {
        (void)tx->Insert(table, Row{parent, "f" + std::to_string(c), parent * 16 + c});
        if (++rows % 512 == 0) {
          (void)tx->Commit();
          tx = cluster->Begin();
        }
      }
    }
    (void)tx->Commit();
  }

  // Virtual *cost* (total cluster work) of a traced transaction under the
  // simulator's calibration: network round trips plus every touched
  // partition's service share. Figure 2 ranks operations by the resources
  // they consume, which is why the fan-out of IS/FTS dominates even though
  // the partitions serve in parallel.
  double VirtualCostUs(const CostTrace& trace) const {
    double total = 0;
    for (const auto& a : trace.accesses) {
      total += cal.nn_db_rtt_us * a.round_trips;
      for (const auto& p : a.parts) {
        total += cal.db_access_base_us + p.rows * cal.db_row_cpu_us;
      }
    }
    return total;
  }

  std::unique_ptr<Engine> cluster;
  TableId table = 0;
  hops::sim::Calibration cal;
};

Fixture& F() {
  static Fixture f;
  return f;
}

void ReportTrace(benchmark::State& state, const CostTrace& trace) {
  state.SetIterationTime(F().VirtualCostUs(trace) * 1e-6);
  state.counters["round_trips"] = trace.TotalRoundTrips();
  state.counters["rows"] = trace.TotalRows();
  uint32_t parts = 0;
  for (const auto& a : trace.accesses) parts += a.parts.size();
  state.counters["partitions"] = parts;
}

void BM_PrimaryKeyRead(benchmark::State& state) {
  int64_t i = 0;
  for (auto _ : state) {
    auto tx = F().cluster->Begin(TxHint{F().table, static_cast<uint64_t>(i % 4096)});
    tx->EnableTrace();
    benchmark::DoNotOptimize(tx->Read(F().table, {i % 4096, "f3"}, LockMode::kReadCommitted));
    ReportTrace(state, tx->trace());
    i++;
  }
}
BENCHMARK(BM_PrimaryKeyRead)->UseManualTime()->Name("Fig2/PK_read");

std::vector<Key> EightKeys(int64_t i) {
  std::vector<Key> keys;
  for (int64_t k = 0; k < 8; ++k) keys.push_back({(i + k * 37) % 4096, "f1"});
  return keys;
}

// Per-row baseline for the batched read: the same 8 keys, one round trip
// each. The round_trips counter is the number the batch path must beat.
void BM_PerRowPrimaryKey(benchmark::State& state) {
  int64_t i = 0;
  for (auto _ : state) {
    auto tx = F().cluster->Begin();
    tx->EnableTrace();
    for (const Key& key : EightKeys(i)) {
      benchmark::DoNotOptimize(tx->Read(F().table, key, LockMode::kReadCommitted));
    }
    ReportTrace(state, tx->trace());
    i++;
  }
}
BENCHMARK(BM_PerRowPrimaryKey)->UseManualTime()->Name("Fig2/PerRow_PK_x8");

void BM_BatchedPrimaryKey(benchmark::State& state) {
  int64_t i = 0;
  for (auto _ : state) {
    auto tx = F().cluster->Begin();
    tx->EnableTrace();
    benchmark::DoNotOptimize(tx->BatchRead(F().table, EightKeys(i), LockMode::kReadCommitted));
    ReportTrace(state, tx->trace());
    i++;
  }
}
BENCHMARK(BM_BatchedPrimaryKey)->UseManualTime()->Name("Fig2/Batched_PK_x8");

void BM_PartitionPrunedIndexScan(benchmark::State& state) {
  int64_t i = 0;
  for (auto _ : state) {
    auto tx = F().cluster->Begin(TxHint{F().table, static_cast<uint64_t>(i % 4096)});
    tx->EnableTrace();
    benchmark::DoNotOptimize(tx->Ppis(F().table, {i % 4096}));
    ReportTrace(state, tx->trace());
    i++;
  }
}
BENCHMARK(BM_PartitionPrunedIndexScan)->UseManualTime()->Name("Fig2/PPIS");

void BM_IndexScan(benchmark::State& state) {
  int64_t i = 0;
  for (auto _ : state) {
    auto tx = F().cluster->Begin();
    tx->EnableTrace();
    benchmark::DoNotOptimize(tx->IndexScan(F().table, {i % 4096}));
    ReportTrace(state, tx->trace());
    i++;
  }
}
BENCHMARK(BM_IndexScan)->UseManualTime()->Name("Fig2/IndexScan");

void BM_FullTableScan(benchmark::State& state) {
  for (auto _ : state) {
    auto tx = F().cluster->Begin();
    tx->EnableTrace();
    ScanOptions opts;
    opts.predicate = [](const Row& r) { return r[2].i64() % 997 == 0; };
    benchmark::DoNotOptimize(tx->FullTableScan(F().table, opts));
    ReportTrace(state, tx->trace());
  }
}
BENCHMARK(BM_FullTableScan)->UseManualTime()->Name("Fig2/FullTableScan");

}  // namespace

int main(int argc, char** argv) {
  // Headline number first: simulated DB round trips per 8-key read, batched
  // vs per-row (the batching win the namenode hot paths are built on).
  {
    auto per_row = F().cluster->Begin();
    per_row->EnableTrace();
    for (const Key& key : EightKeys(0)) {
      (void)per_row->Read(F().table, key, LockMode::kReadCommitted);
    }
    auto batched = F().cluster->Begin();
    batched->EnableTrace();
    (void)batched->BatchRead(F().table, EightKeys(0), LockMode::kReadCommitted);
    std::printf("# 8-key PK read: %u round trips per-row vs %u batched (%.1fx fewer)\n",
                per_row->trace().TotalRoundTrips(), batched->trace().TotalRoundTrips(),
                static_cast<double>(per_row->trace().TotalRoundTrips()) /
                    batched->trace().TotalRoundTrips());
  }
  // ... and the pipelining win on top: four independent 8-key batches, sync
  // Execute (one trip each, chained) vs ExecuteAsync (one overlapped
  // round-trip window). Trips come from the cluster counters, latency from
  // the calibrated trace cost.
  {
    constexpr int kBatches = 4;
    auto stage = [](ReadBatch& b, int64_t i) {
      for (const Key& key : EightKeys(i)) b.Get(F().table, key, LockMode::kReadCommitted);
    };
    F().cluster->ResetStats();
    auto sync_tx = F().cluster->Begin();
    sync_tx->EnableTrace();
    for (int64_t i = 0; i < kBatches; ++i) {
      ReadBatch b;
      stage(b, i);
      (void)sync_tx->Execute(b);
    }
    auto sync_stats = F().cluster->StatsSnapshot();
    double sync_cost = F().VirtualCostUs(sync_tx->trace());

    F().cluster->ResetStats();
    auto pipe_tx = F().cluster->Begin();
    pipe_tx->EnableTrace();
    {
      std::vector<ReadBatch> batches(kBatches);
      std::vector<Pending> pending;
      for (int64_t i = 0; i < kBatches; ++i) {
        stage(batches[static_cast<size_t>(i)], i);
        pending.push_back(pipe_tx->ExecuteAsync(batches[static_cast<size_t>(i)]));
      }
      for (auto& p : pending) (void)p.Wait();
    }
    auto pipe_stats = F().cluster->StatsSnapshot();
    double pipe_cost = F().VirtualCostUs(pipe_tx->trace());
    std::printf("# 4x 8-key batches: sync %llu trips / %.0fus vs pipelined %llu trips "
                "/ %.0fus virtual cost (%llu overlapped trips saved, %.2fx)\n",
                static_cast<unsigned long long>(sync_stats.round_trips), sync_cost,
                static_cast<unsigned long long>(pipe_stats.round_trips), pipe_cost,
                static_cast<unsigned long long>(pipe_stats.overlapped_round_trips),
                sync_cost / pipe_cost);
    F().cluster->ResetStats();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
