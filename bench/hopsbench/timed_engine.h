// Layer timing for the traced hopsbench run, taken from OUTSIDE the system:
// TimedEngine wraps a kv::Engine and hands out TimedTxn wrappers that
// forward every call to the real transaction and time it. Nothing under
// src/ is instrumented; the namenodes simply run on the wrapped engine.
//
// What is timed (each as a per-thread sum plus, for the tail metrics, raw
// samples for exact percentiles):
//  * a transaction, Begin -> Commit/Abort (or destruction), split into
//    foreground and background by whether SetBackground(true) was called on
//    it (the intent log's apply transactions);
//  * point reads, batched reads and scans ("read");
//  * point writes, which take their row locks eagerly under 2PL ("write");
//  * window waits: Pending::Wait and FlushPending, where a window's queueing
//    in the completion mux and its lock pass land ("wait");
//  * Commit ("commit").
// Spans go to a bounded in-memory buffer (thread, txn id, start, duration)
// written out as Chrome-trace JSON when the run ends.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "kv/kv.h"

namespace hopsbench {

using SteadyClock = std::chrono::steady_clock;

inline double MicrosBetween(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

enum class SpanKind : uint8_t { kTxnFg, kTxnBg, kRead, kWrite, kWait, kCommit, kRpc };

// One recorded interval. `label` names the client RPC for kRpc spans and is
// null otherwise (the kind names the kv call).
struct Span {
  SpanKind kind = SpanKind::kRead;
  const char* label = nullptr;
  uint32_t thread = 0;
  uint64_t txn = 0;
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
};

// The kv layer's counters, time sums (microseconds) and raw samples.
struct KvTotals {
  uint64_t begun = 0, committed = 0, calls = 0;
  double fg_txn_us = 0, bg_txn_us = 0, read_us = 0, write_us = 0, wait_us = 0,
         commit_us = 0;
  std::vector<float> read_samples, wait_samples, commit_samples;

  void Add(const KvTotals& o) {
    begun += o.begun;
    committed += o.committed;
    calls += o.calls;
    fg_txn_us += o.fg_txn_us;
    bg_txn_us += o.bg_txn_us;
    read_us += o.read_us;
    write_us += o.write_us;
    wait_us += o.wait_us;
    commit_us += o.commit_us;
    read_samples.insert(read_samples.end(), o.read_samples.begin(), o.read_samples.end());
    wait_samples.insert(wait_samples.end(), o.wait_samples.begin(), o.wait_samples.end());
    commit_samples.insert(commit_samples.end(), o.commit_samples.begin(),
                          o.commit_samples.end());
  }
};

// One thread's share. Each thread writes only its own bucket; the mutex is
// uncontended except when the run reads the totals.
struct KvBucket {
  std::mutex mu;
  uint32_t thread = 0;  // 1-based registration order, the trace's tid
  KvTotals totals;
};

// Process-wide recorder: records only while `recording` is set (the
// measured window), so warm-up and set-up work never lands in the totals.
class LayerClock {
 public:
  static LayerClock& Get() {
    static LayerClock clock;
    return clock;
  }

  void SetRecording(bool on) { recording_.store(on, std::memory_order_release); }
  // False on excluded threads: the housekeeping thread's heartbeat
  // transactions are not part of any client operation.
  bool recording() const {
    return !ExcludedThread() && recording_.load(std::memory_order_acquire);
  }
  static void ExcludeThisThread() { ExcludedThread() = true; }

  KvBucket& Local() {
    thread_local KvBucket* bucket = nullptr;
    if (bucket == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buckets_.push_back(std::make_unique<KvBucket>());
      bucket = buckets_.back().get();
      bucket->thread = static_cast<uint32_t>(buckets_.size());
    }
    return *bucket;
  }

  KvTotals Totals() {
    KvTotals t;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& b : buckets_) {
      std::lock_guard<std::mutex> bl(b->mu);
      t.Add(b->totals);
    }
    return t;
  }

  // Span buffer: fixed capacity, allocated once; spans past it are counted
  // and dropped rather than growing memory under load.
  void EnableSpans(size_t capacity) { spans_.resize(capacity); }
  void AddSpan(SpanKind kind, const char* label, uint64_t txn, SteadyClock::time_point start,
               SteadyClock::time_point end) {
    size_t i = span_next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= spans_.size()) {
      spans_dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Span& s = spans_[i];
    s.kind = kind;
    s.label = label;
    s.thread = Local().thread;
    s.txn = txn;
    s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_).count();
    s.dur_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(end - start).count();
  }
  uint64_t spans_recorded() const {
    return std::min<uint64_t>(span_next_.load(std::memory_order_relaxed), spans_.size());
  }
  uint64_t spans_dropped() const { return spans_dropped_.load(std::memory_order_relaxed); }

  // Chrome trace-event format ("X" complete events, microsecond clock).
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    static const char* const kNames[] = {"kv.txn",  "kv.txn.bg", "kv.read", "kv.write",
                                         "kv.wait", "kv.commit", "client"};
    std::fprintf(f, "{\"traceEvents\":[");
    const uint64_t n = spans_recorded();
    for (uint64_t i = 0; i < n; ++i) {
      const Span& s = spans_[i];
      std::string name = kNames[static_cast<int>(s.kind)];
      if (s.label != nullptr) name += std::string(".") + s.label;
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"txn\":%llu}}",
                   i > 0 ? "," : "", name.c_str(), s.thread,
                   static_cast<double>(s.start_ns) / 1e3, static_cast<double>(s.dur_ns) / 1e3,
                   static_cast<unsigned long long>(s.txn));
    }
    std::fprintf(f, "\n],\"otherData\":{\"spans_dropped\":%llu}}\n",
                 static_cast<unsigned long long>(spans_dropped()));
    return std::fclose(f) == 0;
  }

 private:
  LayerClock() = default;
  static bool& ExcludedThread() {
    thread_local bool excluded = false;
    return excluded;
  }

  std::atomic<bool> recording_{false};
  std::mutex mu_;
  std::vector<std::unique_ptr<KvBucket>> buckets_;
  const SteadyClock::time_point epoch_ = SteadyClock::now();
  std::vector<Span> spans_;
  std::atomic<size_t> span_next_{0};
  std::atomic<uint64_t> spans_dropped_{0};
};

// Forwards every call to the wrapped transaction and times it.
class TimedTxn final : public hops::kv::Txn {
 public:
  explicit TimedTxn(std::unique_ptr<hops::kv::Txn> inner)
      : inner_(std::move(inner)), start_(SteadyClock::now()) {}
  ~TimedTxn() override { End(false); }

  hops::kv::TxId id() const override { return inner_->id(); }
  uint32_t coordinator() const override { return inner_->coordinator(); }

  hops::Result<hops::kv::Row> Read(hops::kv::TableId table, const hops::kv::Key& key,
                                   hops::kv::LockMode mode,
                                   std::optional<uint64_t> pv) override {
    return Timed(SpanKind::kRead, [&] { return inner_->Read(table, key, mode, pv); });
  }
  hops::Result<std::vector<std::optional<hops::kv::Row>>> BatchRead(
      hops::kv::TableId table, const std::vector<hops::kv::Key>& keys, hops::kv::LockMode mode,
      const std::vector<uint64_t>* pvs) override {
    return Timed(SpanKind::kRead, [&] { return inner_->BatchRead(table, keys, mode, pvs); });
  }
  hops::Status Insert(hops::kv::TableId table, hops::kv::Row row,
                      std::optional<uint64_t> pv) override {
    return Timed(SpanKind::kWrite, [&] { return inner_->Insert(table, std::move(row), pv); });
  }
  hops::Status Update(hops::kv::TableId table, hops::kv::Row row,
                      std::optional<uint64_t> pv) override {
    return Timed(SpanKind::kWrite, [&] { return inner_->Update(table, std::move(row), pv); });
  }
  hops::Status Write(hops::kv::TableId table, hops::kv::Row row,
                     std::optional<uint64_t> pv) override {
    return Timed(SpanKind::kWrite, [&] { return inner_->Write(table, std::move(row), pv); });
  }
  hops::Status Delete(hops::kv::TableId table, const hops::kv::Key& key,
                      std::optional<uint64_t> pv) override {
    return Timed(SpanKind::kWrite, [&] { return inner_->Delete(table, key, pv); });
  }

  size_t InFlightBatches() const override { return inner_->InFlightBatches(); }
  hops::Status FlushPending() override {
    return Timed(SpanKind::kWait, [&] { return inner_->FlushPending(); });
  }
  void UnlockRow(hops::kv::TableId table, const hops::kv::Key& key,
                 std::optional<uint64_t> pv) override {
    inner_->UnlockRow(table, key, pv);
  }

  hops::Result<std::vector<hops::kv::Row>> Ppis(hops::kv::TableId table,
                                                const hops::kv::Key& prefix,
                                                const hops::kv::ScanOptions& opts,
                                                std::optional<uint64_t> pv) override {
    return Timed(SpanKind::kRead, [&] { return inner_->Ppis(table, prefix, opts, pv); });
  }
  hops::Result<std::vector<hops::kv::Row>> IndexScan(hops::kv::TableId table,
                                                     const hops::kv::Key& prefix,
                                                     const hops::kv::ScanOptions& opts) override {
    return Timed(SpanKind::kRead, [&] { return inner_->IndexScan(table, prefix, opts); });
  }
  hops::Result<std::vector<hops::kv::Row>> FullTableScan(
      hops::kv::TableId table, const hops::kv::ScanOptions& opts) override {
    return Timed(SpanKind::kRead, [&] { return inner_->FullTableScan(table, opts); });
  }

  hops::Status Commit() override {
    hops::Status st = Timed(SpanKind::kCommit, [&] { return inner_->Commit(); });
    End(st.ok());
    return st;
  }
  void Abort() override {
    inner_->Abort();
    End(false);
  }
  bool active() const override { return inner_->active(); }

  void EnableTrace() override { inner_->EnableTrace(); }
  const hops::kv::CostTrace& trace() const override { return inner_->trace(); }
  void SetBackground(bool background) override {
    background_ = background;
    inner_->SetBackground(background);
  }
  void SetLatencySensitive(bool v) override { inner_->SetLatencySensitive(v); }

 private:
  // Pending handles are bridged through the wrapped transaction's public
  // ExecuteAsync, the same way kv::NdbTxn bridges ndb::PendingBatch.
  uint64_t PrepareAsync(hops::kv::ReadBatch* read, hops::kv::WriteBatch* write) override {
    hops::kv::Pending pending =
        read != nullptr ? inner_->ExecuteAsync(*read) : inner_->ExecuteAsync(*write);
    const uint64_t seq = next_seq_++;
    pending_.emplace(seq, pending);
    CountCall();
    return seq;
  }
  hops::Status WaitBatch(uint64_t seq) override {
    auto it = pending_.find(seq);
    if (it == pending_.end()) return hops::Status::InvalidArgument("unknown batch handle");
    return Timed(SpanKind::kWait, [&] { return it->second.Wait(); });
  }
  bool BatchDone(uint64_t seq) const override {
    auto it = pending_.find(seq);
    return it != pending_.end() && it->second.done();
  }

  void CountCall() {
    LayerClock& clock = LayerClock::Get();
    if (!clock.recording()) return;
    KvBucket& b = clock.Local();
    std::lock_guard<std::mutex> lock(b.mu);
    b.totals.calls++;
  }

  template <typename Fn>
  auto Timed(SpanKind kind, Fn&& fn) -> decltype(fn()) {
    const SteadyClock::time_point t0 = SteadyClock::now();
    auto result = fn();
    LayerClock& clock = LayerClock::Get();
    if (clock.recording()) {
      const SteadyClock::time_point t1 = SteadyClock::now();
      const double us = MicrosBetween(t0, t1);
      KvBucket& b = clock.Local();
      {
        std::lock_guard<std::mutex> lock(b.mu);
        KvTotals& t = b.totals;
        t.calls++;
        switch (kind) {
          case SpanKind::kRead:
            t.read_us += us;
            t.read_samples.push_back(static_cast<float>(us));
            break;
          case SpanKind::kWrite:
            t.write_us += us;
            break;
          case SpanKind::kWait:
            t.wait_us += us;
            t.wait_samples.push_back(static_cast<float>(us));
            break;
          case SpanKind::kCommit:
            t.commit_us += us;
            t.commit_samples.push_back(static_cast<float>(us));
            break;
          default:
            break;
        }
      }
      clock.AddSpan(kind, nullptr, inner_->id(), t0, t1);
    }
    return result;
  }

  // Closes the transaction's own span once (Commit, Abort or destruction).
  void End(bool committed) {
    if (ended_) return;
    ended_ = true;
    LayerClock& clock = LayerClock::Get();
    if (!clock.recording() || !began_recording_) return;
    const SteadyClock::time_point now = SteadyClock::now();
    const double us = MicrosBetween(start_, now);
    KvBucket& b = clock.Local();
    {
      std::lock_guard<std::mutex> lock(b.mu);
      KvTotals& t = b.totals;
      t.begun++;
      if (committed) t.committed++;
      (background_ ? t.bg_txn_us : t.fg_txn_us) += us;
    }
    clock.AddSpan(background_ ? SpanKind::kTxnBg : SpanKind::kTxnFg, nullptr, inner_->id(),
                  start_, now);
  }

  std::unique_ptr<hops::kv::Txn> inner_;
  const SteadyClock::time_point start_;
  // Transactions begun before the window opened are not counted, so
  // begun/committed stay a matched pair.
  const bool began_recording_ = LayerClock::Get().recording();
  bool background_ = false;
  bool ended_ = false;
  std::map<uint64_t, hops::kv::Pending> pending_;
  uint64_t next_seq_ = 1;
};

// Forwards every engine call; Begin hands out TimedTxn wrappers.
class TimedEngine final : public hops::kv::Engine {
 public:
  explicit TimedEngine(std::unique_ptr<hops::kv::Engine> inner) : inner_(std::move(inner)) {}

  hops::kv::EngineKind kind() const override { return inner_->kind(); }
  hops::Result<hops::kv::TableId> CreateTable(hops::kv::Schema schema) override {
    return inner_->CreateTable(std::move(schema));
  }
  const hops::kv::Schema& schema(hops::kv::TableId table) const override {
    return inner_->schema(table);
  }
  std::optional<hops::kv::TableId> FindTable(std::string_view name) const override {
    return inner_->FindTable(name);
  }
  std::unique_ptr<hops::kv::Txn> Begin(std::optional<hops::kv::TxHint> hint) override {
    return std::make_unique<TimedTxn>(inner_->Begin(hint));
  }

  hops::kv::FaultInjector& fault_injector() override { return inner_->fault_injector(); }
  void KillDatanode(uint32_t node) override { inner_->KillDatanode(node); }
  void RestartDatanode(uint32_t node) override { inner_->RestartDatanode(node); }
  bool IsAlive(uint32_t node) const override { return inner_->IsAlive(node); }
  uint32_t NumAliveNodes() const override { return inner_->NumAliveNodes(); }
  bool Available() const override { return inner_->Available(); }

  const hops::kv::EngineConfig& config() const override { return inner_->config(); }
  uint32_t num_datanodes() const override { return inner_->num_datanodes(); }
  uint32_t num_partitions() const override { return inner_->num_partitions(); }
  uint32_t num_node_groups() const override { return inner_->num_node_groups(); }
  uint32_t PartitionForValue(uint64_t partition_value) const override {
    return inner_->PartitionForValue(partition_value);
  }
  std::optional<uint32_t> PrimaryNode(uint32_t partition) const override {
    return inner_->PrimaryNode(partition);
  }

  hops::kv::ClusterStats StatsSnapshot() const override { return inner_->StatsSnapshot(); }
  void ResetStats() override { inner_->ResetStats(); }
  size_t TableRowCount(hops::kv::TableId table) const override {
    return inner_->TableRowCount(table);
  }
  size_t TotalMemoryBytes() const override { return inner_->TotalMemoryBytes(); }
  size_t TableMemoryBytes(hops::kv::TableId table) const override {
    return inner_->TableMemoryBytes(table);
  }
  uint64_t GlobalCheckpointEpoch() const override { return inner_->GlobalCheckpointEpoch(); }

 private:
  std::unique_ptr<hops::kv::Engine> inner_;
};

}  // namespace hopsbench
