// NDB-level fault injection for the chaos harness: seeded, per-table
// transient errors and latency spikes, delivered through a hook in the
// transaction path (per-row ops, batch routing, scans, commit).
//
// An injected error surfaces as kTxAborted -- the same retryable status a
// real coordinator failure produces -- so everything above the transaction
// layer exercises its production retry machinery, not a special test path.
// A latency spike simply sleeps the accessing thread, modelling a slow disk
// or a GC pause on the data node serving the table's partitions.
//
// The injector is owned by the engine and always present; the `armed_`
// atomic keeps the disarmed fast path to a single relaxed load so regular
// runs pay nothing.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>

#include "ndb/schema.h"
#include "util/rng.h"
#include "util/status.h"

namespace hops::ndb {

class FaultInjector {
 public:
  // Matches every table not covered by a table-specific spec.
  static constexpr TableId kAllTables = static_cast<TableId>(-1);

  struct Spec {
    double error_probability = 0.0;  // P(access returns kTxAborted)
    double delay_probability = 0.0;  // P(access sleeps for `delay`)
    std::chrono::microseconds delay{0};
  };

  // Reseeds the fault dice. Call before arming so a run's injected fault
  // sequence is a pure function of (seed, access sequence).
  void Seed(uint64_t seed);
  void Arm(TableId table, Spec spec);
  void Disarm(TableId table);
  void DisarmAll();
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // The transaction-path hook: may sleep (latency spike), may return a
  // retryable kTxAborted (transient error). kOk otherwise. Thread-safe.
  hops::Status OnAccess(TableId table);

  uint64_t injected_errors() const {
    return errors_.load(std::memory_order_relaxed);
  }
  uint64_t injected_delays() const {
    return delays_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  Rng rng_{0x5eedfa17};
  std::map<TableId, Spec> specs_;
  std::atomic<bool> armed_{false};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> delays_{0};
};

}  // namespace hops::ndb
