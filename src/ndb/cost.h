// Cost accounting for database accesses.
//
// The engine performs no artificial sleeps; instead every transaction can
// record a trace of its database accesses (kind, partitions and datanodes
// touched, rows moved, round trips, locality). Benchmarks convert traces to
// virtual time, and the discrete-event simulator (src/sim) replays them with
// queueing to reproduce the paper's cluster-scale results. The cost ordering
// of Figure 2 -- PK < batched PK < PPIS < IS < FTS -- emerges from the
// round-trip and fan-out accounting here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hops::ndb {

enum class AccessKind : uint8_t {
  kPkRead,         // single-row primary key read
  kPkWrite,        // eager lock acquisition for a staged write
  kBatchRead,      // batched primary key reads (one round trip)
  kPpis,           // partition-pruned index scan (single partition)
  kIndexScan,      // ordered index scan over all partitions
  kFullTableScan,  // unindexed scan over all partitions
  kCommit,         // 2PC flush of the write set
};

std::string_view AccessKindName(AccessKind kind);

// One partition's share of a logical database access.
struct PartTouch {
  uint32_t partition = 0;
  uint32_t node = 0;      // primary NDB datanode serving the partition
  uint32_t rows = 0;      // rows examined/written on this partition
  bool local = false;     // true if `node` is the transaction coordinator
};

// One logical database access (one client->TC round trip; the TC fans out to
// the touched partitions in parallel).
struct Access {
  AccessKind kind{};
  uint32_t table = 0;
  uint32_t round_trips = 1;
  // True when this access opens a flush window that rode a round trip paid
  // by ANOTHER transaction's window in the same completion-mux round: the
  // trip is shared, so round_trips stays 0, but the access still starts its
  // own scatter wave. The DES model costs such co-scheduled windows as max,
  // not sum, of the merged trips.
  bool co_scheduled = false;
  // True when this access ran on the asynchronous intent-apply stage rather
  // than on the acknowledged client path: the op was already acknowledged at
  // intent durability, so the DES model records the op's latency at the
  // first background access and lets the remaining accesses drain without
  // extending the acknowledged latency (they still occupy database stations).
  bool background = false;
  std::vector<PartTouch> parts;

  uint32_t TotalRows() const {
    uint32_t n = 0;
    for (const auto& p : parts) n += p.rows;
    return n;
  }
};

struct CostTrace {
  std::vector<Access> accesses;
  uint32_t coordinator_node = 0;

  void Clear() { accesses.clear(); }

  uint32_t TotalRoundTrips() const {
    uint32_t n = 0;
    for (const auto& a : accesses) n += a.round_trips;
    return n;
  }
  uint32_t TotalRows() const {
    uint32_t n = 0;
    for (const auto& a : accesses) n += a.TotalRows();
    return n;
  }
};

// Running totals kept by the cluster (always on; lock-free counters).
struct ClusterStats {
  uint64_t pk_reads = 0;
  uint64_t batch_reads = 0;   // ReadBatch / BatchRead executions (one each)
  uint64_t batch_writes = 0;  // WriteBatch executions (one each)
  uint64_t ppis_scans = 0;
  uint64_t index_scans = 0;
  uint64_t full_table_scans = 0;
  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t rows_read = 0;
  uint64_t rows_written = 0;
  uint64_t lock_timeouts = 0;
  // Row-lock acquisitions that found the row contended and had to block
  // (whether eventually granted or timed out). A workload whose writers
  // share no rows keeps this at 0; a global serialization point -- e.g. a
  // counter row every transaction X-locks to commit -- shows up here first,
  // long before lock_timeouts.
  uint64_t lock_waits = 0;
  // Simulated namenode<->database round trips across all accesses (batched
  // operations count once however many rows/partitions they touch; commits
  // count their 2PC trips). The batching win shows up here.
  uint64_t round_trips = 0;
  // Round trips *saved* by the async pipelined engine: every flush of N > 1
  // in-flight batches costs one overlapped round-trip window where the
  // synchronous path would have paid N sequential trips, so this counter
  // accumulates N - 1 per flush. `round_trips + overlapped_round_trips` is
  // the sync-equivalent trip count -- an invariant that holds whether a
  // window flushed alone or merged with other transactions' windows in a
  // completion-mux round (a merged round adds its whole saving here exactly
  // once, never per member). The pipelining win shows up here.
  uint64_t overlapped_round_trips = 0;
  // The cross-transaction share of the saving: trips that windows from
  // DIFFERENT transactions would each have paid flushing alone but that one
  // completion-mux round carried as a single shared trip. Always <=
  // overlapped_round_trips (which also contains the within-transaction
  // window overlap).
  uint64_t cross_tx_overlapped_round_trips = 0;
  // Completion-mux activity: rounds that completed at least one window, and
  // windows flushed through the mux. windows > rounds means windows from
  // concurrent transactions actually merged -- windows / rounds is the
  // merge rate the adaptive gather delay exists to raise.
  uint64_t mux_rounds = 0;
  uint64_t mux_windows = 0;
  // Adaptive gather (ClusterConfig::mux_adaptive_gather): rounds where the
  // loop briefly held the door open for more windows because recent rounds
  // merged, and the extra windows that actually arrived during those waits
  // (each one is a round trip merged away that an eager flush would have
  // paid).
  uint64_t mux_gather_waits = 0;
  uint64_t mux_gathered_windows = 0;
  // Optimistic-concurrency engine (kv::OccEngine) only; always 0 under the
  // pessimistic 2PL engine. A conflict is one commit whose validation failed
  // (the transaction surfaces kConflict and the namenode retries with a
  // capped backoff), split by what invalidated it: a point read whose row
  // version changed (occ_key_conflicts) or a recorded scan range into which
  // a newer version landed -- the phantom case (occ_range_conflicts). The
  // 2PL-vs-OCC ablation reads these next to lock_waits/lock_timeouts.
  uint64_t occ_conflicts = 0;
  uint64_t occ_key_conflicts = 0;
  uint64_t occ_range_conflicts = 0;
};

}  // namespace hops::ndb
