// Asynchronous metadata commits (AsyncFS/SwitchFS direction): the ordered
// per-namenode intent log and its apply stage.
//
// With FsConfig::async_metadata_commit on, the write-heavy ops (create,
// mkdirs, file setattr) acknowledge at *intent durability*: after a
// read-only validation the op is appended to the op_intents table -- PK
// (nn_id, seq), partitioned by the acknowledging namenode, seq allocated
// under the owner's intent_heads row, so per-namenode seq order ==
// acknowledgment order with zero cross-namenode contention -- and the
// client returns. A pool of
// FsConfig::intent_apply_batch claimer threads drains the intents and
// executes the real metadata transactions through the namenode's normal
// RunTx machinery. The drain is barrier-free: each claimer pulls the first
// queued intent prefix-related neither to an in-flight path nor to an
// earlier queued intent, so prefix-disjoint applies overlap freely while
// per-path apply order still equals acknowledgment order.
//
// Read-your-writes: every acknowledged-but-unapplied intent is tracked in
// an in-memory pending index keyed by path. Reads and conflicting
// mutations on a covered path block until the covering intent applies
// (WaitCovering); the ack-path validation itself consults the index so a
// create under a pending mkdir validates against the acknowledged state.
//
// Crash semantics: an intent row is deleted only after its apply
// transaction commits, so an acknowledged op survives namenode death in
// the log. Replay is at-least-once -- every intent op is idempotent
// (mkdirs/setattr re-apply cleanly; a re-applied create maps AlreadyExists
// to applied) -- and dead namenodes' rows are adopted in seq order by the
// leader's heartbeat (plus every namenode's own start-up sweep).
//
// Appends group-commit on the submitting threads themselves (no dedicated
// appender thread, so the ack path pays no cross-thread handoff): the first
// submitter to find no append in flight leads, draining everything queued
// while the previous append transaction was running into ONE transaction
// under a single head X-lock (intents_coalesced counts the sharing).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hopsfs/config.h"
#include "hopsfs/schema.h"
#include "hopsfs/types.h"
#include "kv/kv.h"
#include "util/status.h"

namespace hops::fs {

enum class IntentOp : int64_t {
  kCreate = 1,
  kMkdirs = 2,
  kSetPermission = 3,
  kSetOwner = 4,
};

// One acknowledged-but-not-yet-applied mutation, as stored in op_intents.
struct IntentRecord {
  NamenodeId nn = 0;
  int64_t seq = 0;
  IntentOp op = IntentOp::kCreate;
  std::string path;
  std::string client;  // kCreate: the lease holder
  std::string user;    // issuing user (apply re-runs under this identity)
  bool superuser = true;
  int64_t perm = 0;           // kSetPermission
  std::string owner, group;   // kSetOwner
  int64_t mtime = 0;          // wall-clock acknowledgment stamp

  // Monotonic submit stamp for latency accounting; not persisted (0 for
  // records adopted from the log).
  int64_t submit_micros = 0;
};

kv::Row ToRow(const IntentRecord& rec);
IntentRecord IntentFromRow(const kv::Row& row);

struct IntentLogStats {
  uint64_t intents_appended = 0;
  uint64_t intents_applied = 0;
  // Intents that shared their append transaction with an earlier queued one
  // (the group-commit win: N queued intents cost one head lock + commit).
  uint64_t intents_coalesced = 0;
  uint64_t apply_failures = 0;  // terminal (non-retryable) apply outcomes
  uint64_t acked_ops = 0;
  uint64_t ack_latency_us = 0;    // submit -> durable in the log, summed
  uint64_t apply_latency_us = 0;  // submit -> apply commit, summed
  uint64_t covering_waits = 0;    // WaitCovering calls that actually blocked
};

class IntentLog {
 public:
  // Applies one intent (the namenode routes it to the synchronous op body).
  // Runs on the applier thread or one of its batch workers; must be
  // thread-safe. kFailover means the namenode died: the applier parks and
  // leaves the remaining intents in the log for adoption.
  using ApplyFn = std::function<hops::Status(const IntentRecord&)>;

  IntentLog(kv::Engine* db, const MetadataSchema* schema, const FsConfig* config);
  ~IntentLog();

  IntentLog(const IntentLog&) = delete;
  IntentLog& operator=(const IntentLog&) = delete;

  // Spawns the applier thread (idempotent).
  void Start(NamenodeId self, ApplyFn apply);
  // Joins the applier. Queued-but-unappended submissions fail with
  // kUnavailable; appended-but-unapplied intents stay in the log.
  void Stop();
  // Simulated process death: releases every waiter and parks both stages
  // without draining (the log rows survive for adoption).
  void Abandon();

  // True on the applier thread or one of its apply-batch workers. The
  // namenode uses this to route applier-issued ops to the synchronous
  // bodies, skip the pending-intent wait, and mark their database accesses
  // as background work in cost traces.
  static bool OnApplierThread();
  // RAII applier marker for code that applies intents from another thread
  // (the leader's adoption sweep).
  class ApplierScope {
   public:
    ApplierScope();
    ~ApplierScope();

   private:
    bool prev_;
  };

  struct PendingInfo {
    bool is_dir = false;
    std::string user;  // owner-to-be (the reserving op's effective user)
  };
  // Exact-path lookup in the pending index.
  std::optional<PendingInfo> LookupPending(const std::string& path) const;
  // True when some pending path equals `path` or is a strict prefix of it
  // (i.e. the path's existence/attributes depend on an unapplied intent).
  bool HasPendingPrefix(const std::string& path) const;

  // Reservations register `path` as pending before its intent is appended,
  // so racing submissions and readers observe it. Conflicts with an
  // existing entry surface the same statuses the committed namespace would.
  // Each reservation is balanced by Submit (released on failure) or
  // AbortReservation, and consumed when the intent applies.
  //
  // A file create: kAlreadyExists over a pending file or dir.
  hops::Status ReserveCreate(const std::string& path, const std::string& user);
  // One mkdir level: kNotDirectory over a pending file; a pending dir
  // re-reserves compatibly (mkdirs is idempotent).
  hops::Status ReserveDir(const std::string& path, const std::string& user);
  // Unconditional rider for a setattr on a path that exists (committed or
  // pending): increments the pending entry, creating one if needed.
  void ReserveTouch(const std::string& path, bool is_dir, const std::string& user);
  void AbortReservation(const std::string& path);

  // When set, the appender/cleanup transactions deliver their cost traces
  // here (the namenode forwards its own sink so async ops' traces include
  // the acknowledged append trip and the background apply drain).
  void SetTraceSink(std::function<void(const kv::CostTrace&)> sink);

  // Blocks until the record is durable in op_intents (group-committed with
  // everything queued meanwhile; the calling thread may lead the group's
  // append transaction) and queued for apply. The path must have been
  // Reserved; on failure the reservation is released.
  hops::Status Submit(IntentRecord rec);

  // Blocks (bounded by FsConfig::intent_wait_timeout) while any pending
  // path covers `path`: equals it, is a prefix of it, or has it as a
  // prefix. No-op on the applier thread and after Abandon/Stop.
  void WaitCovering(const std::string& path) const;

  // Blocks until the log is drained: nothing reserved, queued or applying.
  // Returns immediately after Abandon/Stop.
  void Flush();

  // Pauses/resumes the applier (appends continue, so durable-but-unapplied
  // intents accumulate -- the crash-replay tests' setup).
  void SetApplierPausedForTesting(bool paused);
  // While held, no submitter takes group-commit leadership: submissions park
  // in the append queue, and releasing the hold lets one leader drain them
  // all in a single transaction (deterministic coalescing for tests).
  void SetAppendHoldForTesting(bool hold);
  // Crash-point hook for the chaos sweep: invoked at the named append/apply/
  // cleanup boundaries ("append:pre-commit", "append:post-commit",
  // "apply:claimed", "apply:applied", "cleanup:pre", "cleanup:mid",
  // "cleanup:post") on whatever thread runs the stage. Returning true
  // simulates the namenode process dying right there: the log abandons
  // exactly as Kill() would and the stage stops without cleanup, so durable
  // rows survive for replay/adoption.
  using CrashHook = std::function<bool(std::string_view point)>;
  void SetCrashHookForTesting(CrashHook hook);
  // Pauses/resumes the cleaner: applied intents' rows linger in op_intents
  // (the paused-cleaner fault class; adoption must tolerate the residue).
  void SetCleanerPausedForTesting(bool paused);
  // Submissions currently parked in the append queue.
  size_t QueuedAppendsForTesting() const;

  bool HasPending() const { return pending_count_.load(std::memory_order_acquire) > 0; }
  IntentLogStats stats() const;
  // The acknowledged-path latency is measured by the namenode around the
  // whole validate+append sequence and recorded here.
  void RecordAck(uint64_t latency_us);

 private:
  struct Pending {
    bool is_dir = false;
    std::string user;
    int ops = 0;  // reserved/queued intents on this exact path
  };
  struct AppendWaiter {
    IntentRecord rec;
    hops::Status result;
    bool done = false;
  };

  void ApplierLoop();
  // The continuous, barrier-free apply stage: every claimer thread (the
  // applier plus intent_apply_batch - 1 workers) runs this loop, pulling the
  // first eligible intent straight off apply_queue_ -- no batch boundary, so
  // no straggler ever idles the other claimers.
  void ApplyClaimLoop();
  // mu_ held. Index of the first queued intent prefix-related neither to an
  // in-flight path nor to an earlier queued intent (preserving per-path
  // acknowledgment order); npos when nothing in the scan budget is eligible.
  size_t EligibleIndexLocked() const;
  // Deletes applied intents' rows off the drain path, merging everything
  // applied since its last pass into chunked transactions. Flush() waits for
  // it; a crash in the applied-but-undeleted window re-applies idempotently.
  void CleanerLoop();
  // Applies `rec`, retrying retryable conflicts forever (capped backoff);
  // kFailover when the log is stopping/abandoned mid-retry.
  hops::Status ApplyOneWithRetry(const IntentRecord& rec);
  // One group-commit append transaction for `batch` (seq allocation under
  // the owner's intent_heads X-lock, one insert per record, head bump).
  hops::Status AppendBatchTx(std::vector<std::shared_ptr<AppendWaiter>>& batch);
  // Deletes the applied intents' rows (tolerating rows already deleted by a
  // racing adopter). Returns false when the delete did not commit.
  bool DeleteIntentRows(const std::vector<IntentRecord>& recs);
  // mu_ held. True when some pending path covers `path` (see WaitCovering).
  bool CoveredLocked(const std::string& path) const;
  // mu_ held. Drops one reserved op from `path`'s entry.
  void ReleaseOneLocked(const std::string& path);
  // True -- after abandoning the log -- when the test hook elects to crash
  // at `point`. Must be called without mu_ held.
  bool CrashAt(std::string_view point);

  kv::Engine* db_;
  const MetadataSchema* schema_;
  const FsConfig* config_;
  NamenodeId self_ = 0;
  ApplyFn apply_;
  mutable std::mutex trace_mu_;
  std::function<void(const kv::CostTrace&)> trace_fn_;
  mutable std::mutex hook_mu_;
  CrashHook crash_hook_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::map<std::string, Pending> pending_;  // joined path -> entry
  std::deque<std::shared_ptr<AppendWaiter>> append_queue_;
  std::deque<IntentRecord> apply_queue_;
  bool appending_ = false;
  bool append_hold_ = false;  // test hook: park submissions in the queue
  int applying_ = 0;  // intents currently being applied
  bool applier_paused_ = false;
  bool cleaner_paused_ = false;
  bool stop_ = false;
  bool abandoned_ = false;
  std::atomic<int64_t> pending_count_{0};
  std::thread applier_;
  std::thread cleaner_;
  std::deque<IntentRecord> cleanup_queue_;  // applied, rows not yet deleted
  bool cleaning_ = false;                   // cleaner mid-pass (Flush waits)

  // The extra claimer threads (intent_apply_batch - 1) that run
  // ApplyClaimLoop alongside applier_.
  std::vector<std::thread> apply_workers_;
  // Paths whose apply transaction is in flight right now; eligibility checks
  // scan it (it is at most intent_apply_batch entries long).
  std::vector<std::string> in_flight_;

  std::atomic<uint64_t> appended_{0}, applied_{0}, coalesced_{0},
      apply_failures_{0}, acked_ops_{0}, ack_latency_us_{0}, apply_latency_us_{0};
  // Bumped from const WaitCovering.
  mutable std::atomic<uint64_t> covering_waits_{0};
};

}  // namespace hops::fs
