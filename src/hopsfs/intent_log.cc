#include "hopsfs/intent_log.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>

#include "hopsfs/retry.h"
#include "util/clock.h"

namespace hops::fs {

namespace {

thread_local bool t_on_applier = false;

// EligibleIndexLocked's "nothing can apply now".
constexpr size_t kNoIntent = static_cast<size_t>(-1);

// True when one path covers the other: equal, or one is a path-component
// prefix of the other ("/a/b" relates to "/a/b/c" but not to "/a/bc").
bool PrefixRelated(const std::string& a, const std::string& b) {
  if (a == b) return true;
  const std::string& s = a.size() < b.size() ? a : b;
  const std::string& l = a.size() < b.size() ? b : a;
  if (s == "/") return true;
  return l.size() > s.size() && l.compare(0, s.size(), s) == 0 && l[s.size()] == '/';
}

// "/a/b/c" -> "/a/b". Mutations X-lock the parent inode, so two in-flight
// applies under one parent would only serialize on that lock, parking one
// claimer thread behind the other.
std::string_view ParentOf(const std::string& path) {
  const size_t pos = path.rfind('/');
  if (pos == std::string::npos || pos == 0) return std::string_view("/");
  return std::string_view(path.data(), pos);
}

}  // namespace

kv::Row ToRow(const IntentRecord& rec) {
  return kv::Row{rec.nn,
                  rec.seq,
                  static_cast<int64_t>(rec.op),
                  rec.path,
                  rec.client,
                  rec.user,
                  int64_t{rec.superuser ? 1 : 0},
                  rec.perm,
                  rec.owner,
                  rec.group,
                  rec.mtime};
}

IntentRecord IntentFromRow(const kv::Row& r) {
  IntentRecord rec;
  rec.nn = r[col::kIntentNn].i64();
  rec.seq = r[col::kIntentSeq].i64();
  rec.op = static_cast<IntentOp>(r[col::kIntentOp].i64());
  rec.path = r[col::kIntentPath].str();
  rec.client = r[col::kIntentClient].str();
  rec.user = r[col::kIntentUser].str();
  rec.superuser = r[col::kIntentSuper].i64() != 0;
  rec.perm = r[col::kIntentPerm].i64();
  rec.owner = r[col::kIntentOwner].str();
  rec.group = r[col::kIntentGroup].str();
  rec.mtime = r[col::kIntentMtime].i64();
  return rec;
}

bool IntentApplyRetryable(const hops::Status& st) {
  return IsRetryable(st, RetryOn::kTxAbortOrSubtreeLock) ||
         st.code() == hops::StatusCode::kUnavailable;
}

bool IntentLog::OnApplierThread() { return t_on_applier; }

IntentLog::ApplierScope::ApplierScope() : prev_(t_on_applier) { t_on_applier = true; }
IntentLog::ApplierScope::~ApplierScope() { t_on_applier = prev_; }

IntentLog::IntentLog(kv::Engine* db, const MetadataSchema* schema, const FsConfig* config)
    : db_(db), schema_(schema), config_(config) {}

IntentLog::~IntentLog() { Stop(); }

void IntentLog::Start(NamenodeId self, ApplyFn apply) {
  if (applier_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    self_ = self;
    apply_ = std::move(apply);
    stop_ = false;
    abandoned_ = false;
  }
  applier_ = std::thread([this] { ApplierLoop(); });
  cleaner_ = std::thread([this] { CleanerLoop(); });
  // The extra claimers: together with applier_ they form the barrier-free
  // apply pool, each pulling eligible intents straight off the queue.
  const int workers = std::max(0, config_->intent_apply_batch - 1);
  apply_workers_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    apply_workers_.emplace_back([this] { ApplyClaimLoop(); });
  }
}

void IntentLog::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  NotifyAll();
  if (applier_.joinable()) applier_.join();
  if (cleaner_.joinable()) cleaner_.join();
  for (auto& w : apply_workers_) w.join();
  apply_workers_.clear();
}

void IntentLog::Abandon() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    abandoned_ = true;
  }
  NotifyAll();
}

void IntentLog::NotifyAll() {
  cv_.notify_all();
  append_cv_.notify_all();
  claim_cv_.notify_all();
  cleaner_cv_.notify_all();
}

void IntentLog::SetTraceSink(std::function<void(const kv::CostTrace&)> sink) {
  std::lock_guard<std::mutex> lock(trace_mu_);
  trace_fn_ = std::move(sink);
}

// --- Pending index -----------------------------------------------------------

std::optional<IntentLog::PendingInfo> IntentLog::LookupPending(const std::string& path) const {
  if (pending_count_.load(std::memory_order_acquire) == 0) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(path);
  if (it == pending_.end()) return std::nullopt;
  return PendingInfo{it->second.is_dir, it->second.user};
}

bool IntentLog::HasPendingPrefix(const std::string& path) const {
  if (pending_count_.load(std::memory_order_acquire) == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  return PendingSelfOrAncestorLocked(path);
}

bool IntentLog::PendingSelfOrAncestorLocked(std::string_view path) const {
  if (pending_.count(path) > 0) return true;
  for (size_t pos = path.find('/', 1); pos != std::string_view::npos;
       pos = path.find('/', pos + 1)) {
    if (pending_.count(path.substr(0, pos)) > 0) return true;
  }
  return false;
}

hops::Status IntentLog::ReserveCreate(const std::string& path, const std::string& user) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_ || abandoned_) return hops::Status::Unavailable("intent log stopped");
  auto it = pending_.find(path);
  if (it != pending_.end()) return hops::Status::AlreadyExists(path);
  pending_.emplace(path, Pending{false, user, 1});
  pending_count_.fetch_add(1, std::memory_order_release);
  return hops::Status::Ok();
}

hops::Status IntentLog::ReserveDir(const std::string& path, const std::string& user) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_ || abandoned_) return hops::Status::Unavailable("intent log stopped");
  auto it = pending_.find(path);
  if (it != pending_.end()) {
    if (!it->second.is_dir) return hops::Status::NotDirectory(path);
    it->second.ops++;
    return hops::Status::Ok();
  }
  pending_.emplace(path, Pending{true, user, 1});
  pending_count_.fetch_add(1, std::memory_order_release);
  return hops::Status::Ok();
}

void IntentLog::ReserveTouch(const std::string& path, const std::string& owner,
                             bool owner_changes) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(path);
  if (it != pending_.end()) {
    it->second.ops++;
    if (owner_changes) it->second.user = owner;
    return;
  }
  pending_.emplace(path, Pending{/*is_dir=*/false, owner, 1});
  pending_count_.fetch_add(1, std::memory_order_release);
}

void IntentLog::ReleaseOneLocked(const std::string& path) {
  auto it = pending_.find(path);
  if (it == pending_.end()) return;
  if (--it->second.ops <= 0) {
    pending_.erase(it);
    pending_count_.fetch_sub(1, std::memory_order_release);
    cv_.notify_all();  // covering readers and Flush
  }
}

bool IntentLog::CoveredLocked(const std::string& path) const {
  if (pending_.empty()) return false;
  if (path == "/") return true;
  if (PendingSelfOrAncestorLocked(path)) return true;
  // A pending path strictly below `path` (listing / subtree dependence).
  const std::string below = path + "/";
  auto it = pending_.lower_bound(below);
  return it != pending_.end() && it->first.compare(0, below.size(), below) == 0;
}

hops::Status IntentLog::WaitCovering(const std::string& path) const {
  if (t_on_applier) return hops::Status::Ok();
  if (pending_count_.load(std::memory_order_acquire) == 0) return hops::Status::Ok();
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_ || abandoned_ || !CoveredLocked(path)) return hops::Status::Ok();
  covering_waits_.fetch_add(1, std::memory_order_relaxed);
  if (!cv_.wait_for(lock, config_->op_timeout,
                    [&] { return stop_ || abandoned_ || !CoveredLocked(path); })) {
    return WaitTimedOut("covering wait", config_->op_timeout,
                        "an acknowledged intent covering " + path + " to apply");
  }
  return hops::Status::Ok();
}

void IntentLog::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] {
    return stop_ || abandoned_ ||
           (append_queue_.empty() && !appending_ && apply_queue_.empty() &&
            applying_ == 0 && pending_.empty() && cleanup_queue_.empty() && !cleaning_);
  });
}

void IntentLog::SetApplierPausedForTesting(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    applier_paused_ = paused;
  }
  NotifyAll();
}

void IntentLog::SetAppendHoldForTesting(bool hold) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    append_hold_ = hold;
  }
  NotifyAll();
}

size_t IntentLog::QueuedAppendsForTesting() const {
  std::lock_guard<std::mutex> lock(mu_);
  return append_queue_.size();
}

void IntentLog::SetCrashHookForTesting(CrashHook hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  crash_hook_ = std::move(hook);
}

void IntentLog::SetCleanerPausedForTesting(bool paused) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cleaner_paused_ = paused;
  }
  NotifyAll();
}

bool IntentLog::CrashAt(std::string_view point) {
  CrashHook hook;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    hook = crash_hook_;
  }
  if (!hook || !hook(point)) return false;
  // A crash here is process death: park every stage without cleanup, exactly
  // like Kill(). Durable rows stay for replay/adoption.
  Abandon();
  return true;
}

// --- Append stage ------------------------------------------------------------

hops::Status IntentLog::Submit(IntentRecord rec) {
  auto w = std::make_shared<AppendWaiter>();
  rec.submit_micros = MonotonicMicros();
  rec.mtime = NowMicros();
  w->rec = std::move(rec);
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_ || abandoned_) {
    ReleaseOneLocked(w->rec.path);
    return hops::Status::Unavailable("intent log stopped");
  }
  append_queue_.push_back(w);
  // Group-commit leadership rides the submitting threads themselves: the
  // first waiter to observe no append in flight drains the WHOLE queue
  // (everything queued while the previous append was in flight) in one
  // transaction under a single head X-lock; the others block until their
  // leader marks them done. No dedicated appender thread means the ack path
  // pays no cross-thread handoff -- the leader's latency is its own
  // transaction, a follower's is the tail of the in-flight one.
  for (;;) {
    if (w->done) return w->result;
    if (stop_ || abandoned_) {
      auto it = std::find(append_queue_.begin(), append_queue_.end(), w);
      if (it != append_queue_.end()) {
        append_queue_.erase(it);
        ReleaseOneLocked(w->rec.path);
        return hops::Status::Unavailable("intent log stopped");
      }
      // Already claimed by an in-flight leader; its outcome decides.
      append_cv_.wait(lock, [&] { return w->done; });
      return w->result;
    }
    if (!appending_ && !append_hold_ && !append_queue_.empty()) {
      std::vector<std::shared_ptr<AppendWaiter>> batch(append_queue_.begin(),
                                                       append_queue_.end());
      append_queue_.clear();
      appending_ = true;
      lock.unlock();
      hops::Status st = AppendBatchTx(batch);
      lock.lock();
      appending_ = false;
      for (size_t i = 0; i < batch.size(); ++i) {
        auto& b = batch[i];
        if (st.ok()) {
          appended_.fetch_add(1, std::memory_order_relaxed);
          if (i > 0) coalesced_.fetch_add(1, std::memory_order_relaxed);
          apply_queue_.push_back(b->rec);
        } else {
          ReleaseOneLocked(b->rec.path);
        }
        b->result = st;
        b->done = true;
      }
      // Followers: the batch's own are done, and a later one may lead next.
      append_cv_.notify_all();
      // Wake one claimer only if the batch left something it can take; the
      // claimers pass the baton on from there.
      if (st.ok() && !applier_paused_ && EligibleIndexLocked() != kNoIntent) {
        claim_cv_.notify_one();
      }
      continue;  // our own waiter was in the drained queue, so done is set
    }
    append_cv_.wait(lock);
  }
}

hops::Status IntentLog::AppendBatchTx(std::vector<std::shared_ptr<AppendWaiter>>& batch) {
  std::function<void(const kv::CostTrace&)> sink;
  {
    std::lock_guard<std::mutex> lock(trace_mu_);
    sink = trace_fn_;
  }
  return RetryUntilTimeout(*config_, "intent append", RetryOn::kTxAbort, [&] {
    auto tx = db_->Begin(kv::TxHint{schema_->intent_heads, static_cast<uint64_t>(self_)});
    if (sink) tx->EnableTrace();
    // Allocate the seq range under the X lock on OUR OWN head row (a failed
    // locked read still locks the key slot, guarding the first insert):
    // per-namenode sequence order equals commit order by construction, and
    // no other namenode ever X-locks this row.
    int64_t seq = 1;
    auto head = tx->Read(schema_->intent_heads, {self_}, kv::LockMode::kExclusive);
    if (head.ok()) {
      seq = (*head)[col::kIntentHeadNext].i64();
    } else if (head.status().code() != hops::StatusCode::kNotFound) {
      return head.status();
    }
    for (auto& w : batch) {
      w->rec.nn = self_;
      w->rec.seq = seq++;
      HOPS_RETURN_IF_ERROR(tx->Insert(schema_->op_intents, ToRow(w->rec)));
    }
    HOPS_RETURN_IF_ERROR(tx->Write(schema_->intent_heads, kv::Row{self_, seq}));
    if (CrashAt("append:pre-commit")) {
      // Nothing durable yet: the waiters fail un-acked and nothing replays.
      return hops::Status::Failover("crash injected before intent append commit");
    }
    HOPS_RETURN_IF_ERROR(tx->Commit());
    if (CrashAt("append:post-commit")) {
      // Durable but never acknowledged: replay applies the rows idempotently
      // even though the submitters saw a failure.
      return hops::Status::Failover("crash injected after intent append commit");
    }
    if (sink) sink(tx->trace());
    return hops::Status::Ok();
  });
}

// --- Apply stage -------------------------------------------------------------

void IntentLog::ApplierLoop() {
  // The applier "thread" is just the first of intent_apply_batch identical
  // claimers; all policy lives in ApplyClaimLoop.
  ApplyClaimLoop();
}

// mu_ held. Index of the first intent in apply_queue_ that may apply NOW:
// prefix-related neither to any in-flight path nor to any EARLIER queued
// intent -- the second check is what keeps per-path apply order equal to
// acknowledgment order (a later op on a path never overtakes an earlier
// one). The scan is budgeted so a deep queue of mutually related intents
// does not turn every claim into a quadratic walk; a claimer re-scans when
// its own apply finishes. Returns kNoIntent when nothing in budget is
// eligible.
size_t IntentLog::EligibleIndexLocked() const {
  const size_t budget =
      std::min(apply_queue_.size(),
               static_cast<size_t>(8 * std::max(1, config_->intent_apply_batch)));
  for (size_t i = 0; i < budget; ++i) {
    const std::string& path = apply_queue_[i].path;
    // Same-parent siblings commute semantically but contend on the parent's
    // X-lock, so an in-flight sibling blocks too (an earlier QUEUED sibling
    // does not: reordering around it is safe and finds work elsewhere).
    bool blocked = std::any_of(in_flight_.begin(), in_flight_.end(), [&](const std::string& p) {
      return PrefixRelated(p, path) || ParentOf(p) == ParentOf(path);
    });
    for (size_t j = 0; !blocked && j < i; ++j) {
      blocked = PrefixRelated(apply_queue_[j].path, path);
    }
    if (!blocked) return i;
  }
  return kNoIntent;
}

void IntentLog::ApplyClaimLoop() {
  ApplierScope scope;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Checked before sleeping, so a claimer whose apply just finished takes
    // whatever that finish unblocked without anyone waking it.
    size_t idx = kNoIntent;
    bool woke = false;
    claim_cv_.wait(lock, [&] {
      if (stop_ || abandoned_) return true;
      if (!applier_paused_ && !apply_queue_.empty()) {
        idx = EligibleIndexLocked();
        if (idx != kNoIntent) return true;
      }
      if (woke) idle_wakeups_.fetch_add(1, std::memory_order_relaxed);
      woke = true;
      return false;
    });
    if (stop_ || abandoned_) return;
    IntentRecord rec = std::move(apply_queue_[idx]);
    apply_queue_.erase(apply_queue_.begin() + static_cast<ptrdiff_t>(idx));
    in_flight_.push_back(rec.path);
    ++applying_;
    // Pass the baton: one more claimer, only if it will find work.
    if (EligibleIndexLocked() != kNoIntent) claim_cv_.notify_one();
    lock.unlock();

    hops::Status result = ApplyOneWithRetry(rec);
    if (result.ok() && CrashAt("apply:applied")) {
      // Applied but the row survives (no cleanup ran): the replay after
      // restart must map the already-applied mutation to success.
      result = hops::Status::Failover("crash injected after intent apply");
    }
    const int64_t now = MonotonicMicros();

    lock.lock();
    auto fit = std::find(in_flight_.begin(), in_flight_.end(), rec.path);
    if (fit != in_flight_.end()) in_flight_.erase(fit);
    --applying_;
    if (result.code() == hops::StatusCode::kFailover) {
      // The namenode died under us: leave the rows (and pending entries)
      // for the leader's adoption and park every stage.
      abandoned_ = true;
      lock.unlock();
      NotifyAll();
      return;
    }
    // Exactly-once modulo idempotent replay: the row is deleted only after
    // the apply committed, so an acknowledged op can never be lost. The
    // delete itself runs on the cleaner thread -- off the drain path --
    // which merges applied intents into chunked transactions; a crash in
    // the window re-applies idempotently.
    cleanup_queue_.push_back(rec);
    cleaner_cv_.notify_one();
    applied_.fetch_add(1, std::memory_order_relaxed);
    if (!result.ok()) {
      // Terminal failure of an acknowledged op -- by design only reachable
      // through acknowledged-state validation races; loud because every
      // occurrence deserves a look.
      std::fprintf(stderr, "intent apply failed (nn=%lld seq=%lld path=%s): %s\n",
                   static_cast<long long>(rec.nn), static_cast<long long>(rec.seq),
                   rec.path.c_str(), result.ToString().c_str());
      apply_failures_.fetch_add(1, std::memory_order_relaxed);
    }
    if (rec.submit_micros > 0) {
      apply_latency_us_.fetch_add(static_cast<uint64_t>(now - rec.submit_micros),
                                  std::memory_order_relaxed);
    }
    ReleaseOneLocked(rec.path);
    if (applying_ == 0) cv_.notify_all();  // Flush
  }
}

hops::Status IntentLog::ApplyOneWithRetry(const IntentRecord& rec) {
  hops::Status st;
  // A failure a later attempt can get past -- contention, a subtree lock, a
  // node group down -- must never consume the intent: the op was
  // acknowledged, so those retries are unbounded (capped backoff). Only
  // terminal statuses fall through; if the log is shutting down mid-retry,
  // park via the failover path so the rows survive for replay/adoption.
  if (CrashAt("apply:claimed")) {
    return hops::Status::Failover("crash injected before intent apply");
  }
  for (int attempt = 0;; ++attempt) {
    st = apply_(rec);
    if (!IntentApplyRetryable(st)) break;
    {
      std::lock_guard<std::mutex> check(mu_);
      if (stop_ || abandoned_) {
        return hops::Status::Failover("intent log stopping mid-apply");
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(std::min(attempt + 1, 10)));
  }
  return st;
}

void IntentLog::CleanerLoop() {
  ApplierScope scope;  // cleanup trips are background work in cost traces
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cleaner_cv_.wait(lock, [&] {
      return stop_ || abandoned_ || (!cleanup_queue_.empty() && !cleaner_paused_);
    });
    if (stop_ || abandoned_) return;  // leftover rows replay idempotently
    // Merge everything applied since the last pass -- dozens of intents
    // under load -- into chunked delete transactions.
    std::vector<IntentRecord> recs(cleanup_queue_.begin(), cleanup_queue_.end());
    cleanup_queue_.clear();
    cleaning_ = true;
    lock.unlock();
    if (CrashAt("cleanup:pre")) return;  // every applied row survives
    constexpr size_t kChunk = 64;
    std::vector<IntentRecord> failed;
    for (size_t off = 0; off < recs.size(); off += kChunk) {
      std::vector<IntentRecord> chunk(
          recs.begin() + static_cast<ptrdiff_t>(off),
          recs.begin() + static_cast<ptrdiff_t>(std::min(off + kChunk, recs.size())));
      if (!DeleteIntentRows(chunk)) failed.insert(failed.end(), chunk.begin(), chunk.end());
      // Mid-pass crash: some chunks deleted, the rest replay idempotently.
      if (off + kChunk < recs.size() && CrashAt("cleanup:mid")) return;
    }
    if (CrashAt("cleanup:post")) return;  // all rows gone; nothing replays
    lock.lock();
    if (!failed.empty()) {
      // A fault outlasted the delete's retries. Requeue the rows after a
      // pause: adoption only sweeps dead namenodes' partitions, so a row
      // dropped here would stay in the live partition forever.
      cleanup_queue_.insert(cleanup_queue_.end(), failed.begin(), failed.end());
      cleaner_cv_.wait_for(lock, std::chrono::milliseconds(10),
                           [&] { return stop_ || abandoned_; });
    }
    cleaning_ = false;
    cv_.notify_all();  // Flush waiters
  }
}

bool IntentLog::DeleteIntentRows(const std::vector<IntentRecord>& recs) {
  if (recs.empty()) return true;
  std::function<void(const kv::CostTrace&)> sink;
  {
    std::lock_guard<std::mutex> lock(trace_mu_);
    sink = trace_fn_;
  }
  const hops::Status st =
      RetryUntilTimeout(*config_, "intent cleanup", RetryOn::kTxAbort, [&] {
        auto tx =
            db_->Begin(kv::TxHint{schema_->op_intents, static_cast<uint64_t>(recs.front().nn)});
        if (sink) {
          tx->EnableTrace();
          tx->SetBackground(true);
        }
        for (const auto& rec : recs) {
          hops::Status deleted = tx->Delete(schema_->op_intents, {rec.nn, rec.seq});
          if (!deleted.ok() && deleted.code() != hops::StatusCode::kNotFound) return deleted;
        }
        HOPS_RETURN_IF_ERROR(tx->Commit());
        if (sink) sink(tx->trace());
        return hops::Status::Ok();
      });
  return st.ok();
}

IntentLogStats IntentLog::stats() const {
  IntentLogStats s;
  s.intents_appended = appended_.load(std::memory_order_relaxed);
  s.intents_applied = applied_.load(std::memory_order_relaxed);
  s.intents_coalesced = coalesced_.load(std::memory_order_relaxed);
  s.apply_failures = apply_failures_.load(std::memory_order_relaxed);
  s.acked_ops = acked_ops_.load(std::memory_order_relaxed);
  s.ack_latency_us = ack_latency_us_.load(std::memory_order_relaxed);
  s.apply_latency_us = apply_latency_us_.load(std::memory_order_relaxed);
  s.covering_waits = covering_waits_.load(std::memory_order_relaxed);
  s.idle_wakeups = idle_wakeups_.load(std::memory_order_relaxed);
  return s;
}

void IntentLog::RecordAck(uint64_t latency_us) {
  acked_ops_.fetch_add(1, std::memory_order_relaxed);
  ack_latency_us_.fetch_add(latency_us, std::memory_order_relaxed);
}

}  // namespace hops::fs
