// One retry policy for every metadata transaction loop: an attempt is re-run
// after a retryable failure, sleeping one backoff schedule keyed by status
// code, until it succeeds, fails terminally, or FsConfig::op_timeout has
// passed since its first failure (§6.3 subtree-lock backoff, §7.6.2
// aborted-transaction retry).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>

#include "hopsfs/config.h"
#include "util/clock.h"
#include "util/status.h"

namespace hops::fs {

// Which failures re-run the attempt. Every loop retries aborted
// transactions (Status::IsRetryableTx); only an inode operation also waits
// out an active subtree lock. Subtree quiesce must not: two overlapping
// subtree operations waiting on each other's locks would deadlock.
enum class RetryOn { kTxAbort, kTxAbortOrSubtreeLock };

inline bool IsRetryable(const hops::Status& st, RetryOn on) {
  return st.IsRetryableTx() ||
         (on == RetryOn::kTxAbortOrSubtreeLock && st.code() == hops::StatusCode::kSubtreeLocked);
}

// The sleep before the next attempt, after `failures` (>= 1) failed ones.
// A lock timeout retries at once: the 2PL engine already made it wait its
// turn. An optimistic conflict or an abort returns instantly, so immediate
// retries of hot-key contenders (or of a fault burst) would re-collide:
// capped exponential backoff. A subtree operation holds its lock for
// milliseconds: linear backoff in steps of 2 ms, capped at 16 ms.
inline std::chrono::microseconds RetryBackoff(hops::StatusCode code, int failures) {
  switch (code) {
    case hops::StatusCode::kConflict:
    case hops::StatusCode::kTxAborted:
      return std::chrono::microseconds(50) * (1 << std::min(failures - 1, 6));
    case hops::StatusCode::kSubtreeLocked:
      return std::chrono::milliseconds(2) * std::min(failures, 8);
    default:
      return std::chrono::microseconds(0);
  }
}

// The wait a retried status spent its time in, for loops that name none.
inline std::string_view RetryWaitName(hops::StatusCode code) {
  switch (code) {
    case hops::StatusCode::kSubtreeLocked:
      return "subtree wait";
    case hops::StatusCode::kLockTimeout:
      return "lock wait";
    case hops::StatusCode::kConflict:
      return "conflict retry";
    default:
      return "abort retry";
  }
}

// The last attempt's status code, unchanged (callers and the chaos oracle
// classify failures by code), with a message naming the stage that spent
// the time and the attempts it made.
inline hops::Status RetryTimedOut(const hops::Status& last, std::string_view stage,
                                  std::chrono::milliseconds timeout, int attempts) {
  std::string msg(stage.empty() ? RetryWaitName(last.code()) : stage);
  msg += ": op_timeout " + std::to_string(timeout.count()) + " ms passed after " +
         std::to_string(attempts) + " attempts: " + last.message();
  return hops::Status(last.code(), std::move(msg));
}

// The status of a bounded wait (not a retry loop) still blocked when
// op_timeout passed: retryable kUnavailable, naming the stage and what it
// waited for.
inline hops::Status WaitTimedOut(std::string_view stage, std::chrono::milliseconds timeout,
                                 std::string_view what) {
  std::string msg(stage);
  msg += ": op_timeout " + std::to_string(timeout.count()) + " ms passed waiting for ";
  msg += what;
  return hops::Status::Unavailable(std::move(msg));
}

// Runs `attempt` (a callable returning hops::Status) under the policy above.
// The first attempt costs nothing beyond the call: no clock read, no
// allocation, no lock. `stage` names the loop in a timeout's message; an
// empty stage names the wait the last attempt hit instead.
template <typename Attempt>
hops::Status RetryUntilTimeout(const FsConfig& config, std::string_view stage, RetryOn on,
                               Attempt&& attempt) {
  hops::Status st = attempt();
  if (!IsRetryable(st, on)) return st;
  const int64_t deadline_us =
      MonotonicMicros() +
      std::chrono::duration_cast<std::chrono::microseconds>(config.op_timeout).count();
  for (int failures = 1;; ++failures) {
    const int64_t left_us = deadline_us - MonotonicMicros();
    if (left_us <= 0) return RetryTimedOut(st, stage, config.op_timeout, failures);
    const auto backoff =
        std::min(RetryBackoff(st.code(), failures), std::chrono::microseconds(left_us));
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    st = attempt();
    if (!IsRetryable(st, on)) return st;
  }
}

}  // namespace hops::fs
