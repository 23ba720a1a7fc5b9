// Namenode handler pool (paper §7.1): N handler slots fronting the
// namenode's transactional operations. A client call takes a slot, runs its
// transaction to the end on its own thread, and frees the slot, so with N
// handlers a namenode drives at most N concurrent transactions, each
// flushing its own windows. Callers beyond N wait for a slot in arrival
// (FIFO) order. The pool bounds namenode-side concurrency the way HDFS/HopsFS
// handler counts do, while any number of client threads may wait behind it;
// with the in-process client, the caller's thread plays the handler, since
// the "RPC" is a plain function call.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>

#include "util/status.h"

namespace hops::fs {

// The pool must outlive every Run() call: no thread may still hold or wait
// for a slot when it is destroyed.
class HandlerPool {
 public:
  explicit HandlerPool(int num_handlers) : num_handlers_(num_handlers) {}

  HandlerPool(const HandlerPool&) = delete;
  HandlerPool& operator=(const HandlerPool&) = delete;

  // Waits for a free slot (FIFO behind earlier callers), runs `op` on the
  // calling thread holding it, frees it on every exit path and returns the
  // op's status. A call nested inside another Run's `op` runs inline on the
  // slot it already holds, so a request never deadlocks behind itself.
  hops::Status Run(const std::function<hops::Status()>& op);

  // True while the calling thread holds a handler slot (of any pool).
  static bool OnHandlerThread();

  int num_handlers() const { return num_handlers_; }
  // Slot admissions so far (nested inline calls are not counted).
  uint64_t requests_served() const { return served_.load(std::memory_order_relaxed); }
  // Callers waiting for a free slot right now.
  size_t queue_depth() const;

 private:
  struct Waiter {
    std::condition_variable cv;
    bool admitted = false;
  };

  void Acquire();
  void Release();

  const int num_handlers_;
  mutable std::mutex mu_;
  int busy_ = 0;                 // slots held
  std::deque<Waiter*> waiting_;  // FIFO; a freed slot passes to the front
  std::atomic<uint64_t> served_{0};
};

}  // namespace hops::fs
