#include "hopsfs/handler_pool.h"

namespace hops::fs {

namespace {
thread_local bool t_on_handler = false;
}  // namespace

bool HandlerPool::OnHandlerThread() { return t_on_handler; }

size_t HandlerPool::queue_depth() const {
  std::lock_guard<std::mutex> lk(mu_);
  return waiting_.size();
}

hops::Status HandlerPool::Run(const std::function<hops::Status()>& op) {
  if (t_on_handler) return op();
  Acquire();
  struct SlotGuard {
    HandlerPool* pool;
    ~SlotGuard() {
      t_on_handler = false;
      pool->Release();
    }
  } guard{this};
  t_on_handler = true;
  return op();
}

void HandlerPool::Acquire() {
  std::unique_lock<std::mutex> lk(mu_);
  // A free slot is taken only when nobody is queued ahead, so admission
  // stays in arrival order.
  if (waiting_.empty() && busy_ < num_handlers_) {
    ++busy_;
    return;
  }
  Waiter self;
  waiting_.push_back(&self);
  self.cv.wait(lk, [&] { return self.admitted; });
}

void HandlerPool::Release() {
  served_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  if (waiting_.empty()) {
    --busy_;
    return;
  }
  // Hand the slot straight to the oldest waiter (busy_ is unchanged). The
  // notify stays under the lock: the waiter's condition variable lives on
  // its stack and is gone once it returns.
  Waiter* next = waiting_.front();
  waiting_.pop_front();
  next->admitted = true;
  next->cv.notify_one();
}

}  // namespace hops::fs
