// The namenode handler pool's admission gate on its own: at most N ops in
// flight, FIFO admission, the on-handler flag, nested calls running inline
// on the slot they already hold, the slot freed on every exit path, and the
// served-request count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "hopsfs/handler_pool.h"

namespace hops::fs {
namespace {

// Spins (with short sleeps) until `pred` holds.
template <typename Pred>
void WaitFor(Pred pred) {
  while (!pred()) std::this_thread::sleep_for(std::chrono::microseconds(50));
}

TEST(HandlerPoolGateTest, AtMostNumHandlersOpsInFlight) {
  HandlerPool pool(2);
  constexpr int kThreads = 8;
  constexpr int kCallsEach = 20;
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  std::atomic<size_t> peak_queue{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kCallsEach; ++i) {
        hops::Status st = pool.Run([&] {
          const int now = in_flight.fetch_add(1) + 1;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          const size_t depth = pool.queue_depth();
          size_t q = peak_queue.load();
          while (depth > q && !peak_queue.compare_exchange_weak(q, depth)) {
          }
          std::this_thread::sleep_for(std::chrono::microseconds(300));
          in_flight.fetch_sub(1);
          return hops::Status::Ok();
        });
        EXPECT_TRUE(st.ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(peak.load(), 2);
  EXPECT_GT(peak_queue.load(), 0u) << "callers beyond the slots must have queued";
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.requests_served(), static_cast<uint64_t>(kThreads * kCallsEach));
}

TEST(HandlerPoolGateTest, AdmitsWaitersInArrivalOrder) {
  HandlerPool pool(1);
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    (void)pool.Run([&] {
      holding = true;
      WaitFor([&] { return release.load(); });
      return hops::Status::Ok();
    });
  });
  WaitFor([&] { return holding.load(); });

  constexpr int kWaiters = 6;
  std::mutex mu;
  std::vector<int> order;
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaiters; ++i) {
    waiters.emplace_back([&, i] {
      (void)pool.Run([&] {
        std::lock_guard<std::mutex> lk(mu);
        order.push_back(i);
        return hops::Status::Ok();
      });
    });
    // The next waiter starts only once this one is queued, so the arrival
    // order is exactly 0..kWaiters-1.
    WaitFor([&] { return pool.queue_depth() == static_cast<size_t>(i + 1); });
  }
  release = true;
  holder.join();
  for (auto& t : waiters) t.join();
  std::vector<int> expected(kWaiters);
  for (int i = 0; i < kWaiters; ++i) expected[static_cast<size_t>(i)] = i;
  EXPECT_EQ(order, expected);
}

TEST(HandlerPoolGateTest, OnHandlerThreadHoldsOnlyInsideTheOp) {
  HandlerPool pool(1);
  EXPECT_FALSE(HandlerPool::OnHandlerThread());
  bool inside = false;
  hops::Status st = pool.Run([&] {
    inside = HandlerPool::OnHandlerThread();
    return hops::Status::NotFound("x");
  });
  EXPECT_EQ(st.code(), hops::StatusCode::kNotFound) << "the op's status is returned";
  EXPECT_TRUE(inside);
  EXPECT_FALSE(HandlerPool::OnHandlerThread());
}

TEST(HandlerPoolGateTest, ThrowingOpFreesItsSlot) {
  HandlerPool pool(1);
  EXPECT_THROW((void)pool.Run([]() -> hops::Status { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_FALSE(HandlerPool::OnHandlerThread());
  // With one slot, a leaked slot would block this call forever.
  std::thread other([&] { EXPECT_TRUE(pool.Run([] { return hops::Status::Ok(); }).ok()); });
  other.join();
  EXPECT_EQ(pool.requests_served(), 2u);
}

TEST(HandlerPoolGateTest, NestedRunReusesTheCallersSlot) {
  HandlerPool pool(1);
  bool nested_ran = false;
  hops::Status st = pool.Run([&] {
    // With a single slot, taking a second one would deadlock here.
    return pool.Run([&] {
      nested_ran = HandlerPool::OnHandlerThread();
      return hops::Status::Ok();
    });
  });
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(nested_ran);
  EXPECT_FALSE(HandlerPool::OnHandlerThread()) << "the outer exit clears the flag";
  EXPECT_EQ(pool.requests_served(), 1u) << "a nested call takes no slot of its own";
}

}  // namespace
}  // namespace hops::fs
