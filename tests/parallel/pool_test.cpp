#include "parallel/pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace litmus::par {
namespace {

TEST(Pool, ThreadsResolutionAndOverride) {
  set_threads(3);
  EXPECT_EQ(threads(), 3u);
  set_threads(0);
  EXPECT_GE(threads(), 1u);
  set_threads(1);
}

TEST(Pool, ParallelForVisitsEveryIndexOnce) {
  for (const std::size_t n_threads : {1u, 2u, 5u}) {
    set_threads(n_threads);
    std::vector<std::atomic<int>> hits(101);
    parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  set_threads(1);
}

TEST(Pool, ParallelForSubmitsOneClaimLoopPerExtraThread) {
  // The caller runs one claim loop itself and hands the pool
  // min(threads, n) - 1 more, so at most min(threads, n) distinct threads
  // run items; a single item or a single thread never leaves the caller.
  // Each item sleeps briefly so that every claim loop handed out gets to
  // claim one.
  const auto threads_running = [](std::size_t n) {
    std::mutex mu;
    std::set<std::thread::id> ids;
    parallel_for(n, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      const std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    return ids;
  };
  const std::set<std::thread::id> caller = {std::this_thread::get_id()};
  set_threads(4);
  EXPECT_LE(threads_running(100).size(), 4u);
  EXPECT_EQ(threads_running(1), caller);
  set_threads(1);
  EXPECT_EQ(threads_running(100), caller);
}

TEST(Pool, NestedParallelismRunsInlineWithoutDeadlock) {
  set_threads(4);
  std::atomic<int> inner_total{0};
  std::atomic<bool> strayed{false};
  parallel_for(8, [&](std::size_t) {
    EXPECT_TRUE(in_parallel_region());
    const std::thread::id outer = std::this_thread::get_id();
    parallel_for(10, [&](std::size_t) {
      inner_total.fetch_add(1);
      if (std::this_thread::get_id() != outer) strayed.store(true);
    });
  });
  EXPECT_EQ(inner_total.load(), 80);
  EXPECT_FALSE(strayed.load());
  EXPECT_FALSE(in_parallel_region());
  set_threads(1);
}

TEST(Pool, ExceptionsPropagateToCaller) {
  set_threads(4);
  EXPECT_THROW(parallel_for(64,
                            [](std::size_t i) {
                              if (i == 13)
                                throw std::runtime_error("chunk failed");
                            }),
               std::runtime_error);
  // The pool survives a failed run.
  std::atomic<int> ok{0};
  parallel_for(16, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 16);
  set_threads(1);
}

TEST(Pool, ParallelForRebalancesAroundASlowItem) {
  // Item 0 waits until every other item has finished. Static chunks would
  // queue items 1..n/4-1 behind it on its own thread and never finish;
  // with dynamic claiming the other threads drain them. The wait is
  // bounded so a regression fails instead of hanging.
  set_threads(4);
  constexpr std::size_t n = 64;
  std::atomic<std::size_t> finished{0};
  bool timed_out = false;
  parallel_for(n, [&](std::size_t i) {
    if (i == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (finished.load() < n - 1 && !timed_out) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        timed_out = std::chrono::steady_clock::now() > deadline;
      }
    }
    finished.fetch_add(1);
  });
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(finished.load(), n);
  set_threads(1);
}

TEST(Pool, ZeroItemsIsANoOp) {
  std::atomic<int> calls{0};
  parallel_for(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

}  // namespace
}  // namespace litmus::par
