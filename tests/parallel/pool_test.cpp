#include "parallel/pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/workspace.h"

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
  // min(threads, n) - 1 more; a single item or a single thread never
  // touches the pool.
  set_threads(4);
  parallel_for(8, [](std::size_t) {});  // build the pool
  const auto submitted_by = [](std::size_t n) {
    const std::uint64_t before = pool_stats().tasks_submitted;
    parallel_for(n, [](std::size_t) {});
    return pool_stats().tasks_submitted - before;
  };
  EXPECT_EQ(submitted_by(100), 3u);
  EXPECT_EQ(submitted_by(2), 1u);
  EXPECT_EQ(submitted_by(1), 0u);
  EXPECT_EQ(submitted_by(0), 0u);
  set_threads(1);
  EXPECT_EQ(submitted_by(100), 0u);
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

TEST(Workspace, ReferencesSurviveSlotGrowth) {
  // Hot loops hold several slot references at once (e.g. pool + cols in
  // the sampling loop), so creating a later slot must not relocate an
  // earlier one.
  Workspace ws;
  std::vector<std::size_t>& first = ws.indices(0);
  std::vector<double>& d_first = ws.doubles(0);
  first.assign(3, 42);
  d_first.assign(2, 0.5);
  for (std::size_t slot = 1; slot < 64; ++slot) {
    ws.indices(slot);
    ws.doubles(slot);
  }
  EXPECT_EQ(&first, &ws.indices(0));
  EXPECT_EQ(&d_first, &ws.doubles(0));
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[2], 42u);
  first.push_back(7);  // writing through the old reference is still valid
  EXPECT_EQ(ws.indices(0).back(), 7u);
}

TEST(Workspace, SlotsPersistAndAreThreadLocal) {
  Workspace& ws = this_thread_workspace();
  ws.doubles(0).assign(4, 1.5);
  EXPECT_EQ(&ws, &this_thread_workspace());
  EXPECT_EQ(this_thread_workspace().doubles(0).size(), 4u);
  ws.indices(2).assign(3, 7);
  EXPECT_EQ(ws.indices(2).size(), 3u);

  set_threads(4);
  // Worker threads see their own workspaces, never the caller's buffers:
  // the caller's buffer grows by exactly the items the caller claimed.
  // The caller's items wait (bounded) until a worker has run one, so both
  // sides are exercised however the claims fall.
  std::atomic<int> distinct{0};
  std::atomic<std::size_t> ran_here{0};
  parallel_for(64, [&](std::size_t) {
    Workspace& local = this_thread_workspace();
    if (&local != &ws) {
      distinct.fetch_add(1);
    } else {
      ran_here.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (distinct.load() == 0 &&
             std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    local.doubles(0).push_back(1.0);
  });
  EXPECT_GE(distinct.load(), 1);
  EXPECT_EQ(ws.doubles(0).size(), 4u + ran_here.load());
  ws.clear();
  EXPECT_TRUE(ws.doubles(0).empty());
  set_threads(1);
}

}  // namespace
}  // namespace litmus::par
