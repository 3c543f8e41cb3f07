#include "parallel/pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/profile.h"
#include "obs/trace.h"

namespace litmus::par {
namespace {

thread_local int t_region_depth = 0;

struct RegionGuard {
  RegionGuard() noexcept { ++t_region_depth; }
  ~RegionGuard() noexcept { --t_region_depth; }
};

/// Fixed-size worker pool draining a shared FIFO queue. Tasks are plain
/// closures that never block on other tasks (see pool.h), so shutdown only
/// has to drain the queue and join.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
      threads_.emplace_back([this, i] { worker_loop(i); });
  }

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  std::size_t workers() const noexcept { return threads_.size(); }

  void submit(std::function<void()> task) {
    Task t;
    t.fn = std::move(task);
    // Carry the submitter's span across the queue so spans opened by the
    // task nest under the span that fanned the work out, not under a
    // disconnected per-worker root.
    t.parent_span = obs::current_span_id();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(t));
    }
    cv_.notify_one();
  }

 private:
  struct Task {
    std::function<void()> fn;
    std::uint64_t parent_span = 0;
  };

  void worker_loop(std::size_t index) {
    obs::set_thread_name("pool-worker-" + std::to_string(index));
    RegionGuard region;  // everything a worker runs is a parallel region
    for (;;) {
      Task task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stop_ and drained
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      obs::SpanParentGuard parent(task.parent_span);
      task.fn();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

std::atomic<std::size_t> g_configured{0};

struct PoolHolder {
  std::mutex mu;
  std::unique_ptr<ThreadPool> pool;
};

PoolHolder& holder() {
  static PoolHolder h;
  return h;
}

/// The pool resized to the currently resolved thread count. Callers hold no
/// reference across set_threads (documented in pool.h).
ThreadPool& pool_for(std::size_t workers) {
  PoolHolder& h = holder();
  std::lock_guard<std::mutex> lock(h.mu);
  if (!h.pool || h.pool->workers() != workers)
    h.pool = std::make_unique<ThreadPool>(workers);
  return *h.pool;
}

}  // namespace

std::size_t hardware_threads() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

void set_threads(std::size_t n) noexcept {
  g_configured.store(n, std::memory_order_relaxed);
}

std::size_t threads() {
  const std::size_t configured = g_configured.load(std::memory_order_relaxed);
  return configured > 0 ? configured : hardware_threads();
}

bool in_parallel_region() noexcept { return t_region_depth > 0; }

void parallel_for(std::size_t n_items,
                  const std::function<void(std::size_t i)>& fn) {
  // Inline execution claims no region of its own: pool workers hold a
  // guard for their whole lifetime, so nesting stays inline there, while a
  // single-item loop on an ordinary thread (e.g. one study element) leaves
  // nested loops free to fan out.
  const std::size_t n_threads =
      in_parallel_region() ? 1 : std::min(threads(), n_items);
  if (n_threads <= 1) {
    for (std::size_t i = 0; i < n_items; ++i) fn(i);
    return;
  }

  // Shared cursor and completion state for this call; tasks only signal,
  // never wait.
  struct Join {
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable cv;
    std::size_t remaining = 0;
    std::exception_ptr error;
  };
  auto join = std::make_shared<Join>();
  join->remaining = n_threads - 1;
  const auto claim_loop = [&fn, n_items](Join& j) {
    try {
      for (std::size_t i = j.next++; i < n_items; i = j.next++) fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(j.mu);
      if (!j.error) j.error = std::current_exception();
    }
  };

  ThreadPool& pool = pool_for(threads());
  for (std::size_t t = 1; t < n_threads; ++t) {
    pool.submit([join, claim_loop] {
      claim_loop(*join);
      {
        std::lock_guard<std::mutex> lock(join->mu);
        --join->remaining;
      }
      join->cv.notify_one();
    });
  }

  {
    RegionGuard region;
    claim_loop(*join);
  }

  std::unique_lock<std::mutex> lock(join->mu);
  join->cv.wait(lock, [&] { return join->remaining == 0; });
  if (join->error) std::rethrow_exception(join->error);
}

}  // namespace litmus::par
