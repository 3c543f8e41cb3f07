// Bounded thread pool and deterministic fan-out for the Litmus hot paths.
//
// Design rules, all in service of the determinism contract (DESIGN.md §8):
//   * parallel_chunks splits work into *contiguous, ascending* chunks
//     whose boundaries depend only on (n_items, n_chunks) — never on
//     scheduling. A caller that merges per-chunk results in chunk order
//     therefore reconstructs exactly the sequential iteration order, so
//     results are bit-identical at any thread count.
//   * parallel_for hands out indices dynamically from a shared cursor, so
//     a slow item never stalls the ones behind it; its callers write only
//     per-index slots, so the claim order never reaches a result.
//   * Nested parallelism runs inline: a parallel_* call issued from inside
//     a chunk executes sequentially on the calling thread. The outermost
//     *multi-chunk* fan-out (change records > study elements > sampling
//     iterations) wins, and pool tasks never block on other pool tasks, so
//     the pool cannot deadlock. A degenerate single-chunk loop (e.g. one
//     study element) claims no region, leaving its nested loops free to
//     fan out instead.
//   * Thread count resolution: set_threads(n) (e.g. litmus_cli --threads)
//     wins, else the LITMUS_THREADS environment variable, else
//     std::thread::hardware_concurrency(). The pool itself is lazily
//     created on first parallel call and rebuilt if the count changes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace litmus::par {

/// std::thread::hardware_concurrency(), clamped to at least 1.
std::size_t hardware_threads() noexcept;

/// Overrides the worker count for subsequent parallel work. 0 restores the
/// automatic resolution (LITMUS_THREADS, else hardware). Not safe to call
/// concurrently with in-flight parallel_* work.
void set_threads(std::size_t n) noexcept;

/// The resolved worker count the next parallel call will use.
std::size_t threads();

/// True while the calling thread is executing inside a parallel chunk
/// (worker thread, or the caller running its own chunk). parallel_* calls
/// made in this state run inline.
bool in_parallel_region() noexcept;

/// The number of chunks parallel_chunks would use for `n_items` right now:
/// min(threads(), n_items), and 1 inside a parallel region. Callers size
/// per-chunk accumulators with this and pass it back to parallel_chunks.
std::size_t plan_chunks(std::size_t n_items);

/// Runs fn(chunk, begin, end) for every chunk c in [0, n_chunks), where
/// [begin, end) is the contiguous slice [c*n/W, (c+1)*n/W) of [0, n_items).
/// Chunk 0 runs on the calling thread; the rest are dispatched to the pool.
/// Blocks until every chunk finished; the first exception thrown by any
/// chunk is rethrown on the caller.
void parallel_chunks(
    std::size_t n_items, std::size_t n_chunks,
    const std::function<void(std::size_t chunk, std::size_t begin,
                             std::size_t end)>& fn);

/// Runs fn(i) for every i in [0, n_items) on plan_chunks(n_items) threads,
/// each claiming the next unclaimed index. Use when per-item work is
/// independent and order-free; the first exception is rethrown.
void parallel_for(std::size_t n_items,
                  const std::function<void(std::size_t i)>& fn);

/// Live pool telemetry for heartbeats and run summaries. All zeros until
/// the first parallel call creates the pool; lifetime counters reset when
/// set_threads() forces a pool rebuild.
struct PoolStats {
  std::size_t workers = 0;
  std::size_t queue_depth = 0;        ///< tasks waiting right now
  std::uint64_t tasks_submitted = 0;  ///< lifetime, this pool instance
  std::uint64_t tasks_completed = 0;  ///< lifetime, this pool instance
};

/// Snapshot of the current pool's counters (cheap; one mutex + two relaxed
/// loads). Safe to call from any thread, including pool workers.
PoolStats pool_stats();

}  // namespace litmus::par
