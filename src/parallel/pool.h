// Bounded thread pool and the one fan-out for the Litmus hot paths.
//
// Design rules, all in service of the determinism contract (DESIGN.md §8):
//   * parallel_for hands out indices dynamically from a shared cursor, so
//     a slow item never stalls the ones behind it; its callers write only
//     per-index slots, so the claim order never reaches a result.
//   * Nested parallelism runs inline: a parallel_for issued from inside
//     a claimed item executes sequentially on the calling thread. The
//     outermost multi-item fan-out (change records, else study elements)
//     wins, and pool tasks never block on other pool tasks, so the pool
//     cannot deadlock. A single-item loop (e.g. one study element) claims
//     no region.
//   * Thread count resolution: set_threads(n) (e.g. litmus_cli --threads)
//     wins, else std::thread::hardware_concurrency(). The pool itself is
//     lazily created on first parallel call and rebuilt if the count
//     changes.
//
// Per-thread scratch is not the pool's business: each hot function keeps
// its buffers in a function-local thread_local struct of its own, so no
// two modules can share (or collide on) a buffer.
#pragma once

#include <cstddef>
#include <functional>

namespace litmus::par {

/// std::thread::hardware_concurrency(), clamped to at least 1.
std::size_t hardware_threads() noexcept;

/// Overrides the worker count for subsequent parallel work; 0 means
/// hardware_threads(). Not safe to call concurrently with in-flight
/// parallel_for work.
void set_threads(std::size_t n) noexcept;

/// The resolved worker count the next parallel call will use.
std::size_t threads();

/// True while the calling thread is executing inside a parallel_for
/// (worker thread, or the caller running its own claim loop). parallel_for
/// calls made in this state run inline.
bool in_parallel_region() noexcept;

/// Runs fn(i) for every i in [0, n_items) on min(threads(), n_items)
/// threads, each claiming the next unclaimed index: the caller runs one
/// claim loop and the pool the other min(threads(), n_items) - 1. Runs
/// inline when that is one thread or when called inside a parallel
/// region. Use when per-item work is independent and order-free; blocks
/// until every item finished, and the first exception is rethrown.
void parallel_for(std::size_t n_items,
                  const std::function<void(std::size_t i)>& fn);

}  // namespace litmus::par
