// RAII trace spans forming a hierarchical, cross-thread trace tree.
//
// A ScopedSpan measures the wall time of a scope. On destruction it
//   * appends a SpanRecord (id, parent id, name, start, duration, thread)
//     to the Tracer when the Tracer is collecting, and
//   * records the duration into the `stage.<name>` histogram of the global
//     Registry when metrics are enabled (obs::enabled()),
// so every instrumented stage yields both an event on the trace timeline
// and a latency distribution. Completed spans land in per-thread lock-free
// ring buffers (obs/profile.h): the close path is wait-free, and a full
// ring drops its oldest spans (counted via Tracer::dropped()) instead of
// blocking the pipeline.
//
// Parentage is tracked per thread: spans nest within the same thread, and
// a span opened on a fresh thread is a root — unless the submitting span's
// id is carried across with SpanParentGuard, which is what the worker pool
// does so a worker's spans nest under the span that submitted the task.
//
// When neither metrics nor tracing is active the constructor is a couple
// of relaxed loads and the destructor a branch.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace litmus::obs {

/// Innermost span currently open on the calling thread, 0 when none (or
/// when tracing is off — span ids are only assigned while collecting).
/// Event records (obs/events.h) carry this id so a JSONL event can be
/// located on the --profile-json timeline.
std::uint64_t current_span_id() noexcept;

struct TraceConfig {
  /// Keep one span in this many, per recording thread; 1 (or 0) records
  /// every span. Children of a skipped span chain to their grandparent —
  /// the timeline thins but never dangles.
  std::uint32_t sample_every = 1;
};

/// Collects completed spans into per-thread rings. start() rewinds the
/// rings and anchors the epoch; collection is off by default. start() and
/// stop() are session boundaries: callers must not race them against
/// in-flight spans (a straggler span is recorded harmlessly but may land
/// in the next session's window).
class Tracer {
 public:
  explicit Tracer(
      std::size_t ring_capacity = SpanRingSet::kDefaultCapacity);

  void start() { start(TraceConfig{}); }
  void start(const TraceConfig& config);
  void stop();
  bool collecting() const noexcept {
    return collecting_.load(std::memory_order_relaxed);
  }

  /// Sampling gate, one decision per span open; always true when every
  /// span is recorded.
  bool sample() noexcept;

  /// Time-sorted snapshot of every recorded span. Safe to call while
  /// collection is live (mid-write ring slots are skipped).
  std::vector<SpanRecord> spans() const;

  /// Spans lost to ring wrap-around or thread-count overflow since the
  /// last start().
  std::uint64_t dropped() const;

  std::uint64_t epoch_ns() const noexcept { return epoch_ns_; }

  std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void add(const SpanRecord& span) { rings_.append(span); }

  static Tracer& global();

 private:
  std::atomic<bool> collecting_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::uint64_t epoch_ns_ = 0;
  TraceConfig config_;
  SpanRingSet rings_;
};

/// Installs `span_id` as the calling thread's current span for the guard's
/// lifetime, restoring the previous chain on destruction. The worker pool
/// wraps each task in one of these with the submitter's span id, which is
/// what makes worker-side spans children of the span that enqueued the
/// work instead of disconnected roots.
class SpanParentGuard {
 public:
  explicit SpanParentGuard(std::uint64_t span_id) noexcept;
  ~SpanParentGuard();

  SpanParentGuard(const SpanParentGuard&) = delete;
  SpanParentGuard& operator=(const SpanParentGuard&) = delete;

 private:
  std::uint64_t saved_ = 0;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, Tracer& tracer = Tracer::global());
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = "";
  Tracer* tracer_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  bool metrics_ = false;
  bool tracing_ = false;
};

}  // namespace litmus::obs
