#include "obs/events.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

#if defined(__linux__)
#include <unistd.h>
#endif

#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace litmus::obs {
namespace {

std::atomic<EventLog*> g_events{nullptr};
std::atomic<std::uint64_t> g_heartbeat_ns{0};

}  // namespace

void touch_heartbeat() noexcept {
  g_heartbeat_ns.store(now_ns(), std::memory_order_relaxed);
}

std::uint64_t last_heartbeat_ns() noexcept {
  return g_heartbeat_ns.load(std::memory_order_relaxed);
}

std::uint64_t rss_bytes() noexcept {
#if defined(__linux__)
  // /proc/self/statm: size resident shared text lib data dt (pages).
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (!f) return 0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  static const long page = ::sysconf(_SC_PAGESIZE);
  return resident * static_cast<std::uint64_t>(page > 0 ? page : 4096);
#else
  return 0;
#endif
}

const char* to_string(EventType t) noexcept {
  switch (t) {
    case EventType::kRunStart: return "run_start";
    case EventType::kHeartbeat: return "heartbeat";
    case EventType::kElementAssessed: return "element_assessed";
    case EventType::kKpiVerdict: return "kpi_verdict";
    case EventType::kIterationRetry: return "iteration_retry";
    case EventType::kFallbackQr: return "fallback_qr";
    case EventType::kAdaptiveStop: return "adaptive_stop";
    case EventType::kRunEnd: return "run_end";
  }
  return "?";
}

EventLog::EventLog() : out_(nullptr), epoch_ns_(now_ns()) {}

EventLog::EventLog(std::ostream& out) : out_(&out), epoch_ns_(now_ns()) {}

std::unique_ptr<EventLog> EventLog::open(const std::string& path) {
  auto file = std::make_unique<std::ofstream>(open_output_file(path));
  auto log = std::unique_ptr<EventLog>(new EventLog(*file));
  log->owned_ = std::move(file);
  return log;
}

EventLog::~EventLog() { flush(); }

void EventLog::emit(EventType type, const FieldFn& extra) {
  const std::uint64_t now = now_ns();
  const std::uint64_t t_us = (now - epoch_ns_) / 1000;
  const std::uint64_t span = current_span_id();

  // Liveness events double as the /readyz staleness watermark, and carry
  // the live-visibility triple (uptime, resident set, ring drops) so
  // staleness and memory creep are visible both live and post-mortem.
  const bool liveness =
      type == EventType::kRunStart || type == EventType::kHeartbeat;
  if (liveness) g_heartbeat_ns.store(now, std::memory_order_relaxed);

  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream line;
  JsonWriter w(line);
  w.begin_object();
  w.member("v", static_cast<std::int64_t>(kSchemaVersion));
  w.member("seq", seq_);
  w.member("t_us", t_us);
  if (span != 0) w.member("span", span);
  w.member("type", to_string(type));
  if (extra) extra(w);
  if (liveness) {
    w.member("uptime_ms", t_us / 1000);
    w.member("rss_bytes", rss_bytes());
    w.member("events.dropped", ring_dropped_);
  }
  w.end_object();

  ring_.emplace_back(seq_, line.str());
  while (ring_.size() > kRingCapacity) {
    ring_.pop_front();
    ++ring_dropped_;
  }
  ++seq_;
  if (!out_) return;

  buffer_ += ring_.back().second;
  buffer_ += '\n';
  const bool eager = liveness || type == EventType::kRunEnd;
  if (eager || buffer_.size() >= kFlushBytes) flush_locked();
}

void EventLog::progress(std::string_view stage, std::uint64_t done,
                        std::uint64_t total, std::uint64_t every,
                        const FieldFn& extra) {
  // Every call — including throttled ones — refreshes the liveness
  // watermark and the /status progress snapshot: a stalled readiness
  // probe must mean stalled *work*, not an unlucky modulus.
  touch_heartbeat();
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Concurrent tasks report out of order: keep one stage's largest count.
    const bool same = progress_.stage == stage && progress_.total == total;
    progress_.stage.assign(stage.data(), stage.size());
    progress_.done = same ? std::max(progress_.done, done) : done;
    progress_.total = total;
  }
  if (every == 0) every = 1;
  if (done % every != 0 && done != total) return;
  const std::string stage_copy(stage);
  emit(EventType::kHeartbeat, [&](JsonWriter& w) {
    w.member("stage", stage_copy)
        .member("done", done)
        .member("total", total);
    if (extra) extra(w);
  });
}

void EventLog::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  flush_locked();
}

void EventLog::flush_locked() {
  if (buffer_.empty() || !out_) return;
  out_->write(buffer_.data(),
              static_cast<std::streamsize>(buffer_.size()));
  out_->flush();
  buffer_.clear();
}

std::uint64_t EventLog::events_written() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_;
}

EventTail EventLog::tail(std::uint64_t since, std::size_t max_lines) const {
  EventTail out;
  std::lock_guard<std::mutex> lock(mu_);
  out.dropped = ring_dropped_;
  out.next_seq = since;
  bool first = true;
  for (const auto& [seq, line] : ring_) {
    if (seq < since) continue;
    if (out.lines.size() >= max_lines) break;
    if (first) {
      out.first_seq = seq;
      first = false;
    }
    out.lines.push_back(line);
    out.next_seq = seq + 1;
  }
  if (first) out.first_seq = out.next_seq;
  return out;
}

std::uint64_t EventLog::ring_dropped() const noexcept {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_dropped_;
}

ProgressSnapshot EventLog::last_progress() const {
  std::lock_guard<std::mutex> lock(mu_);
  return progress_;
}

EventLog* events() noexcept {
  return g_events.load(std::memory_order_relaxed);
}

void set_events(EventLog* log) noexcept {
  g_events.store(log, std::memory_order_release);
}

}  // namespace litmus::obs
