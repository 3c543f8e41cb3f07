// Tests for the structured JSONL event log: line validity, the
// run_start..run_end bracket, gapless monotonic sequence numbers under a
// concurrent hammer from the worker pool, heartbeat cadence, and span-id
// correlation with the tracer.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/pool.h"

namespace litmus::obs {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) out.push_back(line);
  return out;
}

JsonValue parse_line(const std::string& line) {
  std::string error;
  auto v = parse_json(line, &error);
  EXPECT_TRUE(v.has_value()) << error << " in: " << line;
  return v ? *v : JsonValue{};
}

TEST(EventLogTest, EveryLineParsesAndCarriesSchemaFields) {
  std::ostringstream os;
  {
    EventLog log(os);
    log.emit(EventType::kRunStart, [](JsonWriter& w) {
      w.member("tool", "test");
    });
    log.emit(EventType::kElementAssessed, [](JsonWriter& w) {
      w.member("kpi", "voice_retainability").member("verdict", "no_impact");
    });
    log.emit(EventType::kRunEnd);
  }
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const JsonValue v = parse_line(lines[i]);
    ASSERT_TRUE(v.is_object());
    EXPECT_EQ(v.member_number("v", -1), 1.0);
    EXPECT_EQ(v.member_number("seq", -1), static_cast<double>(i));
    EXPECT_GE(v.member_number("t_us", -1), 0.0);
    EXPECT_NE(v.member_string("type", ""), "");
  }
  EXPECT_EQ(parse_line(lines.front()).member_string("type", ""), "run_start");
  EXPECT_EQ(parse_line(lines.back()).member_string("type", ""), "run_end");
}

TEST(EventLogTest, ConcurrentEmissionNeverTearsLinesAndSeqIsGapless) {
  std::ostringstream os;
  constexpr std::size_t kTasks = 64;
  constexpr int kPerTask = 50;
  {
    EventLog log(os);
    set_events(&log);
    par::set_threads(4);
    par::parallel_for(kTasks, [&](std::size_t i) {
      for (int j = 0; j < kPerTask; ++j) {
        if (auto* ev = events())
          ev->emit(EventType::kKpiVerdict, [&](JsonWriter& w) {
            w.member("task", static_cast<std::uint64_t>(i))
                .member("j", static_cast<std::int64_t>(j))
                .member("pad", "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx");
          });
      }
    });
    par::set_threads(1);
    set_events(nullptr);
    EXPECT_EQ(log.events_written(), kTasks * kPerTask);
  }
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), kTasks * kPerTask);
  std::set<std::uint64_t> seqs;
  for (const std::string& line : lines) {
    const JsonValue v = parse_line(line);  // a torn line would not parse
    ASSERT_TRUE(v.is_object());
    seqs.insert(static_cast<std::uint64_t>(v.member_number("seq", -1)));
  }
  // Gapless: exactly 0..N-1, each exactly once.
  ASSERT_EQ(seqs.size(), lines.size());
  EXPECT_EQ(*seqs.begin(), 0u);
  EXPECT_EQ(*seqs.rbegin(), lines.size() - 1);
  // Monotonic in file order: seq of line i is exactly i (single mutex
  // orders seq assignment and buffer append together).
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(parse_line(lines[i]).member_number("seq", -1),
              static_cast<double>(i));
}

TEST(EventLogTest, ProgressEmitsAtCadenceAndAtCompletion) {
  std::ostringstream os;
  {
    EventLog log(os);
    for (std::uint64_t done = 1; done <= 100; ++done)
      log.progress("batch", done, 100, /*every=*/16);
  }
  const auto lines = lines_of(os.str());
  // Multiples of 16 (16,32,48,64,80,96) plus done == total.
  ASSERT_EQ(lines.size(), 7u);
  const JsonValue last = parse_line(lines.back());
  EXPECT_EQ(last.member_string("type", ""), "heartbeat");
  EXPECT_EQ(last.member_string("stage", ""), "batch");
  EXPECT_EQ(last.member_number("done", -1), 100.0);
  EXPECT_EQ(last.member_number("total", -1), 100.0);
}

TEST(EventLogTest, EventsCarryTheCurrentTraceSpanId) {
  std::ostringstream os;
  set_enabled(true);
  Tracer::global().start();
  {
    EventLog log(os);
    log.emit(EventType::kHeartbeat);  // no active span -> no "span" field
    {
      ScopedSpan span("unit-test");
      log.emit(EventType::kKpiVerdict);
    }
  }
  Tracer::global().stop();
  set_enabled(false);
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue no_span = parse_line(lines[0]);
  EXPECT_EQ(no_span.find("span"), nullptr);
  const JsonValue with_span = parse_line(lines[1]);
  const JsonValue* span = with_span.find("span");
  ASSERT_NE(span, nullptr);
  EXPECT_GT(span->number, 0.0);
}

TEST(EventLogTest, HeartbeatsCarryUptimeRssAndDropCounters) {
  std::ostringstream os;
  {
    EventLog log(os);
    log.emit(EventType::kHeartbeat,
             [](JsonWriter& w) { w.member("stage", "x"); });
    log.emit(EventType::kElementAssessed);  // not a liveness event
  }
  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue hb = parse_line(lines[0]);
  EXPECT_NE(hb.find("uptime_ms"), nullptr);
  EXPECT_GE(hb.member_number("uptime_ms", -1), 0.0);
  ASSERT_NE(hb.find("rss_bytes"), nullptr);
#if defined(__linux__)
  EXPECT_GT(hb.member_number("rss_bytes", 0), 0.0);
#endif
  EXPECT_EQ(hb.member_number("events.dropped", -1), 0.0);
  // Enrichment is liveness-only: ordinary events stay lean.
  const JsonValue other = parse_line(lines[1]);
  EXPECT_EQ(other.find("uptime_ms"), nullptr);
  EXPECT_EQ(other.find("rss_bytes"), nullptr);
}

TEST(EventLogTest, LivenessEventsTouchTheHeartbeatWatermark) {
  std::ostringstream os;
  EventLog log(os);
  const std::uint64_t before = last_heartbeat_ns();
  log.emit(EventType::kHeartbeat);
  const std::uint64_t after = last_heartbeat_ns();
  EXPECT_GT(after, 0u);
  EXPECT_GE(after, before);
  // Throttled progress calls still count as signs of life.
  const std::uint64_t t0 = last_heartbeat_ns();
  log.progress("stage", 1, 1000, /*every=*/1 << 30);  // never emits a line
  EXPECT_GE(last_heartbeat_ns(), t0);
}

TEST(EventLogTest, RingRetainsRecentEventsAndCountsDrops) {
  EventLog log;  // ring-only: no stream, nothing written anywhere
  const std::size_t total = EventLog::kRingCapacity + 40;
  for (std::size_t i = 0; i < total; ++i)
    log.emit(EventType::kKpiVerdict, [&](JsonWriter& w) {
      w.member("i", static_cast<std::uint64_t>(i));
    });
  EXPECT_EQ(log.events_written(), total);
  EXPECT_EQ(log.ring_dropped(), 40u);

  const EventTail all = log.tail();
  EXPECT_EQ(all.dropped, 40u);
  EXPECT_EQ(all.first_seq, 40u);  // oldest retained
  EXPECT_EQ(all.lines.size(), 256u);  // default page bound
  EXPECT_EQ(parse_line(all.lines.front()).member_number("seq", -1), 40.0);

  // Paging: since cursor and max bound are honored, and next_seq chains.
  const EventTail page = log.tail(/*since=*/total - 3, /*max_lines=*/2);
  EXPECT_EQ(page.first_seq, total - 3);
  EXPECT_EQ(page.next_seq, total - 1);
  ASSERT_EQ(page.lines.size(), 2u);
  const EventTail rest = log.tail(page.next_seq);
  ASSERT_EQ(rest.lines.size(), 1u);
  EXPECT_EQ(rest.next_seq, total);

  // A since cursor in the dropped range starts at the oldest retained.
  EXPECT_EQ(log.tail(/*since=*/5).first_seq, 40u);
  // A cursor past the end returns an empty page, not an error.
  EXPECT_TRUE(log.tail(total + 10).lines.empty());
}

TEST(EventLogTest, LastProgressSnapshotIncludesThrottledCalls) {
  EventLog log;
  EXPECT_EQ(log.last_progress().total, 0u);  // none yet
  log.progress("batch", 3, 500, /*every=*/1 << 30);  // throttled
  const ProgressSnapshot p = log.last_progress();
  EXPECT_EQ(p.stage, "batch");
  EXPECT_EQ(p.done, 3u);
  EXPECT_EQ(p.total, 500u);
}

TEST(EventLogTest, ProgressSnapshotNeverMovesBackwards) {
  // Record tasks fetch their completion count in one order and report it
  // in another: a late, smaller count must not roll /status back.
  EventLog log;
  log.progress("batch", 7, 500, /*every=*/1 << 30);
  log.progress("batch", 6, 500, /*every=*/1 << 30);
  EXPECT_EQ(log.last_progress().done, 7u);
  // A new stage starts its own count.
  log.progress("monitor", 2, 10, /*every=*/1 << 30);
  const ProgressSnapshot p = log.last_progress();
  EXPECT_EQ(p.stage, "monitor");
  EXPECT_EQ(p.done, 2u);
  EXPECT_EQ(p.total, 10u);
}

TEST(EventLogTest, RssBytesReportsThisProcessOnLinux) {
#if defined(__linux__)
  EXPECT_GT(rss_bytes(), 0u);
#else
  SUCCEED();
#endif
}

}  // namespace
}  // namespace litmus::obs
