// Tests for the profiling substrate: span ring wrap/drop accounting, the
// thread-name registry, cross-thread span parentage through the worker
// pool, the Chrome-trace write/parse round trip, and trace summarization.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrometrace.h"
#include "obs/json.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "parallel/pool.h"

namespace litmus::obs {
namespace {

TEST(SpanRingSetTest, WrapOverwritesOldestAndCountsDrops) {
  SpanRingSet rings(/*capacity_per_thread=*/8);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    SpanRecord rec;
    rec.id = i;
    rec.name = "wrap";
    rec.start_ns = i * 100;
    rings.append(rec);
  }
  const auto drain = rings.collect();
  EXPECT_EQ(drain.dropped, 12u);  // 20 appended into 8 slots
  ASSERT_EQ(drain.spans.size(), 8u);
  // The ring keeps the most recent window, oldest first.
  for (std::size_t i = 0; i < drain.spans.size(); ++i)
    EXPECT_EQ(drain.spans[i].id, 13u + i);

  rings.clear();
  const auto empty = rings.collect();
  EXPECT_EQ(empty.spans.size(), 0u);
  EXPECT_EQ(empty.dropped, 0u);
}

TEST(SpanRingSetTest, CollectIsNonConsuming) {
  SpanRingSet rings(8);
  SpanRecord rec;
  rec.id = 1;
  rec.name = "once";
  rings.append(rec);
  EXPECT_EQ(rings.collect().spans.size(), 1u);
  EXPECT_EQ(rings.collect().spans.size(), 1u);  // still there
}

TEST(ProfileTest, TracerReportsDropsFromTinyRing) {
  Tracer tracer(/*ring_capacity=*/4);
  tracer.start();
  for (int i = 0; i < 10; ++i) ScopedSpan span("tiny", tracer);
  tracer.stop();
  EXPECT_EQ(tracer.spans().size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
}

TEST(ProfileTest, ThreadNameRegistryTracksAndReplaces) {
  set_thread_name("profile-test-main");
  std::uint32_t other_index = 0;
  std::thread t([&] {
    other_index = thread_index();
    set_thread_name("profile-test-helper");
  });
  t.join();

  auto index_of = [](const std::string& want) -> std::int64_t {
    for (const auto& [index, name] : thread_names())
      if (name == want) return index;
    return -1;
  };
  EXPECT_EQ(index_of("profile-test-main"), thread_index());
  EXPECT_EQ(index_of("profile-test-helper"), other_index);
  EXPECT_NE(index_of("profile-test-main"), index_of("profile-test-helper"));

  set_thread_name("profile-test-renamed");  // replaces, never duplicates
  EXPECT_EQ(index_of("profile-test-main"), -1);
  EXPECT_EQ(index_of("profile-test-renamed"), thread_index());
}

// Satellite of the cross-thread profiling layer: spans recorded on pool
// workers must nest under the span that submitted the work, carry unique
// ids, and never interleave within a thread (RAII stack discipline).
TEST(ProfileTest, PoolWorkerSpansNestUnderSubmittingSpan) {
  par::set_threads(4);
  Tracer tracer;
  tracer.start();
  std::uint64_t submit_id = 0;
  {
    ScopedSpan submit("hammer.submit", tracer);
    submit_id = current_span_id();
    ASSERT_NE(submit_id, 0u);
    for (int round = 0; round < 25; ++round) {
      par::parallel_for(64, [&](std::size_t) {
        ScopedSpan item("hammer.item", tracer);
        volatile unsigned sink = 0;
        for (unsigned k = 0; k < 50; ++k) sink = sink + k;
      });
    }
  }
  tracer.stop();
  const std::vector<SpanRecord> spans = tracer.spans();
  par::set_threads(0);
  EXPECT_EQ(tracer.dropped(), 0u);

  std::set<std::uint64_t> ids;
  std::set<std::uint32_t> threads_seen;
  std::size_t items = 0;
  for (const SpanRecord& s : spans) {
    EXPECT_TRUE(ids.insert(s.id).second) << "duplicate span id " << s.id;
    threads_seen.insert(s.thread);
    if (std::string(s.name) == "hammer.item") {
      ++items;
      // Every worker-side span hangs off the submitting span, even though
      // it ran on a different thread with its own parent chain.
      EXPECT_EQ(s.parent, submit_id);
    } else {
      ASSERT_STREQ(s.name, "hammer.submit");
      EXPECT_EQ(s.parent, 0u);
      EXPECT_EQ(s.id, submit_id);
    }
  }
  EXPECT_EQ(items, 25u * 64u);
  // 64 items across 4 chunks: the caller runs chunk 0 and workers the
  // rest, so spans must land on more than one thread.
  EXPECT_GE(threads_seen.size(), 2u);

  // Within a thread spans obey stack discipline: any two either nest or
  // are disjoint — partial overlap would mean interleaved open/close.
  for (const std::uint32_t tid : threads_seen) {
    std::vector<const SpanRecord*> mine;
    for (const SpanRecord& s : spans)
      if (s.thread == tid) mine.push_back(&s);  // already start-sorted
    for (std::size_t i = 0; i < mine.size(); ++i) {
      const std::uint64_t a_end = mine[i]->start_ns + mine[i]->duration_ns;
      for (std::size_t j = i + 1; j < mine.size(); ++j) {
        if (mine[j]->start_ns >= a_end) break;  // disjoint from here on
        EXPECT_LE(mine[j]->start_ns + mine[j]->duration_ns, a_end)
            << "spans " << mine[i]->id << " and " << mine[j]->id
            << " partially overlap on thread " << tid;
      }
    }
  }
}

TEST(ProfileTest, SampledModeThinsDeterministically) {
  Tracer tracer;
  TraceConfig config;
  config.sample_every = 4;
  tracer.start(config);
  for (int i = 0; i < 100; ++i) ScopedSpan span("sampled", tracer);
  tracer.stop();
  // The per-thread tick keeps exactly 1 in 4 of 100 consecutive opens,
  // whatever phase the counter started at.
  EXPECT_EQ(tracer.spans().size(), 25u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ChromeTraceTest, WriteParseRoundTripPreservesSpans) {
  std::vector<SpanRecord> spans(3);
  spans[0] = {/*id=*/1, /*parent=*/0, "outer", /*start_ns=*/0,
              /*duration_ns=*/10'000'000, /*thread=*/0};
  spans[1] = {2, 1, "inner", 1'000'000, 2'000'000, 0};
  spans[2] = {3, 1, "task", 3'000'000, 4'000'000, 1};
  const std::vector<std::pair<std::uint32_t, std::string>> names = {
      {0, "main"}, {1, "worker"}};

  std::ostringstream os;
  write_chrome_trace(os, spans, /*epoch_ns=*/123456789, names,
                     /*dropped_spans=*/7);

  std::string error;
  const auto doc = parse_json(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const auto parsed = parse_trace_events(*doc, &error);
  ASSERT_TRUE(parsed.has_value()) << error;

  ASSERT_EQ(parsed->events.size(), 3u);
  ASSERT_EQ(parsed->thread_names.size(), 2u);
  EXPECT_EQ(parsed->thread_names[0].second, "main");
  EXPECT_EQ(parsed->thread_names[1].second, "worker");

  // Events come back start-sorted with ids, parents, and µs timing intact.
  const TraceEvent& outer = parsed->events[0];
  EXPECT_EQ(outer.name, "outer");
  EXPECT_EQ(outer.id, 1u);
  EXPECT_EQ(outer.parent, 0u);
  EXPECT_DOUBLE_EQ(outer.start_us, 0.0);
  EXPECT_DOUBLE_EQ(outer.duration_us, 10'000.0);
  const TraceEvent& inner = parsed->events[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.parent, 1u);
  EXPECT_EQ(inner.thread, 0u);
  const TraceEvent& task = parsed->events[2];
  EXPECT_EQ(task.name, "task");
  EXPECT_EQ(task.parent, 1u);
  EXPECT_EQ(task.thread, 1u);

  // otherData makes the file self-describing.
  const JsonValue* other = doc->find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->member_number("dropped_spans", -1), 7.0);
  EXPECT_EQ(other->member_number("span_count", -1), 3.0);

  // The retired {"spans":[...]} span-list document is not a trace.
  const auto legacy = parse_json(
      R"({"epoch_ns":0,"span_count":1,"spans":[{"id":1,"parent":0,)"
      R"("name":"outer","thread":0,"start_us":0,"duration_us":10}]})",
      &error);
  ASSERT_TRUE(legacy.has_value()) << error;
  error.clear();
  EXPECT_FALSE(parse_trace_events(*legacy, &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ProfileTest, SummarizeTraceComputesExactQuantiles) {
  std::vector<TraceEvent> events;
  auto add = [&](const char* name, double start, double dur) {
    TraceEvent e;
    e.name = name;
    e.start_us = start;
    e.duration_us = dur;
    events.push_back(e);
  };
  add("a", 0, 10);
  add("a", 10, 20);
  add("a", 30, 30);
  add("b", 0, 60);

  const ProfileReport report = summarize_trace(events, /*top_n=*/2);
  EXPECT_EQ(report.span_count, 4u);
  EXPECT_DOUBLE_EQ(report.wall_us, 60.0);

  ASSERT_EQ(report.stages.size(), 2u);
  // Equal totals tie-break by name, so "a" sorts first.
  const StageRow& a = report.stages[0];
  EXPECT_EQ(a.name, "a");
  EXPECT_EQ(a.count, 3u);
  EXPECT_DOUBLE_EQ(a.total_us, 60.0);
  EXPECT_DOUBLE_EQ(a.p50_us, 20.0);  // nearest-rank over {10,20,30}
  EXPECT_DOUBLE_EQ(a.p99_us, 30.0);
  EXPECT_DOUBLE_EQ(a.max_us, 30.0);
  EXPECT_DOUBLE_EQ(a.pct_wall, 100.0);
  EXPECT_EQ(report.stages[1].name, "b");

  ASSERT_EQ(report.slowest.size(), 2u);  // top_n caps the list
  EXPECT_EQ(report.slowest[0].name, "b");
  EXPECT_DOUBLE_EQ(report.slowest[0].duration_us, 60.0);
  EXPECT_EQ(report.slowest[1].name, "a");
  EXPECT_DOUBLE_EQ(report.slowest[1].duration_us, 30.0);

  const std::string table = format_profile_report(report);
  EXPECT_NE(table.find("stage"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
  EXPECT_NE(table.find("slowest spans:"), std::string::npos);
}

TEST(ProfileTest, SummarizeEmptyTraceIsZeroed) {
  const ProfileReport report = summarize_trace({});
  EXPECT_EQ(report.span_count, 0u);
  EXPECT_EQ(report.stages.size(), 0u);
  EXPECT_NE(format_profile_report(report).find("0 span(s)"),
            std::string::npos);
}

}  // namespace
}  // namespace litmus::obs
