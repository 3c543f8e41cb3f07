// Deterministic mutation sweeps over the obs parsers that read outside
// bytes: the JSON reader behind diff-runs and profile (and the Chrome trace
// importer on top of it), and the HTTP request-head parser of the serve
// plane. Each seed comes from the repo's own writers; every byte flip
// (three masks), every truncation and 1,000 fixed-seed multi-byte mutants
// must either parse or fail cleanly. This binary runs under ASan+UBSan in
// CI, which turns any out-of-bounds read into a failure.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/chrometrace.h"
#include "obs/events.h"
#include "obs/http.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/metrics.h"
#include "obs/sink.h"

namespace litmus::obs {
namespace {

// Calls `check` on every single-byte XOR with 0x01, 0x80 and 0xFF, every
// proper prefix, and 1,000 mutants with 2-8 random bytes overwritten.
template <typename Check>
void sweep(const std::string& seed, Check check) {
  for (std::size_t i = 0; i < seed.size(); ++i)
    for (const unsigned char mask : {0x01, 0x80, 0xFF}) {
      std::string bytes = seed;
      bytes[i] = static_cast<char>(bytes[i] ^ mask);
      check(bytes);
    }
  for (std::size_t len = 0; len < seed.size(); ++len)
    check(seed.substr(0, len));
  std::mt19937_64 rng(20130209);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string bytes = seed;
    const int edits = 2 + static_cast<int>(rng() % 7);
    for (int k = 0; k < edits; ++k)
      bytes[rng() % bytes.size()] = static_cast<char>(rng());
    check(bytes);
  }
}

struct Tally {
  std::size_t parsed = 0;
  std::size_t failed = 0;
};

// A mutant either parses or fails with a message.
Tally sweep_json(const std::string& seed) {
  Tally t;
  sweep(seed, [&](const std::string& text) {
    std::string error;
    if (parse_json(text, &error)) {
      ++t.parsed;
    } else {
      ++t.failed;
      EXPECT_FALSE(error.empty()) << text;
    }
  });
  return t;
}

std::string metrics_json() {
  Registry reg;
  reg.counter("rank_test.fp.calls").add(40148);
  reg.gauge("litmus.batch.records").set(5000);
  Histogram& h = reg.histogram("stage.rank-test");
  for (const double v : {12.5, 80.0, 3.25e4}) h.record(v);
  RunManifest manifest;
  manifest.tool = "litmus_cli batch";
  manifest.seed = 42;
  std::ostringstream os;
  write_metrics_json(os, reg.snapshot(), &manifest);
  return os.str();
}

std::string run_manifest_json() {
  RunManifest manifest;
  manifest.tool = "litmus_cli assess";
  manifest.seed = 42;
  manifest.add_config("--study", "10");
  manifest.add_input("topology.csv", 4096, 0x0123456789abcdefULL);
  return manifest.to_json();
}

std::string event_line() {
  std::ostringstream os;
  {
    EventLog log(os);
    log.emit(EventType::kElementAssessed, [](JsonWriter& w) {
      w.member("element", std::uint64_t{10})
          .member("kpi", "voice_retainability")
          .member("verdict", "improvement")
          .member("p", 0.0078125);
    });
  }
  std::string line = os.str();
  line.resize(line.find('\n'));
  return line;
}

std::string chrome_trace() {
  const std::vector<SpanRecord> spans = {
      {1, 0, "assess.kpi", 0, 10'000'000, 0},
      {2, 1, "rank-test", 1'000'000, 2'000'000, 0},
      {3, 1, "fit", 3'000'000, 4'000'000, 1}};
  const std::vector<std::pair<std::uint32_t, std::string>> names = {
      {0, "main"}, {1, "pool-1"}};
  std::ostringstream os;
  write_chrome_trace(os, spans, 123456789, names, 2);
  return os.str();
}

TEST(JsonMutation, MetricsJsonMutantsParseOrFail) {
  const std::string seed = metrics_json();
  ASSERT_TRUE(parse_json(seed).has_value());
  const Tally t = sweep_json(seed);
  EXPECT_GT(t.parsed, 0u);
  EXPECT_GT(t.failed, 0u);
}

TEST(JsonMutation, RunManifestMutantsParseOrFail) {
  const std::string seed = run_manifest_json();
  ASSERT_TRUE(parse_json(seed).has_value());
  const Tally t = sweep_json(seed);
  EXPECT_GT(t.parsed, 0u);
  EXPECT_GT(t.failed, 0u);
}

TEST(JsonMutation, EventLineMutantsParseOrFail) {
  const std::string seed = event_line();
  ASSERT_TRUE(parse_json(seed).has_value());
  const Tally t = sweep_json(seed);
  EXPECT_GT(t.parsed, 0u);
  EXPECT_GT(t.failed, 0u);
}

// The trace goes through the importer too: a mutant that is still JSON
// either reads as a trace or is refused with a reason.
TEST(JsonMutation, ChromeTraceMutantsParseOrFail) {
  const std::string seed = chrome_trace();
  const auto doc = parse_json(seed);
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(parse_trace_events(*doc).has_value());
  Tally json, trace;
  sweep(seed, [&](const std::string& text) {
    std::string error;
    const auto v = parse_json(text, &error);
    if (!v) {
      ++json.failed;
      EXPECT_FALSE(error.empty()) << text;
      return;
    }
    ++json.parsed;
    if (parse_trace_events(*v, &error)) {
      ++trace.parsed;
    } else {
      ++trace.failed;
      EXPECT_FALSE(error.empty()) << text;
    }
  });
  EXPECT_GT(json.failed, 0u);
  EXPECT_GT(trace.parsed, 0u);
  EXPECT_GT(trace.failed, 0u);
}

TEST(JsonMutation, HundredNestedArraysAreTooDeep) {
  const std::string text = std::string(100, '[') + std::string(100, ']');
  std::string error;
  EXPECT_FALSE(parse_json(text, &error).has_value());
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
}

// A mutant request head either yields a request line whose three parts
// hold no whitespace, or is refused.
TEST(HttpHeadMutation, GetRequestMutantsParseOrFail) {
  const std::string seed =
      "GET /events?since=3&max=10 HTTP/1.1\r\nHost: 127.0.0.1:8080\r\n"
      "Accept: */*\r\n\r\n";
  const auto req = parse_request_head(seed);
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->path, "/events");
  EXPECT_EQ(req->query, "since=3&max=10");
  const auto clean = [](std::string_view s) {
    return s.find_first_of(" \t\r\n\v\f") == std::string_view::npos;
  };
  Tally t;
  sweep(seed, [&](const std::string& bytes) {
    const auto r = parse_request_head(bytes);
    if (!r) {
      ++t.failed;
      return;
    }
    ++t.parsed;
    EXPECT_FALSE(r->method.empty());
    EXPECT_TRUE(clean(r->method) && clean(r->path) && clean(r->query))
        << bytes;
    EXPECT_EQ(r->path.find('?'), std::string::npos) << bytes;
  });
  EXPECT_GT(t.parsed, 0u);
  EXPECT_GT(t.failed, 0u);
}

}  // namespace
}  // namespace litmus::obs
