#include "obs/chrometrace.h"

#include <algorithm>
#include <map>

#include "obs/json.h"
#include "obs/manifest.h"

namespace litmus::obs {
namespace {

constexpr std::uint64_t kPid = 1;  ///< single-process tool; fixed pid

double to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

void write_metadata_event(JsonWriter& w, const char* what, std::uint64_t tid,
                          std::string_view name) {
  w.begin_object();
  w.member("name", what);
  w.member("ph", "M");
  w.member("pid", kPid);
  w.member("tid", tid);
  w.key("args").begin_object();
  w.member("name", name);
  w.end_object();
  w.end_object();
}

void write_begin_event(JsonWriter& w, const SpanRecord& s) {
  w.begin_object();
  w.member("name", s.name);
  w.member("cat", "litmus");
  w.member("ph", "B");
  w.member("ts", to_us(s.start_ns));
  w.member("pid", kPid);
  w.member("tid", static_cast<std::uint64_t>(s.thread));
  w.key("args").begin_object();
  w.member("id", s.id);
  w.member("parent", s.parent);
  w.end_object();
  w.end_object();
}

void write_end_event(JsonWriter& w, const SpanRecord& s) {
  w.begin_object();
  w.member("name", s.name);
  w.member("ph", "E");
  w.member("ts", to_us(s.start_ns + s.duration_ns));
  w.member("pid", kPid);
  w.member("tid", static_cast<std::uint64_t>(s.thread));
  w.end_object();
}

}  // namespace

void write_chrome_trace(
    std::ostream& out, std::span<const SpanRecord> spans,
    std::uint64_t epoch_ns,
    std::span<const std::pair<std::uint32_t, std::string>> thread_names,
    std::uint64_t dropped_spans, const RunManifest* manifest) {
  JsonWriter w(out);
  w.begin_object();
  w.key("traceEvents").begin_array();

  write_metadata_event(w, "process_name", 0, "litmus");
  for (const auto& [tid, name] : thread_names)
    write_metadata_event(w, "thread_name", tid, name);

  // Group spans per thread; RAII recording guarantees the spans of one
  // thread form a laminar family (nested or disjoint, never partially
  // overlapping), so sorting by (start asc, duration desc) and closing
  // everything that ends at-or-before the next start yields matched B/E
  // pairs in non-decreasing timestamp order per thread.
  std::map<std::uint32_t, std::vector<const SpanRecord*>> per_thread;
  for (const SpanRecord& s : spans) per_thread[s.thread].push_back(&s);

  for (auto& [tid, list] : per_thread) {
    std::sort(list.begin(), list.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                if (a->start_ns != b->start_ns)
                  return a->start_ns < b->start_ns;
                if (a->duration_ns != b->duration_ns)
                  return a->duration_ns > b->duration_ns;
                return a->id < b->id;
              });
    std::vector<const SpanRecord*> stack;
    for (const SpanRecord* s : list) {
      while (!stack.empty() &&
             stack.back()->start_ns + stack.back()->duration_ns <=
                 s->start_ns) {
        write_end_event(w, *stack.back());
        stack.pop_back();
      }
      write_begin_event(w, *s);
      stack.push_back(s);
    }
    while (!stack.empty()) {
      write_end_event(w, *stack.back());
      stack.pop_back();
    }
  }

  w.end_array();
  w.member("displayTimeUnit", "ms");
  w.key("otherData").begin_object();
  w.member("epoch_ns", epoch_ns);
  w.member("span_count", static_cast<std::uint64_t>(spans.size()));
  w.member("dropped_spans", dropped_spans);
  if (manifest) {
    w.key("manifest");
    manifest->write(w);
  }
  w.end_object();
  w.end_object();
  out << "\n";
}

namespace {

// One partially-matched B event while scanning a thread's event stream.
struct OpenSpan {
  TraceEvent event;
};

bool parse_chrome_events(const JsonValue& events, ParsedTrace& out,
                         std::string* error) {
  std::map<std::uint64_t, std::vector<OpenSpan>> stacks;
  for (const JsonValue& e : events.array) {
    if (!e.is_object()) continue;
    const std::string ph = e.member_string("ph", "");
    const auto tid = static_cast<std::uint64_t>(e.member_number("tid", 0));
    if (ph == "M") {
      if (e.member_string("name", "") == "thread_name") {
        if (const JsonValue* args = e.find("args"))
          out.thread_names.emplace_back(static_cast<std::uint32_t>(tid),
                                        args->member_string("name", ""));
      }
      continue;
    }
    if (ph == "X") {
      TraceEvent ev;
      ev.name = e.member_string("name", "");
      ev.thread = static_cast<std::uint32_t>(tid);
      ev.start_us = e.member_number("ts", 0.0);
      ev.duration_us = e.member_number("dur", 0.0);
      out.events.push_back(std::move(ev));
      continue;
    }
    if (ph == "B") {
      OpenSpan open;
      open.event.name = e.member_string("name", "");
      open.event.thread = static_cast<std::uint32_t>(tid);
      open.event.start_us = e.member_number("ts", 0.0);
      if (const JsonValue* args = e.find("args")) {
        open.event.id =
            static_cast<std::uint64_t>(args->member_number("id", 0));
        open.event.parent =
            static_cast<std::uint64_t>(args->member_number("parent", 0));
      }
      stacks[tid].push_back(std::move(open));
      continue;
    }
    if (ph == "E") {
      auto& stack = stacks[tid];
      if (stack.empty()) {
        if (error)
          *error = "unmatched E event for tid " + std::to_string(tid);
        return false;
      }
      TraceEvent ev = std::move(stack.back().event);
      stack.pop_back();
      const double end = e.member_number("ts", ev.start_us);
      ev.duration_us = end > ev.start_us ? end - ev.start_us : 0.0;
      out.events.push_back(std::move(ev));
      continue;
    }
    // Other phases (counters, flows, instants) are not summarizable
    // duration data; skip them.
  }
  // Tolerate a truncated trace: close dangling B events with zero duration
  // rather than rejecting the whole file.
  for (auto& [tid, stack] : stacks)
    for (OpenSpan& open : stack) out.events.push_back(std::move(open.event));
  return true;
}

}  // namespace

std::optional<ParsedTrace> parse_trace_events(const JsonValue& doc,
                                              std::string* error) {
  ParsedTrace out;
  // Chrome JSON Object Format: {"traceEvents":[...]} — or the bare JSON
  // Array Format some producers emit.
  const JsonValue* events =
      doc.is_array() ? &doc : doc.is_object() ? doc.find("traceEvents") : nullptr;
  if (events != nullptr && events->is_array()) {
    if (!parse_chrome_events(*events, out, error)) return std::nullopt;
    std::sort(out.events.begin(), out.events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                if (a.start_us != b.start_us) return a.start_us < b.start_us;
                return a.duration_us > b.duration_us;
              });
    return out;
  }
  if (error) *error = "document has no traceEvents array";
  return std::nullopt;
}

}  // namespace litmus::obs
