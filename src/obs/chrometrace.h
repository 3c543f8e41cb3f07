// Chrome/Perfetto trace_event export and import.
//
// write_chrome_trace emits the trace_event "JSON Object Format": a
// traceEvents array of duration events (ph "B"/"E" pairs with microsecond
// timestamps relative to the tracer epoch) plus process/thread metadata
// events (ph "M") naming every registered thread, loadable directly in
// chrome://tracing and ui.perfetto.dev. Events are emitted per thread in
// stack order (every span closes before anything that starts after it
// ends), so any conformant viewer reconstructs the nesting the RAII spans
// had at record time; the span id and parent-span id travel in each B
// event's args, which is how cross-thread parent edges survive the round
// trip through the file.
//
// parse_trace_events is the import half behind `litmus_cli profile`: it
// accepts this writer's B/E format and "X" (complete) events from other
// producers.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/profile.h"

namespace litmus::obs {

struct JsonValue;
struct RunManifest;

/// Writes `spans` (time-sorted or not; the writer sorts per thread) as
/// {"traceEvents":[...],"displayTimeUnit":"ms","otherData":{...}}.
/// dropped_spans and the optional manifest are recorded in otherData so a
/// truncated or foreign trace is self-describing.
void write_chrome_trace(
    std::ostream& out, std::span<const SpanRecord> spans,
    std::uint64_t epoch_ns,
    std::span<const std::pair<std::uint32_t, std::string>> thread_names,
    std::uint64_t dropped_spans = 0, const RunManifest* manifest = nullptr);

struct ParsedTrace {
  std::vector<TraceEvent> events;
  std::vector<std::pair<std::uint32_t, std::string>> thread_names;
};

/// Parses a Chrome trace document (traceEvents object or bare array) back
/// into events. Returns nullopt on a document that is not a recognizable
/// trace, with a reason in `error`.
std::optional<ParsedTrace> parse_trace_events(const JsonValue& doc,
                                              std::string* error = nullptr);

}  // namespace litmus::obs
