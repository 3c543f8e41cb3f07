// JSON export sinks for the obs metrics registry and trace tree: the
// shapes litmus_cli's --metrics-json and --trace-json flags write and the
// CI perf artifact consumes.
//
// Histogram quantiles are reported in the units they were recorded in
// (stage.* histograms from ScopedSpan are microseconds).
#pragma once

#include <ostream>
#include <span>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace litmus::obs {

struct RunManifest;

/// {"manifest":{...},"counters":{...},"gauges":{...},
///  "histograms":{name:{count,sum,min,max,mean,p50,p90,p95,p99}}}
/// The manifest member is present when `manifest` is non-null, so every
/// metrics artifact carries its own provenance (obs/manifest.h).
void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot,
                        const RunManifest* manifest = nullptr);

/// {"manifest":{...}?,"epoch_ns":...,
///  "spans":[{id,parent,name,thread,start_us,duration_us}]}
void write_trace_json(std::ostream& out, std::span<const SpanRecord> spans,
                      std::uint64_t epoch_ns = 0,
                      const RunManifest* manifest = nullptr);

}  // namespace litmus::obs
