// JSON export sink for the obs metrics registry: the shape litmus_cli's
// --metrics-json flag writes and the CI perf artifact consumes. Spans are
// exported as Chrome traces (obs/chrometrace.h).
//
// Histogram quantiles are reported in the units they were recorded in
// (stage.* histograms from ScopedSpan are microseconds).
#pragma once

#include <ostream>

#include "obs/metrics.h"

namespace litmus::obs {

struct RunManifest;

/// {"manifest":{...},"counters":{...},"gauges":{...},
///  "histograms":{name:{count,sum,min,max,mean,p50,p90,p95,p99}}}
/// The manifest member is present when `manifest` is non-null, so every
/// metrics artifact carries its own provenance (obs/manifest.h).
void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot,
                        const RunManifest* manifest = nullptr);

}  // namespace litmus::obs
