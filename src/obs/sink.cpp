#include "obs/sink.h"

#include "obs/json.h"
#include "obs/manifest.h"

namespace litmus::obs {
namespace {

void histogram_fields(JsonWriter& w, const HistogramSnapshot& h) {
  w.member("count", h.count)
      .member("sum", h.sum)
      .member("min", h.min)
      .member("max", h.max)
      .member("mean", h.mean())
      .member("p50", h.p50)
      .member("p90", h.p90)
      .member("p95", h.p95)
      .member("p99", h.p99);
}

}  // namespace

void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot,
                        const RunManifest* manifest) {
  JsonWriter w(out);
  w.begin_object();
  if (manifest) {
    w.key("manifest");
    manifest->write(w);
  }
  w.key("counters").begin_object();
  for (const auto& [name, value] : snapshot.counters) w.member(name, value);
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : snapshot.gauges) w.member(name, value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, h] : snapshot.histograms) {
    w.key(name).begin_object();
    histogram_fields(w, h);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  out << '\n';
}

}  // namespace litmus::obs
