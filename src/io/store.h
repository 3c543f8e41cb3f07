// Interchange formats and an in-memory series store.
//
// Deployments do not generate KPIs — they load them. The SeriesStore holds
// per-(element, KPI) time-series and hands the Assessor a SeriesProvider,
// so production feeds exported to CSV drive exactly the same code path as
// the simulator. It is the store a CSV parse builds; a `.litmus-snap`
// snapshot is served in place by io::MappedStore instead, with the same
// window semantics (io/ingest.h puts either behind one SeriesSource).
//
// Series CSV format (hourly bins):
//   # element_id, kpi_name, bin, value
//   42, voice_retainability, -336, 0.9751
//   42, voice_retainability, -335, 0.9748
//
// Topology CSV format:
//   # id, kind, technology, name, lat, lon, zip, region, parent_id, market
//   1, RNC, UMTS, NE-RNC0, 41.5, -74.0, 10001, Northeast, 0, 0
#pragma once

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>

#include "cellnet/topology.h"
#include "kpi/kpi.h"
#include "litmus/assessor.h"
#include "tsmath/timeseries.h"

namespace litmus::io {

class SeriesStore {
 public:
  /// Sorted-map key: (element id value, KPI). Sorted iteration makes every
  /// serialization of a store (CSV, snapshot) byte-deterministic.
  using Key = std::pair<std::uint32_t, kpi::KpiId>;

  /// Inserts/overwrites the series for (element, kpi).
  void put(net::ElementId element, kpi::KpiId kpi, ts::TimeSeries series);

  bool contains(net::ElementId element, kpi::KpiId kpi) const;
  std::size_t size() const noexcept { return series_.size(); }

  /// Key-sorted read access to every stored series (snapshot writer,
  /// store equality in tests).
  const std::map<Key, ts::TimeSeries>& entries() const noexcept {
    return series_;
  }

  /// The stored series; throws std::out_of_range when absent.
  const ts::TimeSeries& get(net::ElementId element, kpi::KpiId kpi) const;

  /// A provider view over the store: each window is one ts::copy_bins of
  /// the stored series. Windows that reach outside a stored series come
  /// back with missing bins (the analyzers tolerate gaps); fully absent
  /// series yield all-missing windows.
  core::SeriesProvider provider() const;

 private:
  std::map<Key, ts::TimeSeries> series_;
};

/// The widest series a CSV loader builds: 2^31 hourly bins, about 245,000
/// years. A wider span can only come from a corrupt bin column, and the
/// check rejects it before anything is allocated. The bound does not
/// promise that a series fits in memory: at 8 bytes a bin, a span near it
/// asks for up to 16 GiB and fails with std::bad_alloc on a smaller host.
inline constexpr std::uint64_t kMaxSeriesBins = std::uint64_t{1} << 31;

/// A series whose bins span more than kMaxSeriesBins. Both series-CSV
/// loaders throw it before allocating any series; the message names the
/// element, the KPI and the bin range.
class SeriesSpanError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Series CSV round-trip. Loading returns the number of data points read
/// and throws CsvError on malformed rows, SeriesSpanError on a series too
/// wide to hold.
std::size_t load_series_csv(std::istream& in, SeriesStore& store);
void save_series_csv(std::ostream& out, net::ElementId element,
                     kpi::KpiId kpi, const ts::TimeSeries& series);

/// Topology CSV round-trip. Parents must appear before children (save
/// writes insertion order, which satisfies this). Throws on malformed rows.
net::Topology load_topology_csv(std::istream& in);
void save_topology_csv(std::ostream& out, const net::Topology& topo);

}  // namespace litmus::io
