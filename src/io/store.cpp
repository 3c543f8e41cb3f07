#include "io/store.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "io/csv.h"
#include "io/series_accum.h"

namespace litmus::io {
namespace {

std::optional<net::ElementKind> parse_kind(const std::string& s) {
  for (int k = 0; k <= static_cast<int>(net::ElementKind::kPcrf); ++k) {
    const auto kind = static_cast<net::ElementKind>(k);
    if (s == net::to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::optional<net::Technology> parse_tech(const std::string& s) {
  for (const auto t : {net::Technology::kGsm, net::Technology::kUmts,
                       net::Technology::kLte})
    if (s == net::to_string(t)) return t;
  return std::nullopt;
}

std::optional<net::Region> parse_region(const std::string& s) {
  for (int r = 0; r <= static_cast<int>(net::Region::kWest); ++r) {
    const auto region = static_cast<net::Region>(r);
    if (s == net::to_string(region)) return region;
  }
  return std::nullopt;
}

// A 32-bit topology column (zip, parent, market): 0 to UINT32_MAX, where a
// parent of 0 marks the root. A wider value would wrap onto another id.
std::uint32_t u32_column(const CsvReader& reader,
                         const std::vector<std::string>& row, std::size_t col,
                         const char* name) {
  const auto v = parse_int(row[col]);
  if (!v || *v < 0 || *v > std::numeric_limits<std::uint32_t>::max())
    reader.fail(std::string("bad ") + name + " '" + row[col] + "'");
  return static_cast<std::uint32_t>(*v);
}

std::string format_value(double v) {
  if (std::isnan(v)) return "nan";
  // Shortest representation that re-parses to the same bits: 10
  // significant digits when they round-trip (keeps files readable),
  // otherwise the 17 digits a double always survives. save -> load is
  // therefore bit-exact, which the snapshot cache and the ingest
  // round-trip tests rely on.
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  const auto back = parse_double(buf);
  if (!back || std::bit_cast<std::uint64_t>(*back) !=
                   std::bit_cast<std::uint64_t>(v))
    std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void SeriesStore::put(net::ElementId element, kpi::KpiId kpi,
                      ts::TimeSeries series) {
  series_.insert_or_assign({element.value, kpi}, std::move(series));
}

bool SeriesStore::contains(net::ElementId element, kpi::KpiId kpi) const {
  return series_.contains({element.value, kpi});
}

const ts::TimeSeries& SeriesStore::get(net::ElementId element,
                                       kpi::KpiId kpi) const {
  const auto it = series_.find({element.value, kpi});
  if (it == series_.end())
    throw std::out_of_range("SeriesStore: no series for element " +
                            std::to_string(element.value));
  return it->second;
}

core::SeriesProvider SeriesStore::provider() const {
  return [this](net::ElementId element, kpi::KpiId kpi, std::int64_t start,
                std::size_t n) {
    ts::TimeSeries window(start, n, 60);
    const auto it = series_.find({element.value, kpi});
    if (it != series_.end())
      it->second.copy_range_into(start, window.mutable_values());
    return window;
  };
}

std::size_t load_series_csv(std::istream& in, SeriesStore& store) {
  // Accumulate points per (element, kpi), then assemble dense series.
  // SeriesAccum is shared with the mmap-parallel fast path (io/ingest.h),
  // so both loaders build bit-identical stores by construction.
  detail::SeriesAccum acc;

  std::size_t count = 0;
  CsvReader reader(in, "series csv");
  while (const auto row = reader.next()) {
    reader.require_fields(*row, 4);
    const auto element = parse_int((*row)[0]);
    if (!is_element_id(element))
      reader.fail("bad element id '" + (*row)[0] + "'");
    const auto kpi = kpi::parse_kpi((*row)[1]);
    if (!kpi) reader.fail("unknown KPI '" + (*row)[1] + "'");
    const auto bin = parse_int((*row)[2]);
    if (!bin) reader.fail("bad bin '" + (*row)[2] + "'");
    const double value = parse_double_or_missing((*row)[3]);

    acc.add(static_cast<std::uint32_t>(*element), *kpi, *bin, value);
    ++count;
  }

  std::move(acc).build_into(store);
  return count;
}

void save_series_csv(std::ostream& out, net::ElementId element,
                     kpi::KpiId kpi, const ts::TimeSeries& series) {
  out << "# element_id, kpi_name, bin, value\n";
  for (std::int64_t b = series.start_bin(); b < series.end_bin(); ++b) {
    write_csv_row(out, {std::to_string(element.value),
                        std::string(kpi::to_string(kpi)), std::to_string(b),
                        format_value(series.at_bin(b))});
  }
}

net::Topology load_topology_csv(std::istream& in) {
  net::Topology topo;
  CsvReader reader(in, "topology csv");
  while (const auto row = reader.next()) {
    reader.require_fields(*row, 10);
    net::NetworkElement e;
    const auto id = parse_int((*row)[0]);
    if (!is_element_id(id)) reader.fail("bad id '" + (*row)[0] + "'");
    e.id = net::ElementId{static_cast<std::uint32_t>(*id)};
    const auto kind = parse_kind((*row)[1]);
    if (!kind) reader.fail("unknown element kind '" + (*row)[1] + "'");
    e.kind = *kind;
    const auto tech = parse_tech((*row)[2]);
    if (!tech) reader.fail("unknown technology '" + (*row)[2] + "'");
    e.technology = *tech;
    e.name = (*row)[3];
    const auto lat = parse_double((*row)[4]);
    const auto lon = parse_double((*row)[5]);
    if (!lat || !lon) reader.fail("bad coordinates");
    e.location = {*lat, *lon};
    e.zip = net::ZipCode{u32_column(reader, *row, 6, "zip")};
    const auto region = parse_region((*row)[7]);
    if (!region) reader.fail("unknown region '" + (*row)[7] + "'");
    e.region = *region;
    e.parent = net::ElementId{u32_column(reader, *row, 8, "parent")};
    e.market = u32_column(reader, *row, 9, "market");
    topo.add(std::move(e));
  }
  return topo;
}

void save_topology_csv(std::ostream& out, const net::Topology& topo) {
  out << "# id, kind, technology, name, lat, lon, zip, region, parent_id, "
         "market\n";
  for (const auto id : topo.all()) {
    const auto& e = topo.get(id);
    char lat[32], lon[32];
    std::snprintf(lat, sizeof lat, "%.6f", e.location.lat_deg);
    std::snprintf(lon, sizeof lon, "%.6f", e.location.lon_deg);
    write_csv_row(out, {std::to_string(e.id.value), net::to_string(e.kind),
                        net::to_string(e.technology), e.name, lat, lon,
                        std::to_string(e.zip.value), net::to_string(e.region),
                        std::to_string(e.parent.value),
                        std::to_string(e.market)});
  }
}

}  // namespace litmus::io
