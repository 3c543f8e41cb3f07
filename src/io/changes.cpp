#include "io/changes.h"

#include <stdexcept>

#include "io/csv.h"

namespace litmus::io {

std::optional<chg::ChangeType> parse_change_type(const std::string& s) {
  using chg::ChangeType;
  for (const auto t :
       {ChangeType::kConfigChange, ChangeType::kSoftwareUpgrade,
        ChangeType::kFeatureActivation, ChangeType::kTopologyChange,
        ChangeType::kHardwareUpgrade, ChangeType::kTrafficMove})
    if (s == chg::to_string(t)) return t;
  return std::nullopt;
}

std::optional<chg::Expectation> parse_expectation(const std::string& s) {
  using chg::Expectation;
  for (const auto e : {Expectation::kImprovement, Expectation::kDegradation,
                       Expectation::kNoImpact})
    if (s == chg::to_string(e)) return e;
  return std::nullopt;
}

std::size_t load_changes_csv(std::istream& in, chg::ChangeLog& log) {
  std::size_t count = 0;
  CsvReader reader(in, "changes csv");
  while (const auto row = reader.next()) {
    reader.require_fields(*row, 7);
    const auto element = parse_int((*row)[0]);
    if (!is_element_id(element))
      reader.fail("bad element id '" + (*row)[0] + "'");
    const auto type = parse_change_type((*row)[1]);
    if (!type) reader.fail("unknown change type '" + (*row)[1] + "'");
    const auto bin = parse_int((*row)[2]);
    if (!bin) reader.fail("bad bin '" + (*row)[2] + "'");
    const auto expectation = parse_expectation((*row)[3]);
    if (!expectation) reader.fail("unknown expectation '" + (*row)[3] + "'");
    const auto kpi = kpi::parse_kpi((*row)[4]);
    if (!kpi) reader.fail("unknown KPI '" + (*row)[4] + "'");

    chg::ChangeRecord r;
    r.element = net::ElementId{static_cast<std::uint32_t>(*element)};
    r.type = *type;
    r.bin = *bin;
    r.expectation = *expectation;
    r.target_kpi = *kpi;
    r.parameter = (*row)[5];
    r.description = (*row)[6];
    log.add(std::move(r));
    ++count;
  }
  return count;
}

void save_changes_csv(std::ostream& out, const chg::ChangeLog& log) {
  out << "# element_id, type, bin, expectation, target_kpi, parameter, "
         "description\n";
  for (const auto& r : log.all()) {
    write_csv_row(out, {std::to_string(r.element.value),
                        chg::to_string(r.type), std::to_string(r.bin),
                        chg::to_string(r.expectation),
                        std::string(kpi::to_string(r.target_kpi)),
                        r.parameter, r.description});
  }
}

}  // namespace litmus::io
