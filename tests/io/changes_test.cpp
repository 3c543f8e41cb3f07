#include "io/changes.h"

#include <gtest/gtest.h>

#include <sstream>

#include "io/csv.h"

namespace litmus::io {
namespace {

TEST(ChangesCsv, ParseEnums) {
  EXPECT_EQ(parse_change_type("software_upgrade"),
            chg::ChangeType::kSoftwareUpgrade);
  EXPECT_EQ(parse_change_type("traffic_move"), chg::ChangeType::kTrafficMove);
  EXPECT_FALSE(parse_change_type("magic").has_value());
  EXPECT_EQ(parse_expectation("no_impact"), chg::Expectation::kNoImpact);
  EXPECT_FALSE(parse_expectation("hope").has_value());
}

TEST(ChangesCsv, LoadBasicRow) {
  std::istringstream in(
      "# header\n"
      "12, config_change, -24, improvement, voice_retainability, "
      "gold.radio_link_failure_timer_ms=4000, RLF timer tuning\n");
  chg::ChangeLog log;
  EXPECT_EQ(load_changes_csv(in, log), 1u);
  ASSERT_EQ(log.size(), 1u);
  const auto& r = log.all()[0];
  EXPECT_EQ(r.element, net::ElementId{12});
  EXPECT_EQ(r.type, chg::ChangeType::kConfigChange);
  EXPECT_EQ(r.bin, -24);
  EXPECT_EQ(r.expectation, chg::Expectation::kImprovement);
  EXPECT_EQ(r.target_kpi, kpi::KpiId::kVoiceRetainability);
  EXPECT_EQ(r.parameter, "gold.radio_link_failure_timer_ms=4000");
  EXPECT_EQ(r.description, "RLF timer tuning");
  EXPECT_EQ(r.id, 1u);  // log assigns ids
}

TEST(ChangesCsv, MalformedRowsThrow) {
  chg::ChangeLog log;
  std::istringstream short_row("1, config_change, 0\n");
  EXPECT_THROW(load_changes_csv(short_row, log), std::runtime_error);
  std::istringstream bad_type("1, wizardry, 0, no_impact, "
                              "voice_retainability, x, y\n");
  EXPECT_THROW(load_changes_csv(bad_type, log), std::runtime_error);
  std::istringstream bad_kpi("1, config_change, 0, no_impact, happiness, "
                             "x, y\n");
  EXPECT_THROW(load_changes_csv(bad_kpi, log), std::runtime_error);
}

TEST(ChangesCsv, ElementIdAboveUint32Throws) {
  chg::ChangeLog log;
  std::istringstream top("4294967295, config_change, 0, no_impact, "
                         "voice_retainability, x, y\n");
  EXPECT_EQ(load_changes_csv(top, log), 1u);
  EXPECT_EQ(log.all()[0].element, net::ElementId{4294967295u});
  std::istringstream wide("4294967306, config_change, 0, no_impact, "
                          "voice_retainability, x, y\n");
  try {
    load_changes_csv(wide, log);
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_STREQ(e.what(), "changes csv line 1: bad element id '4294967306'");
  }
}

TEST(ChangesCsv, ErrorsNameTheOffendingLine) {
  std::istringstream in(
      "# header\n"
      "1, config_change, 0, no_impact, voice_retainability, x, y\n"
      "2, wizardry, 0, no_impact, voice_retainability, x, y\n");
  chg::ChangeLog log;
  try {
    load_changes_csv(in, log);
    FAIL() << "expected CsvError";
  } catch (const CsvError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_STREQ(e.what(), "changes csv line 3: unknown change type "
                           "'wizardry'");
  }
}

TEST(ChangesCsv, RoundTrip) {
  chg::ChangeLog original;
  chg::ChangeRecord a;
  a.element = net::ElementId{3};
  a.type = chg::ChangeType::kFeatureActivation;
  a.bin = 100;
  a.expectation = chg::Expectation::kImprovement;
  a.target_kpi = kpi::KpiId::kDataRetainability;
  a.parameter = "son=on";
  a.description = "SON pilot";
  original.add(a);
  chg::ChangeRecord b;
  b.element = net::ElementId{9};
  b.type = chg::ChangeType::kTopologyChange;
  b.bin = -50;
  b.parameter = "parent=4";
  original.add(b);

  std::stringstream buf;
  save_changes_csv(buf, original);
  chg::ChangeLog loaded;
  EXPECT_EQ(load_changes_csv(buf, loaded), 2u);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.all()[0].parameter, "son=on");
  EXPECT_EQ(loaded.all()[0].description, "SON pilot");
  EXPECT_EQ(loaded.all()[1].element, net::ElementId{9});
  EXPECT_EQ(loaded.all()[1].type, chg::ChangeType::kTopologyChange);
  EXPECT_EQ(loaded.all()[1].bin, -50);
}

}  // namespace
}  // namespace litmus::io
