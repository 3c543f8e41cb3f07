#include "cellnet/config.h"

#include <gtest/gtest.h>

namespace litmus::net {
namespace {

TEST(SoftwareVersion, ToStringFormat) {
  EXPECT_EQ((SoftwareVersion{5, 2, 1}).to_string(), "5.2.1");
  EXPECT_EQ((SoftwareVersion{}).to_string(), "0.0.0");
}

TEST(SoftwareVersion, TotalOrder) {
  EXPECT_LT((SoftwareVersion{1, 9, 9}), (SoftwareVersion{2, 0, 0}));
  EXPECT_LT((SoftwareVersion{2, 1, 0}), (SoftwareVersion{2, 2, 0}));
  EXPECT_LT((SoftwareVersion{2, 2, 1}), (SoftwareVersion{2, 2, 2}));
  EXPECT_EQ((SoftwareVersion{2, 2, 2}), (SoftwareVersion{2, 2, 2}));
}

TEST(ConfigSnapshot, EqualityIsMemberwise) {
  ConfigSnapshot a, b;
  EXPECT_EQ(a, b);
  b.antenna.tilt_deg = 4.0;
  EXPECT_NE(a, b);
  b = a;
  b.gold.radio_link_failure_timer_ms = 9999;
  EXPECT_NE(a, b);
  b = a;
  b.son_enabled = true;
  EXPECT_NE(a, b);
}

TEST(GoldStandardParams, DefaultsAreSane) {
  const GoldStandardParams g;
  EXPECT_GT(g.radio_link_failure_timer_ms, 0);
  EXPECT_GT(g.handover_time_to_trigger_ms, 0);
  EXPECT_LT(g.access_threshold_dbm, 0);
}

}  // namespace
}  // namespace litmus::net
