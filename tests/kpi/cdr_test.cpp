#include "kpi/cdr.h"

#include <gtest/gtest.h>

namespace litmus::kpi {
namespace {

CallDetailRecord rec(SessionType type, SessionOutcome outcome,
                     std::int64_t bin = 0, double mb = 5.0) {
  CallDetailRecord r;
  r.element = net::ElementId{1};
  r.bin = bin;
  r.type = type;
  r.outcome = outcome;
  r.megabits = mb;
  return r;
}

TEST(Accumulate, VoiceCompleted) {
  CounterBin b;
  accumulate(b, rec(SessionType::kVoice, SessionOutcome::kCompleted));
  EXPECT_EQ(b.voice_attempts, 1u);
  EXPECT_EQ(b.voice_established, 1u);
  EXPECT_EQ(b.voice_blocked, 0u);
  EXPECT_EQ(b.voice_dropped, 0u);
}

TEST(Accumulate, VoiceBlockedIsNotEstablished) {
  CounterBin b;
  accumulate(b, rec(SessionType::kVoice, SessionOutcome::kBlocked));
  EXPECT_EQ(b.voice_attempts, 1u);
  EXPECT_EQ(b.voice_established, 0u);
  EXPECT_EQ(b.voice_blocked, 1u);
}

TEST(Accumulate, VoiceDroppedIsEstablishedAndDropped) {
  CounterBin b;
  accumulate(b, rec(SessionType::kVoice, SessionOutcome::kDropped));
  EXPECT_EQ(b.voice_established, 1u);
  EXPECT_EQ(b.voice_dropped, 1u);
}

TEST(Accumulate, DataDeliversMegabits) {
  CounterBin b;
  accumulate(b, rec(SessionType::kData, SessionOutcome::kCompleted, 0, 8.0));
  accumulate(b, rec(SessionType::kData, SessionOutcome::kBlocked, 0, 8.0));
  EXPECT_EQ(b.data_attempts, 2u);
  EXPECT_EQ(b.data_established, 1u);
  EXPECT_DOUBLE_EQ(b.megabits_delivered, 8.0);  // blocked delivers nothing
}

TEST(Synthesize, RatesMatchExpectations) {
  ts::Rng rng(77);
  SessionRates rates;
  rates.voice_attempts_per_bin = 300.0;
  rates.voice_block_prob = 0.1;
  rates.voice_drop_prob = 0.05;
  rates.data_attempts_per_bin = 150.0;

  CounterBin total;
  const int bins = 200;
  for (int b = 0; b < bins; ++b)
    for (const auto& r :
         synthesize_bin_records(rng, net::ElementId{2}, b, rates))
      accumulate(total, r);

  EXPECT_NEAR(static_cast<double>(total.voice_attempts) / bins, 300.0, 10.0);
  EXPECT_NEAR(static_cast<double>(total.data_attempts) / bins, 150.0, 8.0);
  const double block_rate = static_cast<double>(total.voice_blocked) /
                            static_cast<double>(total.voice_attempts);
  EXPECT_NEAR(block_rate, 0.1, 0.01);
  // Drop prob applies to non-blocked attempts.
  const double drop_rate = static_cast<double>(total.voice_dropped) /
                           static_cast<double>(total.voice_established);
  EXPECT_NEAR(drop_rate, 0.05, 0.01);
}

TEST(Synthesize, DeterministicGivenRngState) {
  ts::Rng a(5), b(5);
  const auto ra = synthesize_bin_records(a, net::ElementId{1}, 0, {});
  const auto rb = synthesize_bin_records(b, net::ElementId{1}, 0, {});
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].outcome, rb[i].outcome);
    EXPECT_DOUBLE_EQ(ra[i].megabits, rb[i].megabits);
  }
}

TEST(Synthesize, ZeroRatesProduceNothing) {
  ts::Rng rng(9);
  SessionRates rates;
  rates.voice_attempts_per_bin = 0.0;
  rates.data_attempts_per_bin = 0.0;
  EXPECT_TRUE(
      synthesize_bin_records(rng, net::ElementId{1}, 0, rates).empty());
}

TEST(Synthesize, DroppedDataDeliversPartialPayload) {
  ts::Rng rng(11);
  SessionRates rates;
  rates.voice_attempts_per_bin = 0.0;
  rates.data_attempts_per_bin = 500.0;
  rates.data_drop_prob = 1.0;  // every established session drops
  rates.data_block_prob = 0.0;
  double dropped_mb = 0.0;
  std::size_t dropped = 0;
  for (const auto& r :
       synthesize_bin_records(rng, net::ElementId{1}, 0, rates)) {
    ASSERT_EQ(r.outcome, SessionOutcome::kDropped);
    dropped_mb += r.megabits;
    ++dropped;
  }
  ASSERT_GT(dropped, 0u);
  // Partial delivery: mean well below the full-session mean of 8 Mb.
  EXPECT_LT(dropped_mb / dropped, 8.0);
}

}  // namespace
}  // namespace litmus::kpi
