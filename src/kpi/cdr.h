// Call Detail Records and their aggregation into counters.
//
// The paper's data sets include CDRs (Section 2.2). We use them in the
// simulator's traffic path: sessions are generated per element, each carries
// an outcome (completed / blocked / dropped), and counters are rolled up
// from the records — so the ratio KPIs really are ratios of discrete events
// and inherit binomial sampling noise, as in production.
#pragma once

#include <cstdint>
#include <vector>

#include "cellnet/types.h"
#include "kpi/counters.h"
#include "tsmath/random.h"

namespace litmus::kpi {

enum class SessionType : std::uint8_t { kVoice, kData };
enum class SessionOutcome : std::uint8_t {
  kCompleted,  ///< user-terminated, success
  kBlocked,    ///< attempt failed (accessibility event)
  kDropped,    ///< network-terminated (retainability event)
};

struct CallDetailRecord {
  net::ElementId element;
  std::int64_t bin = 0;         ///< bin of the attempt
  SessionType type = SessionType::kVoice;
  SessionOutcome outcome = SessionOutcome::kCompleted;
  double duration_min = 0.0;
  double megabits = 0.0;        ///< data volume (data sessions)
};

/// Accumulates a record into the counter bin it belongs to.
void accumulate(CounterBin& bin, const CallDetailRecord& rec) noexcept;

/// Draws the per-bin session records for one element given expected attempt
/// volume and failure probabilities. Used by the simulator's CDR-level mode.
struct SessionRates {
  double voice_attempts_per_bin = 200.0;
  double voice_block_prob = 0.015;
  double voice_drop_prob = 0.02;
  double data_attempts_per_bin = 400.0;
  double data_block_prob = 0.02;
  double data_drop_prob = 0.03;
  double mean_megabits_per_data_session = 8.0;
};

std::vector<CallDetailRecord> synthesize_bin_records(ts::Rng& rng,
                                                     net::ElementId element,
                                                     std::int64_t bin,
                                                     const SessionRates& rates);

}  // namespace litmus::kpi
