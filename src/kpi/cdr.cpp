#include "kpi/cdr.h"

#include <cmath>

namespace litmus::kpi {
namespace {

// Poisson draw via inversion for small means, normal approximation above.
std::uint64_t poisson(ts::Rng& rng, double mean) {
  if (mean <= 0.0) return 0;
  if (mean > 64.0) {
    const double v = rng.normal(mean, std::sqrt(mean));
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(v));
  }
  const double limit = std::exp(-mean);
  double prod = rng.next_double();
  std::uint64_t n = 0;
  while (prod > limit) {
    prod *= rng.next_double();
    ++n;
  }
  return n;
}

}  // namespace

void accumulate(CounterBin& bin, const CallDetailRecord& rec) noexcept {
  const bool voice = rec.type == SessionType::kVoice;
  if (voice) {
    ++bin.voice_attempts;
    switch (rec.outcome) {
      case SessionOutcome::kBlocked:
        ++bin.voice_blocked;
        break;
      case SessionOutcome::kDropped:
        ++bin.voice_established;
        ++bin.voice_dropped;
        break;
      case SessionOutcome::kCompleted:
        ++bin.voice_established;
        break;
    }
  } else {
    ++bin.data_attempts;
    switch (rec.outcome) {
      case SessionOutcome::kBlocked:
        ++bin.data_blocked;
        break;
      case SessionOutcome::kDropped:
        ++bin.data_established;
        ++bin.data_dropped;
        bin.megabits_delivered += rec.megabits;
        break;
      case SessionOutcome::kCompleted:
        ++bin.data_established;
        bin.megabits_delivered += rec.megabits;
        break;
    }
  }
}

std::vector<CallDetailRecord> synthesize_bin_records(
    ts::Rng& rng, net::ElementId element, std::int64_t bin,
    const SessionRates& rates) {
  std::vector<CallDetailRecord> out;
  const std::uint64_t n_voice = poisson(rng, rates.voice_attempts_per_bin);
  const std::uint64_t n_data = poisson(rng, rates.data_attempts_per_bin);
  out.reserve(n_voice + n_data);

  for (std::uint64_t i = 0; i < n_voice; ++i) {
    CallDetailRecord r;
    r.element = element;
    r.bin = bin;
    r.type = SessionType::kVoice;
    if (rng.chance(rates.voice_block_prob))
      r.outcome = SessionOutcome::kBlocked;
    else if (rng.chance(rates.voice_drop_prob))
      r.outcome = SessionOutcome::kDropped;
    else
      r.outcome = SessionOutcome::kCompleted;
    r.duration_min = r.outcome == SessionOutcome::kBlocked
                         ? 0.0
                         : -3.0 * std::log(1.0 - rng.next_double());
    out.push_back(r);
  }
  for (std::uint64_t i = 0; i < n_data; ++i) {
    CallDetailRecord r;
    r.element = element;
    r.bin = bin;
    r.type = SessionType::kData;
    if (rng.chance(rates.data_block_prob))
      r.outcome = SessionOutcome::kBlocked;
    else if (rng.chance(rates.data_drop_prob))
      r.outcome = SessionOutcome::kDropped;
    else
      r.outcome = SessionOutcome::kCompleted;
    if (r.outcome != SessionOutcome::kBlocked) {
      r.duration_min = -5.0 * std::log(1.0 - rng.next_double());
      r.megabits = rates.mean_megabits_per_data_session *
                   (-std::log(1.0 - rng.next_double()));
      // Dropped sessions deliver only part of their payload.
      if (r.outcome == SessionOutcome::kDropped)
        r.megabits *= rng.next_double();
    }
    out.push_back(r);
  }
  return out;
}

}  // namespace litmus::kpi
