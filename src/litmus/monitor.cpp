#include "litmus/monitor.h"

#include <stdexcept>

#include "obs/events.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace litmus::core {

const char* to_string(MonitorState s) noexcept {
  switch (s) {
    case MonitorState::kWarmup: return "warmup";
    case MonitorState::kQuiet: return "quiet";
    case MonitorState::kImproving: return "improving";
    case MonitorState::kDegrading: return "degrading";
  }
  return "?";
}

ChangeMonitor::ChangeMonitor(SeriesProvider provider, net::ElementId study,
                             std::vector<net::ElementId> control,
                             kpi::KpiId kpi, std::int64_t change_bin,
                             MonitorConfig config)
    : provider_(std::move(provider)),
      study_(study),
      control_(std::move(control)),
      kpi_(kpi),
      change_bin_(change_bin),
      config_(config),
      algorithm_(config.regression),
      next_window_end_(change_bin +
                       static_cast<std::int64_t>(config.window_bins)) {
  if (!provider_) throw std::invalid_argument("ChangeMonitor: null provider");
  if (config_.window_bins < 12 || config_.step_bins == 0 ||
      config_.confirm_windows == 0)
    throw std::invalid_argument("ChangeMonitor: bad window config");
}

MonitorReading ChangeMonitor::evaluate_window(std::int64_t window_end) {
  obs::ScopedSpan span("monitor.window");
  const std::int64_t before_start =
      change_bin_ - static_cast<std::int64_t>(config_.before_bins);
  const std::int64_t after_start =
      window_end - static_cast<std::int64_t>(config_.window_bins);

  ElementWindows w;
  w.study_before =
      provider_(study_, kpi_, before_start, config_.before_bins);
  w.study_after = provider_(study_, kpi_, after_start, config_.window_bins);
  for (const auto c : control_) {
    w.control_before.push_back(
        provider_(c, kpi_, before_start, config_.before_bins));
    w.control_after.push_back(
        provider_(c, kpi_, after_start, config_.window_bins));
  }

  MonitorReading reading;
  reading.up_to_bin = window_end;
  reading.outcome = algorithm_.assess(w, kpi_);
  update_state(reading.outcome);
  reading.state = state_;
  if (auto* ev = obs::events()) {
    ev->emit(obs::EventType::kKpiVerdict, [&](obs::JsonWriter& w2) {
      w2.member("source", "monitor")
          .member("kpi", kpi::to_string(kpi_))
          .member("element", static_cast<std::uint64_t>(study_.value))
          .member("bin", static_cast<std::int64_t>(change_bin_))
          .member("up_to", static_cast<std::int64_t>(window_end))
          .member("verdict", to_string(reading.outcome.verdict))
          .member("state", to_string(reading.state));
    });
  }
  return reading;
}

void ChangeMonitor::update_state(const AnalysisOutcome& outcome) {
  if (outcome.degenerate) return;  // no evidence either way
  if (outcome.verdict == pending_) {
    ++pending_count_;
  } else {
    pending_ = outcome.verdict;
    pending_count_ = 1;
  }
  if (pending_count_ < config_.confirm_windows) {
    if (state_ == MonitorState::kWarmup && pending_count_ > 0 &&
        pending_ == Verdict::kNoImpact) {
      // Quiet start needs no long confirmation: absence of evidence.
      state_ = MonitorState::kQuiet;
    }
    return;
  }
  switch (pending_) {
    case Verdict::kNoImpact: state_ = MonitorState::kQuiet; break;
    case Verdict::kImprovement: state_ = MonitorState::kImproving; break;
    case Verdict::kDegradation: state_ = MonitorState::kDegrading; break;
  }
}

std::vector<MonitorReading> ChangeMonitor::advance(std::int64_t now_bin) {
  // Every poll is a sign of life for the /readyz staleness watermark,
  // even when no window completed — an idle-but-polling monitor is
  // healthy, a wedged one is not.
  if (obs::enabled()) obs::touch_heartbeat();
  std::vector<MonitorReading> out;
  while (next_window_end_ <= now_bin) {
    out.push_back(evaluate_window(next_window_end_));
    history_.push_back(out.back());
    next_window_end_ += static_cast<std::int64_t>(config_.step_bins);
  }
  // Daemon-style liveness signal: one heartbeat per advance() sweep, so a
  // dashboard tailing the JSONL sees progress (windows evaluated) and the
  // state machine's current state.
  if (!out.empty()) {
    if (auto* ev = obs::events()) {
      ev->emit(obs::EventType::kHeartbeat, [&](obs::JsonWriter& w) {
        w.member("stage", "monitor")
            .member("up_to", static_cast<std::int64_t>(out.back().up_to_bin))
            .member("windows",
                    static_cast<std::uint64_t>(history_.size()))
            .member("state", to_string(state_));
      });
    }
  }
  return out;
}

}  // namespace litmus::core
