#include "tsmath/rank_tests.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "tsmath/normal.h"
#include "tsmath/ranks.h"
#include "tsmath/simd/kernels.h"
#include "tsmath/stats.h"

namespace litmus::ts {
namespace {

// Per-test metric handles, resolved once per process: the registry hands
// out stable references, so the per-call path neither builds
// "rank_test.<test>.<metric>" strings nor walks the registry map (both
// showed up as hot-path heap churn — one test call per assessment, tens of
// thousands per batch sweep).
struct TestMetrics {
  obs::Counter& calls;
  obs::Histogram& z;
  obs::Histogram& p_value;
  obs::Counter& significant;

  explicit TestMetrics(const char* test)
      : calls(obs::Registry::global().counter(std::string("rank_test.") +
                                              test + ".calls")),
        z(obs::Registry::global().histogram(std::string("rank_test.") + test +
                                            ".z")),
        p_value(obs::Registry::global().histogram(std::string("rank_test.") +
                                                  test + ".p_value")),
        significant(obs::Registry::global().counter(
            std::string("rank_test.") + test + ".significant")) {}
};

// Records one two-sample comparison into the metrics registry (z-score and
// p-value distributions plus a per-test call counter).
void observe_test(const TestMetrics& m, const TestResult& r) {
  m.calls.add();
  if (!is_missing(r.statistic) && std::isfinite(r.statistic))
    m.z.record(r.statistic);
  if (!is_missing(r.p_value)) m.p_value.record(r.p_value);
  if (r.shift != Shift::kNone) m.significant.add();
}

// Gathers the observed (non-NaN) values of `xs` into the scratch buffer
// `out`, preserving order. Both tests run once per assessment inside the
// batch sweep's record tasks, so each keeps its gathers and intermediates
// in a thread_local struct of its own: the steady-state call makes no
// heap allocation.
void observed_into(std::span<const double> xs, std::vector<double>& out) {
  out.clear();
  out.reserve(xs.size());
  for (double v : xs)
    if (!is_missing(v)) out.push_back(v);
}

Shift classify(double z, double p, double alpha) {
  if (is_missing(p) || p >= alpha) return Shift::kNone;
  return z > 0 ? Shift::kIncrease : Shift::kDecrease;
}

// True when every x strictly exceeds every y (or vice versa).
bool fully_separated(std::span<const double> x, std::span<const double> y,
                     bool x_above) {
  const double split_x =
      x_above ? min_value(x) : max_value(x);
  const double split_y =
      x_above ? max_value(y) : min_value(y);
  return x_above ? split_x > split_y : split_x < split_y;
}

}  // namespace

const char* to_string(Shift s) noexcept {
  switch (s) {
    case Shift::kNone: return "none";
    case Shift::kIncrease: return "increase";
    case Shift::kDecrease: return "decrease";
  }
  return "?";
}

namespace {

TestResult wilcoxon_mann_whitney_impl(std::span<const double> xs,
                                      std::span<const double> ys,
                                      double alpha) {
  thread_local struct {
    std::vector<double> x, y;  // observed values
    std::vector<double> pooled, ranks;
  } scratch;
  auto& [x, y, pooled, ranks] = scratch;
  observed_into(xs, x);
  observed_into(ys, y);
  TestResult r;
  r.n_x = x.size();
  r.n_y = y.size();
  if (x.size() < 2 || y.size() < 2) return r;

  pooled.clear();
  pooled.reserve(x.size() + y.size());
  pooled.insert(pooled.end(), x.begin(), x.end());
  pooled.insert(pooled.end(), y.begin(), y.end());

  // One sort produces both the midranks and the tie correction (the old
  // tie_correction_sum call re-sorted the pooled sample from scratch).
  ranks.resize(pooled.size());
  double ties = 0.0;
  midranks_into(pooled, ranks, &ties);

  const double rank_sum_x = simd::sum({ranks.data(), x.size()});

  const double m = static_cast<double>(x.size());
  const double n = static_cast<double>(y.size());
  const double u = rank_sum_x - m * (m + 1.0) / 2.0;  // Mann-Whitney U for x
  if (obs::enabled()) {
    static obs::Histogram& u_hist =
        obs::Registry::global().histogram("rank_test.wmw.u_statistic");
    u_hist.record(u);
  }
  const double mu = m * n / 2.0;
  const double big_n = m + n;
  const double var =
      m * n / 12.0 *
      ((big_n + 1.0) - ties / (big_n * (big_n - 1.0)));
  if (var <= 0.0) {
    // All pooled values identical: no evidence of any shift.
    r.statistic = 0.0;
    r.p_value = 1.0;
    return r;
  }
  // Continuity correction toward the mean.
  const double cc = (u > mu) ? -0.5 : (u < mu ? 0.5 : 0.0);
  r.statistic = (u - mu + cc) / std::sqrt(var);
  r.p_value = two_sided_p(r.statistic);
  r.shift = classify(r.statistic, r.p_value, alpha);
  return r;
}

TestResult robust_rank_order_impl(std::span<const double> xs,
                                  std::span<const double> ys, double alpha) {
  thread_local struct {
    std::vector<double> x, y;      // observed values
    std::vector<double> u_x, u_y;  // placements
  } scratch;
  auto& [x, y, u_x, u_y] = scratch;
  observed_into(xs, x);
  observed_into(ys, y);
  TestResult r;
  r.n_x = x.size();
  r.n_y = y.size();
  if (x.size() < 2 || y.size() < 2) return r;

  // Placements: u_x[i] = #(y < x_i), u_y[j] = #(x < y_j) (ties count half).
  // One fused call so the sorted path sorts each sample exactly once; the
  // counting path sweeps the SIMD comparison kernel instead.
  u_x.resize(x.size());
  u_y.resize(y.size());
  placement_pair_into(x, y, u_x, u_y);

  const double m = static_cast<double>(x.size());
  const double n = static_cast<double>(y.size());
  const double mean_ux = mean(u_x);
  const double mean_uy = mean(u_y);

  double v_x = 0;
  for (double u : u_x) v_x += (u - mean_ux) * (u - mean_ux);
  double v_y = 0;
  for (double u : u_y) v_y += (u - mean_uy) * (u - mean_uy);

  const double num = m * mean_ux - n * mean_uy;
  const double denom_sq = v_x + v_y + mean_ux * mean_uy;

  if (denom_sq <= 0.0) {
    // Degenerate: either no overlap at all or identical constant samples.
    if (mean_ux == n && mean_uy == 0.0) {
      // Every x above every y.
      r.statistic = std::numeric_limits<double>::infinity();
      r.p_value = 0.0;
      r.shift = Shift::kIncrease;
    } else if (mean_ux == 0.0 && mean_uy == m) {
      r.statistic = -std::numeric_limits<double>::infinity();
      r.p_value = 0.0;
      r.shift = Shift::kDecrease;
    } else {
      r.statistic = 0.0;
      r.p_value = 1.0;
    }
    return r;
  }

  r.statistic = num / (2.0 * std::sqrt(denom_sq));
  r.p_value = two_sided_p(r.statistic);

  // Small samples: the normal approximation is anti-conservative. Follow the
  // usual practice (Feltovich 2003) and require full separation below a total
  // of 12 observations.
  if (x.size() + y.size() < 12) {
    const bool x_above = r.statistic > 0;
    if (!fully_separated(x, y, x_above)) {
      r.shift = Shift::kNone;
      return r;
    }
  }

  r.shift = classify(r.statistic, r.p_value, alpha);
  return r;
}

}  // namespace

TestResult wilcoxon_mann_whitney(std::span<const double> xs,
                                 std::span<const double> ys, double alpha) {
  const TestResult r = wilcoxon_mann_whitney_impl(xs, ys, alpha);
  if (obs::enabled()) {
    static TestMetrics metrics("wmw");
    observe_test(metrics, r);
  }
  return r;
}

TestResult robust_rank_order(std::span<const double> xs,
                             std::span<const double> ys, double alpha) {
  const TestResult r = robust_rank_order_impl(xs, ys, alpha);
  if (obs::enabled()) {
    static TestMetrics metrics("fp");
    observe_test(metrics, r);
  }
  return r;
}

TestResult robust_rank_order(const TimeSeries& x, const TimeSeries& y,
                             double alpha) {
  return robust_rank_order(x.values(), y.values(), alpha);
}

}  // namespace litmus::ts
