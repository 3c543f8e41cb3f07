#include "litmus/spatial_regression.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/events.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tsmath/gram.h"
#include "tsmath/linreg.h"
#include "tsmath/matrix.h"
#include "tsmath/normal.h"
#include "tsmath/random.h"
#include "tsmath/simd/kernels.h"
#include "tsmath/stats.h"

namespace litmus::core {
namespace {

// Every fit carries an intercept: the study and control KPIs sit at
// different levels, and a fit through the origin would fold that offset
// into beta.
constexpr bool kWithIntercept = true;

// A checkpoint counts as stable when the three jackknife forecast variants
// agree on the verdict AND the decision is not borderline: every
// variant's |z| must clear the alpha critical value by at least this
// margin (on whichever side), and the effect size must clear the
// materiality floor by 10%. Borderline elements therefore always spend
// the full budget. (The raw z is deliberately not required to be close
// across variants: the rank statistic saturates under near-separation,
// where its magnitude swings wildly while the decision is settled.)
constexpr double kStabilityZMargin = 0.5;

// Leave-one-out band of one bin's aggregate across the iterations seen so
// far: [lo, hi] brackets every value the aggregate can take after removing
// a single iteration's prediction (the jackknife perturbation the adaptive
// stop tests against), and `med` is the aggregate itself — the emitted
// forecast bin when read after the last round.
struct BinBand {
  double lo = ts::kMissing;
  double med = ts::kMissing;
  double hi = ts::kMissing;
};

// forecast()'s per-thread scratch. Each buffer keeps its capacity from one
// call to the next on the same thread, so a steady-state Gram-path
// iteration makes no heap allocation (DESIGN.md §13).
struct ForecastScratch {
  // The element's own Gram panel, rebuilt in place for every call that
  // reads no design block's panel.
  ts::GramPanel panel;
  std::vector<std::size_t> pool;  // the sampler's index pool
  std::vector<std::size_t> cols;  // one iteration's sampled controls
  // One batch's sampled subsets, k apiece back to back, their factors and
  // the study series' solve of them.
  std::vector<std::size_t> subsets;
  ts::FactorBatch factors;
  ts::SolveBatch solved;
  // The forecast store, [iteration][bin]: row s holds the s-th successful
  // iteration's prediction of every bin, the before bins then the after
  // bins, NaN where it has none, padded with NaN to a multiple of 8 bins.
  std::vector<double> store;
  // The median's sort: one 8-bin group's ascending lanes (rows × 8), and
  // the comparator list for `network_rows` rows.
  std::vector<double> sorted;
  std::vector<ts::simd::SortPair> network;
  std::size_t network_rows = 0;
  std::vector<BinBand> bands;  // each bin's aggregate, before then after
};

// Packs aligned control windows into a design matrix over the study
// window's absolute bin range. Bins a control lacks become NaN rows (the
// OLS drops them; forecasts there are missing). Columnar: the matrix is
// column-major, so each control is one contiguous range copy.
ts::Matrix design_matrix(const ts::TimeSeries& study,
                         std::span<const ts::TimeSeries> controls) {
  ts::Matrix x(study.size(), controls.size());
  for (std::size_t c = 0; c < controls.size(); ++c)
    controls[c].copy_range_into(study.start_bin(), x.column(c));
  return x;
}

// The controls each iteration samples: k > N/2 (paper), bounded by the
// regression's degrees of freedom over the study's observed before-bins.
std::size_t effective_k(const SpatialRegressionParams& params,
                        std::size_t n_controls, std::size_t observed_before) {
  const std::size_t majority = n_controls / 2 + 1;
  std::size_t k = std::max(
      majority, static_cast<std::size_t>(std::floor(
                    params.sample_fraction * static_cast<double>(n_controls))));
  k = std::min(k, n_controls);
  const std::size_t max_regressors =
      observed_before > 6 ? observed_before - 5 : 0;
  return std::min(k, max_regressors);
}

// Iterations run in counter-ordered rounds; each entry is one round's end.
// Adaptive-off the schedule is a single round covering the whole budget;
// adaptive-on it follows a geometric schedule (kMinIterations, then ~1.5x
// per round: 8, 12, 18, 27, ...) with a stability checkpoint between
// rounds.
std::vector<std::size_t> round_schedule(const SpatialRegressionParams& p) {
  std::vector<std::size_t> ends;
  if (!p.adaptive_sampling || p.n_iterations == 0) {
    ends.push_back(p.n_iterations);
    return ends;
  }
  ends.push_back(std::min(p.n_iterations, kMinIterations));
  while (ends.back() < p.n_iterations) {
    const std::size_t prev = ends.back();
    ends.push_back(std::min(p.n_iterations, prev + (prev + 1) / 2));
  }
  return ends;
}

// Bitwise equality of two windows: bins, bin width and every value's bits
// (a missing value is one canonical NaN).
bool same_bits(const ts::TimeSeries& a, const ts::TimeSeries& b) noexcept {
  return a.start_bin() == b.start_bin() && a.size() == b.size() &&
         a.bin_minutes() == b.bin_minutes() &&
         (a.size() == 0 || std::memcmp(a.values().data(), b.values().data(),
                                       a.size() * sizeof(double)) == 0);
}

bool same_bins(const ts::TimeSeries& a, const ts::TimeSeries& b) noexcept {
  return a.start_bin() == b.start_bin() && a.size() == b.size();
}

// Median band of one bin from its n non-missing forecasts in ascending
// order, v[0], v[8], v[16], … (one lane of a sorted 8-bin group). For
// n = 2h+1 the leave-one-out median ranges over [(v[h-1]+v[h])/2,
// (v[h]+v[h+1])/2]; for n = 2h it ranges over [v[h-1], v[h]]. The
// even-count median repeats ts::quantile's arithmetic (frac = 0.5)
// operand for operand, so `med` is bit-identical to ts::median of the
// bin's forecasts.
BinBand band_from_sorted(const double* lane, std::size_t n) {
  const auto v = [lane](std::size_t i) { return lane[8 * i]; };
  BinBand b;
  if (n == 0) return b;
  const std::size_t h = n / 2;
  if (n == 1) {
    b.lo = b.med = b.hi = v(0);
  } else if (n % 2 == 1) {
    b.med = v(h);
    b.lo = v(h - 1) * 0.5 + v(h) * 0.5;
    b.hi = v(h) * 0.5 + v(h + 1) * 0.5;
  } else {
    b.med = v(h - 1) * 0.5 + v(h) * 0.5;
    b.lo = v(h - 1);
    b.hi = v(h);
  }
  return b;
}

// Mean band of one bin (ablation aggregation; same stopping rule): the
// store column from `cell` down `rows` rows, NaN skipped. The sum runs in
// row order, the order ts::mean adds a bin's forecasts in, so `med` is
// bit-identical to ts::mean of them. Dropping the max gives the lowest
// leave-one-out mean, dropping the min the highest.
BinBand band_mean(const double* cell, std::size_t stride, std::size_t rows) {
  BinBand b;
  double sum = 0.0, mn = 0.0, mx = 0.0;
  std::size_t n = 0;
  for (std::size_t r = 0; r < rows; ++r, cell += stride) {
    const double x = *cell;
    if (ts::is_missing(x)) continue;
    mn = n == 0 ? x : std::min(mn, x);
    mx = n == 0 ? x : std::max(mx, x);
    sum += x;
    ++n;
  }
  if (n == 0) return b;
  b.med = sum / static_cast<double>(n);
  if (n == 1) {
    b.lo = b.hi = b.med;
    return b;
  }
  b.lo = (sum - mx) / static_cast<double>(n - 1);
  b.hi = (sum - mn) / static_cast<double>(n - 1);
  return b;
}

// Each bin's band across the first `rows` rows of the store, into
// s.bands: the one aggregation behind the adaptive checkpoints and the
// final forecast. The median sorts 8 bins at a time with the dispatched
// network (simd::sort_lanes) and reads ranks h-1, h and h+1; the order
// statistics of a bin's forecasts do not depend on how they were sorted.
void aggregate(ForecastScratch& s, std::size_t rows, std::size_t n_bins,
               std::size_t stride, bool median) {
  s.bands.resize(n_bins);
  if (!median) {
    for (std::size_t bin = 0; bin < n_bins; ++bin)
      s.bands[bin] = band_mean(s.store.data() + bin, stride, rows);
    return;
  }
  if (s.network_rows != rows) {
    ts::simd::sort_network(rows, s.network);
    s.network_rows = rows;
  }
  s.sorted.resize(rows * 8);
  std::size_t counts[8];
  for (std::size_t group = 0; group < n_bins; group += 8) {
    ts::simd::sort_lanes(s.store.data() + group, stride, rows, s.network,
                         s.sorted.data(), counts);
    for (std::size_t j = 0; j < 8 && group + j < n_bins; ++j)
      s.bands[group + j] = band_from_sorted(s.sorted.data() + j, counts[j]);
  }
}

}  // namespace

const char* to_string(StopReason r) noexcept {
  switch (r) {
    case StopReason::kStableVerdict: return "stable-verdict";
    case StopReason::kFitFailures: return "fit-failures";
    case StopReason::kBudgetExhausted: break;
  }
  return "budget-exhausted";
}

SharedDesign::SharedDesign(const SpatialRegressionParams& params,
                           const ElementWindows& source)
    : params_(params), source_(&source) {
  obs::ScopedSpan span("shared-design");
  x_before_ = design_matrix(source.study_before, source.control_before);
  x_after_ = design_matrix(source.study_after, source.control_after);
  k_ = effective_k(params, source.control_before.size(),
                   source.study_before.observed_count());
  // The panel is built on the same rule as forecast()'s, for the block's
  // k; an element whose k differs decides for itself.
  use_gram_ = k_ > 0 && params.use_gram_fast_path &&
              ts::GramPanel::worthwhile(params.n_iterations, k_,
                                        x_before_.cols());
  if (!use_gram_) return;
  panel_ = ts::GramPanel::build(x_before_);
  if (!panel_.ok()) return;
  // The first round, the whole budget adaptive-off, is the part every
  // element runs; its iterations' subsets and factors are drawn here, in
  // whole batches, up to kSharedFactorBytes of factors.
  constexpr std::size_t kLanes = ts::FactorBatch::kLanes;
  const std::size_t batch_bytes =
      kLanes * (k_ + 1) * (k_ + 1) * sizeof(double);
  iterations_ = std::min(round_schedule(params).front(),
                         kSharedFactorBytes / batch_bytes * kLanes);
  const ts::Rng base(params.seed);
  std::vector<std::size_t> pool, cols;
  subsets_.resize(iterations_ * k_);
  for (std::size_t it = 0; it < iterations_; ++it) {
    ts::Rng rng = base.fork(it);
    ts::sample_without_replacement(rng, x_before_.cols(), k_, pool, cols);
    std::copy(cols.begin(), cols.end(), subsets_.begin() + it * k_);
  }
  factors_.resize((iterations_ + kLanes - 1) / kLanes);
  for (std::size_t b = 0; b < factors_.size(); ++b) {
    const std::size_t first = b * kLanes;
    const std::size_t lanes = std::min(kLanes, iterations_ - first);
    panel_.factor({subsets_.data() + first * k_, lanes * k_}, k_,
                  kWithIntercept, factors_[b]);
  }
}

bool SharedDesign::matches(const ElementWindows& w) const noexcept {
  if (&w == source_) return true;
  const ElementWindows& s = *source_;
  return same_bins(w.study_before, s.study_before) &&
         same_bins(w.study_after, s.study_after) &&
         std::ranges::equal(w.control_before, s.control_before, same_bits) &&
         std::ranges::equal(w.control_after, s.control_after, same_bits);
}

bool RobustSpatialRegression::forecast(const ElementWindows& w, Forecast& out,
                                       double effect_floor_kpi_units,
                                       const SharedDesign* shared) const {
  const std::size_t n_controls = w.control_before.size();
  if (n_controls == 0 || w.control_after.size() != n_controls) return false;
  if (w.study_before.observed_count() < 8 ||
      w.study_after.observed_count() < 4)
    return false;

  // The block's designs are this element's when its windows match the
  // block's source bit for bit; the check runs here, in the element's own
  // task.
  const SharedDesign* block =
      shared != nullptr && shared->params_ == params_ && shared->matches(w)
          ? shared
          : nullptr;
  ts::Matrix own_before, own_after;
  if (block == nullptr) {
    own_before = design_matrix(w.study_before, w.control_before);
    own_after = design_matrix(w.study_after, w.control_after);
  }
  const ts::Matrix& x_before = block ? block->x_before_ : own_before;
  const ts::Matrix& x_after = block ? block->x_after_ : own_after;

  const std::size_t k =
      effective_k(params_, n_controls, w.study_before.observed_count());
  if (k == 0) return false;
  const std::span<const double> y = w.study_before.values();
  // This thread's buffers, warm from its previous calls.
  thread_local ForecastScratch scratch;
  // The O(m·N²) panel precompute only pays off when enough iterations
  // amortize it (GramPanel::worthwhile); below the crossover every
  // iteration just runs QR, exactly as with the fast path disabled. The
  // decision deliberately ignores where a panel could come from (a block
  // makes the build free) so every run takes the same code path.
  const bool use_gram =
      params_.use_gram_fast_path &&
      ts::GramPanel::worthwhile(params_.n_iterations, k, x_before.cols());
  ts::GramSystem gram;
  if (use_gram) {
    // The block's panel when it built one; otherwise the element's own, a
    // panel's bits depending only on the design it is built from.
    const ts::GramPanel* panel =
        block != nullptr && block->use_gram_ ? &block->panel_ : nullptr;
    if (panel == nullptr) {
      obs::ScopedSpan span("panel-build");
      scratch.panel.rebuild(x_before);
      panel = &scratch.panel;
    }
    gram.bind(*panel, y, kWithIntercept);
  }
  // The block's first iterations are this element's when its k is the
  // block's (a subset depends only on the seed, the iteration and k) and
  // its system uses the panel's G verbatim, y observed on every panel row
  // (a block factor is of that G).
  const std::size_t n_shared =
      block != nullptr && block->k_ == k && gram.ok() && !gram.reduced()
          ? block->iterations_
          : 0;

  const std::vector<std::size_t> round_ends = round_schedule(params_);

  // Iterations run in index order on the calling thread, each drawing
  // from its own counter-based substream (base.fork(it) is a pure function
  // of seed and iteration index) or reading the block's draw, and predict
  // straight into their row of the forecast store. A round's iterations go
  // in batches of up to kLanes, fitted together; a batch never crosses a
  // round, so the stopping decision reads only completed rounds.
  const ts::Rng base(params_.seed);
  ts::LinearModel model;  // reused: the Gram solve keeps its capacity
  std::vector<double> r2s;
  std::size_t successes = 0;
  std::size_t attempted = 0;
  StopReason reason = StopReason::kBudgetExhausted;

  // Cross-checkpoint stability state (median-variant verdict seen at the
  // previous checkpoint, plus the current run of stable checkpoints).
  bool have_prev = false;
  RelativeChange prev_rel = RelativeChange::kNoChange;
  std::size_t streak = 0;
  const double z_crit = ts::normal_quantile(1.0 - kAlpha / 2.0);
  // Checkpoint scratch, hoisted so repeated checkpoints reuse capacity:
  // the adaptive win is a handful of saved Gram-path iterations, cheap
  // enough that per-checkpoint allocation would eat it.
  std::vector<double> diff_before_buf, diff_after_buf;
  // The forecast store: one row of `stride` doubles per successful
  // iteration, written in place by the two predict calls. A row's bins
  // past n_bins are NaN padding, so the last 8-bin group sorts whole.
  const bool use_median = params_.aggregation == ForecastAggregation::kMedian;
  const std::size_t n_before = w.study_before.size();
  const std::size_t n_after = w.study_after.size();
  const std::size_t n_bins = n_before + n_after;
  const std::size_t stride = (n_bins + 7) / 8 * 8;
  const std::size_t budget = params_.n_iterations;
  std::vector<double>& store = scratch.store;
  // n_iterations comes from the caller (--iterations): refuse a budget
  // whose store size would overflow rather than index past the buffer.
  if (budget > store.max_size() / stride)
    throw std::length_error("forecast: n_iterations too large");
  store.resize(budget * stride);
  r2s.reserve(budget);
  // The fit-quality histograms, resolved once per call: every name lookup
  // takes the registry's lock.
  obs::Histogram* r2_hist = nullptr;
  obs::Histogram* residual_hist = nullptr;
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    r2_hist = &reg.histogram("litmus.fit.r_squared");
    residual_hist = &reg.histogram("litmus.fit.residual_stddev");
  }

  constexpr std::size_t kLanes = ts::FactorBatch::kLanes;
  scratch.subsets.resize(kLanes * k);
  std::size_t round_begin = 0;
  for (std::size_t round = 0; round < round_ends.size(); ++round) {
  std::uint64_t failures = 0, gram_fast = 0, qr_fallback = 0;
  for (std::size_t first = round_begin; first < round_ends[round];
       first += kLanes) {
    const std::size_t lanes = std::min(kLanes, round_ends[round] - first);
    // The block shares whole batches, so a batch is all shared or all own.
    // Every iteration gets its sampling span, drawn or read from the block.
    const bool shared_batch = first < n_shared;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      obs::ScopedSpan span("sampling");
      if (shared_batch) continue;
      ts::Rng rng = base.fork(first + lane);
      ts::sample_without_replacement(rng, n_controls, k, scratch.pool,
                                     scratch.cols);
      std::copy(scratch.cols.begin(), scratch.cols.end(),
                scratch.subsets.begin() + lane * k);
    }
    const std::span<const std::size_t> subsets =
        shared_batch
            ? std::span<const std::size_t>(block->subsets_.data() + first * k,
                                           lanes * k)
            : std::span<const std::size_t>(scratch.subsets.data(), lanes * k);
    // The lanes whose subset the Gram system fits exactly are factored (or
    // read from the block) and solved together; the others go to QR.
    unsigned exact = 0;
    const ts::FactorBatch* factors =
        shared_batch ? &block->factors_[first / kLanes] : &scratch.factors;
    {
      obs::ScopedSpan span("fit");
      for (std::size_t lane = 0; gram.ok() && lane < lanes; ++lane)
        if (gram.subset_matches_panel(subsets.subspan(lane * k, k)))
          exact |= 1u << lane;
      if (exact != 0) {
        if (!shared_batch) gram.factor(subsets, k, scratch.factors);
        gram.solve(*factors, scratch.solved);
      }
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::span<const std::size_t> cols = subsets.subspan(lane * k, k);
      bool fast = false;
      {
        obs::ScopedSpan span("fit");
        fast = ((exact >> lane) & 1u) != 0 &&
               gram.model(*factors, scratch.solved, lane, model);
        if (!fast)
          model = ts::fit_ols(x_before.select_columns(cols), y, kWithIntercept);
      }
      if (use_gram) {
        if (fast)
          ++gram_fast;
        else
          ++qr_fallback;
      }
      if (r2_hist != nullptr && model.ok) {
        r2_hist->record(model.r_squared);
        residual_hist->record(model.residual_stddev);
      }
      if (!model.ok) {
        ++failures;
        continue;
      }
      double* row = store.data() + successes * stride;
      ++successes;
      r2s.push_back(model.r_squared);

      obs::ScopedSpan span("forecast");
      model.predict_columns_into(x_before, cols, {row, n_before});
      model.predict_columns_into(x_after, cols, {row + n_before, n_after});
      std::fill(row + n_bins, row + stride, ts::kMissing);
    }
  }
  const std::uint64_t iterations = round_ends[round] - round_begin;
  if (obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.counter("litmus.iterations").add(iterations);
    if (failures > 0) reg.counter("litmus.fit.failures").add(failures);
    if (gram_fast > 0) reg.counter("litmus.fit.gram").add(gram_fast);
    if (qr_fallback > 0)
      reg.counter("litmus.fit.qr_fallback").add(qr_fallback);
  }
  // Round-granular events (never per iteration): failed fits and
  // Gram->QR fallbacks are the anomalies an auditor greps for.
  if (auto* ev = obs::events()) {
    if (failures > 0)
      ev->emit(obs::EventType::kIterationRetry, [&](obs::JsonWriter& w2) {
        w2.member("stage", "fit")
            .member("failed", failures)
            .member("of", iterations);
      });
    if (qr_fallback > 0)
      ev->emit(obs::EventType::kFallbackQr, [&](obs::JsonWriter& w2) {
        w2.member("fallbacks", qr_fallback).member("of", iterations);
      });
  }
  attempted = round_ends[round];
  round_begin = round_ends[round];
  if (round + 1 == round_ends.size()) break;  // budget exhausted

  // --- Adaptive stability checkpoint (reached only with more rounds
  // pending, i.e. never adaptive-off). Applies the verdict rule —
  // decide(), as assess() does on the final aggregate — to three forecast
  // variants: the current aggregate and the two adversarial jackknife
  // extremes (every before-bin pushed one way, every after-bin the
  // other). Stable means all three agree decisively and match the
  // previous checkpoint; kStabilityRounds consecutive stable
  // checkpoints end the loop.
  if (successes == 0) {
    have_prev = false;
    streak = 0;
    continue;
  }
  {
    obs::ScopedSpan span("adaptive-check");
    aggregate(scratch, successes, n_bins, stride, use_median);
    const std::span<const BinBand> bands_before(scratch.bands.data(),
                                                n_before);
    const std::span<const BinBand> bands_after(
        scratch.bands.data() + n_before, n_after);

    // diff = study - forecast, so pairing a *low* before-forecast with a
    // *high* after-forecast yields the minimal apparent shift and the
    // opposite pairing the maximal one — the two extremes that bracket
    // the verdict's sensitivity to dropping any single iteration. The
    // diffs are built straight into flat buffers (a bin is observed when
    // both the study value and the forecast band exist — exactly minus()'s
    // missing rule, without materializing the intermediate series).
    auto eval_variant = [&](double BinBand::*pick_before,
                            double BinBand::*pick_after) {
      diff_before_buf.assign(n_before, ts::kMissing);
      for (std::size_t r = 0; r < n_before; ++r)
        if (!ts::is_missing(bands_before[r].med) &&
            !ts::is_missing(w.study_before[r]))
          diff_before_buf[r] = w.study_before[r] - bands_before[r].*pick_before;
      diff_after_buf.assign(n_after, ts::kMissing);
      for (std::size_t r = 0; r < n_after; ++r)
        if (!ts::is_missing(bands_after[r].med) &&
            !ts::is_missing(w.study_after[r]))
          diff_after_buf[r] = w.study_after[r] - bands_after[r].*pick_after;
      return decide(diff_after_buf, diff_before_buf, effect_floor_kpi_units,
                    params_.test);
    };
    const std::array<Decision, 3> variants = {
        eval_variant(&BinBand::med, &BinBand::med),
        eval_variant(&BinBand::lo, &BinBand::hi),   // minimal apparent shift
        eval_variant(&BinBand::hi, &BinBand::lo)};  // maximal apparent shift
    // The rank-order z is not the stability currency — near separation it
    // explodes (30 -> 47 from dropping one iteration) while the decision
    // is maximally settled, and for quiet nulls it wobbles by ~0.5 at any
    // small sample. What must be insensitive to the jackknife is the
    // *decision*: every variant agrees on the verdict AND clears both
    // thresholds (significance and materiality) with margin, jointly in
    // one regime. A z near the critical value or an effect near the floor
    // is borderline and keeps sampling until the budget runs out.
    bool stable = variants[0].usable && variants[1].usable &&
                  variants[2].usable &&
                  variants[1].relative == variants[0].relative &&
                  variants[2].relative == variants[0].relative;
    if (stable) {
      double min_absz = std::numeric_limits<double>::infinity();
      double max_absz = 0.0;
      double min_eff = std::numeric_limits<double>::infinity();
      double max_eff = 0.0;
      for (const Decision& v : variants) {
        if (ts::is_missing(v.statistic)) {
          stable = false;
          break;
        }
        min_absz = std::min(min_absz, std::fabs(v.statistic));
        max_absz = std::max(max_absz, std::fabs(v.statistic));
        min_eff = std::min(min_eff, std::fabs(v.effect));
        max_eff = std::max(max_eff, std::fabs(v.effect));
      }
      if (stable) {
        const bool decisively_null =
            max_absz <= z_crit - kStabilityZMargin;
        const bool decisively_immaterial =
            effect_floor_kpi_units > 0.0 &&
            max_eff <= effect_floor_kpi_units * 0.9;
        const bool decisively_shifted =
            min_absz >= z_crit + kStabilityZMargin &&
            (effect_floor_kpi_units <= 0.0 ||
             min_eff >= effect_floor_kpi_units * 1.1);
        stable = decisively_null || decisively_immaterial || decisively_shifted;
      }
    }
    // A stable checkpoint only extends the streak when the previous
    // checkpoint reached the same verdict; a verdict that moved between
    // checkpoints restarts the count even if each end looked decisive.
    const bool consistent = !have_prev || variants[0].relative == prev_rel;
    streak = stable ? (consistent ? streak + 1 : 1) : 0;
    have_prev = variants[0].usable;
    prev_rel = variants[0].relative;
  }
  if (streak >= kStabilityRounds) {
    reason = StopReason::kStableVerdict;
    break;
  }
  }  // round loop

  out.iterations_attempted = attempted;
  if (successes == 0) reason = StopReason::kFitFailures;
  out.stop_reason = reason;

  if (params_.adaptive_sampling && obs::enabled()) {
    auto& reg = obs::Registry::global();
    reg.histogram("litmus.adaptive.iterations_used")
        .record(static_cast<double>(attempted));
    if (reason == StopReason::kStableVerdict) {
      reg.counter("litmus.adaptive.stopped_early").add();
      reg.counter("litmus.adaptive.iterations_saved")
          .add(params_.n_iterations - attempted);
    }
  }
  if (reason == StopReason::kStableVerdict) {
    if (auto* ev = obs::events())
      ev->emit(obs::EventType::kAdaptiveStop, [&](obs::JsonWriter& w2) {
        w2.member("used", static_cast<std::uint64_t>(attempted))
            .member("budget",
                    static_cast<std::uint64_t>(params_.n_iterations));
      });
  }
  if (successes == 0) return false;

  out.effective_k = k;
  out.successful_iterations = successes;
  out.median_r_squared = ts::median(r2s);

  // A stable stop leaves the last checkpoint's bands, over these same
  // rows, in the scratch. A bin no iteration forecast has a missing med.
  if (reason != StopReason::kStableVerdict)
    aggregate(scratch, successes, n_bins, stride, use_median);
  out.median_forecast_before =
      ts::TimeSeries(w.study_before.start_bin(), n_before,
                     w.study_before.bin_minutes());
  for (std::size_t r = 0; r < n_before; ++r)
    out.median_forecast_before[r] = scratch.bands[r].med;

  out.median_forecast_after =
      ts::TimeSeries(w.study_after.start_bin(), n_after,
                     w.study_after.bin_minutes());
  for (std::size_t r = 0; r < n_after; ++r)
    out.median_forecast_after[r] = scratch.bands[n_before + r].med;

  out.forecast_diff_before =
      w.study_before.minus(out.median_forecast_before);
  out.forecast_diff_after = w.study_after.minus(out.median_forecast_after);
  return true;
}

AnalysisOutcome RobustSpatialRegression::assess(
    const ElementWindows& w, kpi::KpiId kpi,
    const SharedDesign* shared) const {
  AnalysisOutcome out;
  out.explanation.analyzer = name().data();
  out.explanation.aggregation =
      params_.aggregation == ForecastAggregation::kMedian ? "median" : "mean";
  out.explanation.test = params_.test == ComparisonTest::kRobustRankOrder
                             ? "robust_rank_order"
                             : "wilcoxon_mann_whitney";
  out.explanation.n_controls = w.control_before.size();
  out.explanation.iterations_requested = params_.n_iterations;
  out.explanation.alpha = kAlpha;
  out.explanation.adaptive_sampling = params_.adaptive_sampling;

  // The materiality floor feeds the adaptive stability check, so it is
  // resolved before the sampling loop runs.
  const double floor_kpi = effect_floor(kpi);

  Forecast fc;
  const bool ok = forecast(w, fc, floor_kpi, shared);
  out.explanation.iterations_used = fc.iterations_attempted;
  if (fc.iterations_attempted > 0)
    out.explanation.stop_reason = to_string(fc.stop_reason);
  if (!ok) {
    out.degenerate = true;
    out.explanation.note =
        "no usable forecast: empty/mismatched control group, too few "
        "observed study bins, or every sampling iteration failed to fit";
    return out;
  }
  out.explanation.effective_k = fc.effective_k;
  out.explanation.successful_iterations = fc.successful_iterations;

  Decision d;
  {
    obs::ScopedSpan span("rank-test");
    d = decide(fc.forecast_diff_after.values(),
               fc.forecast_diff_before.values(), floor_kpi, params_.test);
  }
  if (!d.usable) {
    out.degenerate = true;
    out.explanation.note =
        "fewer than 4 observed forecast-difference bins on one side";
    return out;
  }
  record_decision(d, kpi, out);
  out.fit_r_squared = fc.median_r_squared;
  return out;
}

}  // namespace litmus::core
