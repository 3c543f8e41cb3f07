// A steady-state sampling iteration allocates nothing: forecast() keeps
// its per-iteration buffers and the flat forecast store in thread_local
// scratch that stays warm from one call to the next. A replaced global
// operator new counts the calling thread's allocations over one warm
// forecast().
//
// The throwing and the nothrow operator new are both replaced, counted
// alike, and so is every delete they pair with, all on malloc/free.
// std::stable_sort takes its buffer from the nothrow new and returns it
// through the plain delete; under ASan, its own nothrow new freed by the
// delete below would be an alloc-dealloc mismatch.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>

#include "litmus/spatial_regression.h"
#include "obs/metrics.h"
#include "test_windows.h"

namespace {

// Counted only on the thread that sets t_counting, and only while it is
// set: other threads, and every other test in this binary, allocate as
// usual.
thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

}  // namespace

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (t_counting) ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace litmus::core {
namespace {

using testing::WindowSpec;
using testing::make_windows;

// What a warm forecast() allocated when the forecast store first moved
// into per-thread scratch, on both shapes below and at both budgets: the
// two design matrices, the four output series, the study series' Gram
// binding and the call's own small vectors (round schedule, R² values,
// the reused model's coefficients); their number does not depend on
// the budget.
constexpr std::size_t kWarmCallAllocations = 14;

// Heap allocations the calling thread makes during one forecast().
std::size_t allocations_of(const RobustSpatialRegression& algo,
                           const ElementWindows& w,
                           const SharedDesign* shared = nullptr) {
  RobustSpatialRegression::Forecast out;
  t_allocations = 0;
  t_counting = true;
  const bool ok = algo.forecast(w, out, 0.0, shared);
  t_counting = false;
  EXPECT_TRUE(ok);
  return t_allocations;
}

TEST(ForecastAllocations, SteadyStateIterationAllocatesNothing) {
  obs::set_enabled(false);  // metric lookups would allocate per iteration
  struct Shape {
    std::size_t before, after, controls;
  };
  for (const Shape shape : {Shape{48, 24, 39}, Shape{336, 168, 60}}) {
    SCOPED_TRACE(std::to_string(shape.before) + "+" +
                 std::to_string(shape.after) + " bins x " +
                 std::to_string(shape.controls) + " controls");
    WindowSpec spec;
    spec.before = shape.before;
    spec.after = shape.after;
    spec.n_controls = shape.controls;
    spec.seed = 5;
    const ElementWindows w = make_windows(spec);  // complete panel
    std::size_t counts[2] = {};
    for (const std::size_t budget : {25u, 50u}) {
      SpatialRegressionParams params;
      params.n_iterations = budget;
      const RobustSpatialRegression algo(params);
      RobustSpatialRegression::Forecast warm;
      ASSERT_TRUE(algo.forecast(w, warm));  // sizes this thread's scratch
      counts[budget == 50u] = allocations_of(algo, w);
    }
    // Twice the iterations, not one allocation more: no iteration
    // allocates. And no more than before: the call allocates no buffer of
    // its own that the scratch already holds, such as the forecast store.
    EXPECT_EQ(counts[0], counts[1]);
    EXPECT_LE(counts[0], kWarmCallAllocations);
  }
}

// A warm study element on its assessment's shared block: the element reads
// the designs, the panel, the subsets and the factors, so it allocates less
// than a warm call of its own and still nothing per iteration.
TEST(ForecastAllocations, WarmElementOnSharedBlockAllocatesNothingPerIteration) {
  obs::set_enabled(false);
  WindowSpec spec;
  spec.before = 336;
  spec.after = 168;
  spec.n_controls = 60;
  spec.seed = 5;
  const ElementWindows source = make_windows(spec);
  const ElementWindows sibling = source;  // another element, same controls
  std::size_t counts[2] = {};
  for (const std::size_t budget : {25u, 50u}) {
    SpatialRegressionParams params;
    params.n_iterations = budget;
    const RobustSpatialRegression algo(params);
    const SharedDesign block(params, source);
    RobustSpatialRegression::Forecast warm;
    ASSERT_TRUE(algo.forecast(sibling, warm, 0.0, &block));
    const std::size_t own = allocations_of(algo, sibling);
    counts[budget == 50u] = allocations_of(algo, sibling, &block);
    EXPECT_LT(counts[budget == 50u], own);
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_LE(counts[0], kWarmCallAllocations);
}

}  // namespace
}  // namespace litmus::core
