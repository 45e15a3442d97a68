#include "dsp/grid.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "geom/angles.hpp"

namespace tagspin::dsp {
namespace {

using geom::circularDistance;
using geom::kTwoPi;

TEST(SampleCircular, CountAndSpacing) {
  const auto samples = sampleCircular([](double x) { return x; }, 8);
  ASSERT_EQ(samples.size(), 8u);
  EXPECT_DOUBLE_EQ(samples[0], 0.0);
  EXPECT_NEAR(samples[1], kTwoPi / 8.0, 1e-12);
  EXPECT_NEAR(samples[7], 7.0 * kTwoPi / 8.0, 1e-12);
}

// Sweep of peak locations: the circular maximizer must find them all,
// including peaks near the 0/2*pi seam.
class CircularMaxSweep : public ::testing::TestWithParam<double> {};

TEST_P(CircularMaxSweep, FindsVonMisesPeak) {
  const double center = GetParam();
  auto f = [&](double x) { return std::exp(4.0 * std::cos(x - center)); };
  const GridMax1D best = maximizeCircular(f, 360, 8);
  EXPECT_LT(circularDistance(best.x, center), 1e-3);
  EXPECT_NEAR(best.value, std::exp(4.0), std::exp(4.0) * 1e-5);
}

TEST_P(CircularMaxSweep, CoarseFineAgrees) {
  const double center = GetParam();
  auto f = [&](double x) { return std::exp(4.0 * std::cos(x - center)); };
  const GridMax1D exhaustive = maximizeCircular(f, 720, 8);
  const GridMax1D cf = maximizeCircularCoarseFine(f, 90, 64, 8);
  EXPECT_LT(circularDistance(cf.x, exhaustive.x), 1e-3);
}

INSTANTIATE_TEST_SUITE_P(PeakPositions, CircularMaxSweep,
                         ::testing::Values(0.0, 0.01, 1.0, 2.2,
                                           std::numbers::pi, 4.4, 6.0,
                                           kTwoPi - 0.01));

TEST(MaximizeCircular, IsGridPhaseThenRefinePhase) {
  // A presampled grid refined separately is the exhaustive search.
  auto f = [](double x) { return std::sin(3.0 * x) + 0.4 * std::cos(x - 2.0); };
  for (size_t n : {7u, 180u, 720u}) {
    const std::vector<double> samples = sampleCircular(f, n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(samples[i], f(circularGridAngle(i, n)));
    }
    const GridMax1D split = refineCircular(f, argmaxCircular(samples), n, 5);
    const GridMax1D whole = maximizeCircular(f, n, 5);
    EXPECT_EQ(split.x, whole.x);
    EXPECT_EQ(split.value, whole.value);
  }
}

TEST(ArgmaxCircular, FirstMaximumWins) {
  const std::vector<double> samples{1.0, 3.0, 2.0, 3.0};
  const GridMax1D best = argmaxCircular(samples);
  EXPECT_EQ(best.x, circularGridAngle(1, 4));
  EXPECT_EQ(best.value, 3.0);
}

TEST(MaximizeCircular, ResultInRange) {
  auto f = [](double x) { return std::cos(x - 6.1); };
  const GridMax1D best = maximizeCircular(f, 100, 6);
  EXPECT_GE(best.x, 0.0);
  EXPECT_LT(best.x, kTwoPi);
}

TEST(MaximizeRect, FindsTwoDGaussian) {
  const double cx = 2.5, cy = 0.4;
  auto f = [&](double x, double y) {
    const double dx = geom::wrapToPi(x - cx);
    const double dy = y - cy;
    return std::exp(-(dx * dx + dy * dy) * 8.0);
  };
  const GridMax2D best = maximizeRect(f, -1.0, 1.0, 180, 41, 8);
  EXPECT_LT(circularDistance(best.x, cx), 1e-3);
  EXPECT_NEAR(best.y, cy, 1e-3);
  EXPECT_NEAR(best.value, 1.0, 1e-5);
}

TEST(MaximizeRect, EvaluatesEachGridPointOnce) {
  // Interior peak: every refinement round evaluates all 24 neighbours.
  const double cx = 2.5, cy = 0.4;
  size_t calls = 0;
  auto f = [&](double x, double y) {
    ++calls;
    const double dx = geom::wrapToPi(x - cx);
    const double dy = y - cy;
    return std::exp(-(dx * dx + dy * dy) * 8.0);
  };
  const GridMax2D best = maximizeRect(f, -1.0, 1.0, 180, 41, 8);
  EXPECT_EQ(calls, 180u * 41u + 24u * 8u);
  EXPECT_LT(circularDistance(best.x, cx), 1e-3);
  EXPECT_NEAR(best.y, cy, 1e-3);

  // A flat function ties everywhere: the first grid point (0, ymin) stays
  // the maximum, and each round evaluates only the 14 neighbours with
  // y >= ymin.
  calls = 0;
  auto flat = [&](double, double) {
    ++calls;
    return 1.0;
  };
  const GridMax2D first = maximizeRect(flat, -1.0, 1.0, 16, 21, 5);
  EXPECT_EQ(calls, 16u * 21u + 14u * 5u);
  EXPECT_EQ(first.x, 0.0);
  EXPECT_EQ(first.y, -1.0);
  EXPECT_EQ(first.value, 1.0);
}

TEST(MaximizeRect, RespectsYBounds) {
  // The unconstrained maximum sits at y = 2, outside [ -1, 1 ]; the search
  // must return the best feasible point (y = 1).
  auto f = [](double, double y) { return -(y - 2.0) * (y - 2.0); };
  const GridMax2D best = maximizeRect(f, -1.0, 1.0, 16, 21, 8);
  EXPECT_NEAR(best.y, 1.0, 1e-9);
}

TEST(MaximizeRect, SingleRowGrid) {
  auto f = [](double x, double) { return std::cos(x - 1.0); };
  const GridMax2D best = maximizeRect(f, 0.0, 0.0, 360, 1, 6);
  EXPECT_LT(circularDistance(best.x, 1.0), 1e-3);
  EXPECT_DOUBLE_EQ(best.y, 0.0);
}

TEST(MaximizeCircularCoarseFine, SharpPeakNeedsAdequateCoarseGrid) {
  // A very sharp peak: the two-stage search still finds it when the coarse
  // grid is at least as fine as the peak width.
  const double center = 3.0;
  auto f = [&](double x) { return std::exp(40.0 * (std::cos(x - center) - 1.0)); };
  const GridMax1D best = maximizeCircularCoarseFine(f, 180, 64, 8);
  EXPECT_LT(circularDistance(best.x, center), 1e-3);
}

}  // namespace
}  // namespace tagspin::dsp
