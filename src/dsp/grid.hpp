// Grid-search maximisation on circular and rectangular domains.
//
// The angle spectrum is a smooth function of the candidate direction; the
// paper traverses "all possible angles" on a grid.  We provide the exhaustive
// traversal plus a coarse-to-fine refinement used by the perf ablation.
#pragma once

#include <cmath>
#include <concepts>
#include <numbers>
#include <span>
#include <vector>

namespace tagspin::dsp {

struct GridMax1D {
  double x = 0.0;      // argmax
  double value = 0.0;  // function value at argmax
};

struct GridMax2D {
  double x = 0.0;
  double y = 0.0;
  double value = 0.0;
};

/// Angle of point i of the n-point uniform grid on [0, 2*pi).  Every
/// circular grid (sampling, search, spectrum diagnostics) uses this one
/// formula, so samples taken once can stand in for a search's grid phase.
inline double circularGridAngle(size_t i, size_t n) {
  return static_cast<double>(i) *
         (2.0 * std::numbers::pi / static_cast<double>(n));
}

/// Evaluate `f` at the n points of the circular grid and return the
/// sampled values (samples[i] at circularGridAngle(i, n)).
template <std::invocable<double> F>
std::vector<double> sampleCircular(F&& f, size_t n) {
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) out[i] = f(circularGridAngle(i, n));
  return out;
}

/// Grid phase of maximizeCircular: the first maximum of a circular-grid
/// sample (at least one sample required).
inline GridMax1D argmaxCircular(std::span<const double> samples) {
  GridMax1D best{0.0, samples[0]};
  for (size_t i = 1; i < samples.size(); ++i) {
    if (samples[i] > best.value) {
      best = {circularGridAngle(i, samples.size()), samples[i]};
    }
  }
  return best;
}

/// Refine phase of maximizeCircular: `refineRounds` of local 3-point
/// zooming around a grid maximum of the n-point grid (each round halves
/// the bracket, starting at one grid step), wrapped to [0, 2*pi).
template <std::invocable<double> F>
GridMax1D refineCircular(F&& f, GridMax1D best, size_t n, int refineRounds) {
  const double twoPi = 2.0 * std::numbers::pi;
  double halfSpan = twoPi / static_cast<double>(n);
  for (int round = 0; round < refineRounds; ++round) {
    const double candidates[4] = {best.x - halfSpan, best.x - halfSpan / 2.0,
                                  best.x + halfSpan / 2.0, best.x + halfSpan};
    for (double c : candidates) {
      const double v = f(c);
      if (v > best.value) best = {c, v};
    }
    halfSpan /= 2.0;
  }
  best.x = std::fmod(best.x + twoPi, twoPi);
  return best;
}

/// Exhaustive maximisation of `f` over [0, 2*pi) on an n-point grid (n >= 1)
/// followed by `refineRounds` of local zooming.
template <std::invocable<double> F>
GridMax1D maximizeCircular(F&& f, size_t n = 720, int refineRounds = 6) {
  return refineCircular(f, argmaxCircular(sampleCircular(f, n)), n,
                        refineRounds);
}

/// Maximisation over the rectangle [0, 2*pi) x [ymin, ymax] on an
/// (nx x ny) grid (nx, ny >= 1) with local refinement; used for the
/// (azimuth, polar) spectrum of section V-B.  f is called once per grid
/// point, in row-major order from (0, ymin), then once per in-range
/// neighbour of each refinement round; ties keep the earlier point.
template <std::invocable<double, double> F>
GridMax2D maximizeRect(F&& f, double ymin, double ymax, size_t nx = 360,
                       size_t ny = 91, int refineRounds = 6) {
  const double twoPi = 2.0 * std::numbers::pi;
  const double xstep = twoPi / static_cast<double>(nx);
  const double ystep = ny > 1 ? (ymax - ymin) / static_cast<double>(ny - 1) : 0.0;
  GridMax2D best{0.0, ymin, 0.0};
  for (size_t i = 0; i < nx; ++i) {
    const double x = static_cast<double>(i) * xstep;
    for (size_t j = 0; j < ny; ++j) {
      const double y = ymin + static_cast<double>(j) * ystep;
      const double v = f(x, y);
      if ((i == 0 && j == 0) || v > best.value) best = {x, y, v};
    }
  }
  double hx = xstep;
  double hy = std::max(ystep, 1e-6);
  for (int round = 0; round < refineRounds; ++round) {
    for (int dx = -2; dx <= 2; ++dx) {
      for (int dy = -2; dy <= 2; ++dy) {
        if (dx == 0 && dy == 0) continue;
        const double x = best.x + dx * hx / 2.0;
        double y = best.y + dy * hy / 2.0;
        if (y < ymin || y > ymax) continue;
        const double v = f(x, y);
        if (v > best.value) best = {x, y, v};
      }
    }
    hx /= 2.0;
    hy /= 2.0;
  }
  best.x = std::fmod(best.x + twoPi, twoPi);
  return best;
}

/// Two-stage coarse-to-fine circular maximisation: a coarse grid of
/// `nCoarse` points selects a bracket which is then searched with a dense
/// local grid.  Equivalent result to maximizeCircular for unimodal-enough
/// profiles at a fraction of the evaluations; benchmarked in perf_profiles.
template <std::invocable<double> F>
GridMax1D maximizeCircularCoarseFine(F&& f, size_t nCoarse = 90,
                                     size_t nFine = 64, int refineRounds = 4) {
  const double twoPi = 2.0 * std::numbers::pi;
  const double coarseStep = twoPi / static_cast<double>(nCoarse);
  GridMax1D best{0.0, f(0.0)};
  for (size_t i = 1; i < nCoarse; ++i) {
    const double x = static_cast<double>(i) * coarseStep;
    const double v = f(x);
    if (v > best.value) best = {x, v};
  }
  const double lo = best.x - coarseStep;
  const double fineStep = 2.0 * coarseStep / static_cast<double>(nFine);
  for (size_t i = 0; i <= nFine; ++i) {
    const double x = lo + static_cast<double>(i) * fineStep;
    const double v = f(x);
    if (v > best.value) best = {x, v};
  }
  double halfSpan = fineStep;
  for (int round = 0; round < refineRounds; ++round) {
    for (double c : {best.x - halfSpan, best.x + halfSpan}) {
      const double v = f(c);
      if (v > best.value) best = {c, v};
    }
    halfSpan /= 2.0;
  }
  best.x = std::fmod(best.x + twoPi, twoPi);
  return best;
}

}  // namespace tagspin::dsp
