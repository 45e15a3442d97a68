#include "core/spectrum.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dsp/grid.hpp"
#include "geom/angles.hpp"

namespace tagspin::core {

SpinSpectrum::SpinSpectrum(PowerProfile p, size_t gridPoints)
    : profile(std::move(p)), samples(profile.sampleAzimuth(gridPoints)) {
  const dsp::GridMax1D peak = dsp::argmaxCircular(samples);
  gridPeak = {peak.x, peak.value};
}

AzimuthEstimate estimateAzimuth(const PowerProfile& profile,
                                const SearchConfig& search) {
  const auto best = dsp::maximizeCircular(
      [&](double phi) { return profile.evaluate(phi); },
      search.azimuthGridPoints, search.refineRounds);
  return {best.x, best.value};
}

AzimuthEstimate estimateAzimuth(const SpinSpectrum& spectrum,
                                const SearchConfig& search) {
  const auto best = dsp::refineCircular(
      [&](double phi) { return spectrum.profile.evaluate(phi); },
      dsp::GridMax1D{spectrum.gridPeak.azimuth, spectrum.gridPeak.value},
      spectrum.samples.size(), search.refineRounds);
  return {best.x, best.value};
}

AzimuthEstimate estimateAzimuthCoarseFine(const PowerProfile& profile,
                                          const SearchConfig& search) {
  const auto best = dsp::maximizeCircularCoarseFine(
      [&](double phi) { return profile.evaluate(phi); },
      search.azimuthGridPoints / 8, 64, search.refineRounds);
  return {best.x, best.value};
}

AzimuthEstimate refineAzimuthNear(const PowerProfile& profile, double seedRad,
                                  double halfSpanRad, int refineRounds,
                                  double gamma) {
  double bestX = seedRad;
  double bestV = profile.evaluate(seedRad, gamma);
  constexpr int kGridHalf = 8;
  for (int i = -kGridHalf; i <= kGridHalf; ++i) {
    if (i == 0) continue;
    const double x =
        seedRad + halfSpanRad * static_cast<double>(i) / kGridHalf;
    const double v = profile.evaluate(x, gamma);
    if (v > bestV) {
      bestX = x;
      bestV = v;
    }
  }
  double halfSpan = halfSpanRad / kGridHalf;
  for (int round = 0; round < refineRounds; ++round) {
    const double candidates[4] = {bestX - halfSpan, bestX - halfSpan / 2.0,
                                  bestX + halfSpan / 2.0, bestX + halfSpan};
    for (double c : candidates) {
      const double v = profile.evaluate(c, gamma);
      if (v > bestV) {
        bestX = c;
        bestV = v;
      }
    }
    halfSpan /= 2.0;
  }
  return {geom::wrapTwoPi(bestX), bestV};
}

SpatialEstimate estimateSpatial(const PowerProfile& profile,
                                const SearchConfig& search) {
  // The profile depends on gamma only through cos(gamma), so it is exactly
  // mirror-symmetric about the horizontal plane (the paper's two symmetric
  // peaks); searching the non-negative half suffices.
  const double lo = std::max(search.polarMin, 0.0);
  const double hi = std::max(search.polarMax, lo);
  const auto best = dsp::maximizeRect(
      [&](double phi, double gamma) { return profile.evaluate(phi, gamma); },
      lo, hi, search.azimuthGridPoints / 2,
      std::max<size_t>(search.polarGridPoints / 2, 2), search.refineRounds);
  return {best.x, std::abs(best.y), best.value};
}

}  // namespace tagspin::core
