// Angle-spectrum estimation: searching the power profile for its peak.
//
// 2D: the azimuth of the maximum of the profile over [0, 2*pi).
// 3D: the (azimuth, polar) pair maximising the profile; since cos(gamma) is
// even, the spectrum is exactly mirror-symmetric in gamma and the search
// reports the non-negative-polar peak (the caller resolves the sign with
// scene knowledge, paper section V-B).
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/power_profile.hpp"

namespace tagspin::core {

struct AzimuthEstimate {
  double azimuth = 0.0;  // [0, 2*pi)
  double value = 0.0;    // profile value at the peak
};

struct SpatialEstimate {
  double azimuth = 0.0;
  double polar = 0.0;  // reported as |gamma| in [0, pi/2]
  double value = 0.0;
};

/// One sweep of a rig's azimuth spectrum (gamma = 0) on an n-point grid:
/// the profile, its samples (samples[i] at dsp::circularGridAngle(i, n))
/// and the grid maximum.  A fix sweeps each rig once on the search grid
/// and every consumer reads that sweep: the rig-health check, the grid
/// phase of the bearing search and the spin diagnosis.
struct SpinSpectrum {
  /// Samples `profile` on `gridPoints` (>= 1) points.
  SpinSpectrum(PowerProfile profile, size_t gridPoints);

  PowerProfile profile;
  std::vector<double> samples;
  AzimuthEstimate gridPeak;  // first maximum of `samples`
};

AzimuthEstimate estimateAzimuth(const PowerProfile& profile,
                                const SearchConfig& search);

/// The same search over an already-swept spectrum: only the refine rounds
/// run, from the sweep's grid maximum.  Bit-identical to estimateAzimuth on
/// spectrum.profile when the sweep ran on search.azimuthGridPoints points.
AzimuthEstimate estimateAzimuth(const SpinSpectrum& spectrum,
                                const SearchConfig& search);

/// Same search performed coarse-to-fine; identical result for well-formed
/// profiles at a fraction of the evaluations (ablated in perf_profiles).
AzimuthEstimate estimateAzimuthCoarseFine(const PowerProfile& profile,
                                          const SearchConfig& search);

SpatialEstimate estimateSpatial(const PowerProfile& profile,
                                const SearchConfig& search);

/// Locally refine an azimuth around `seedRad` within +-halfSpanRad (dense
/// local grid plus the same halving zoom estimateAzimuth finishes with).
/// Used to polish *secondary* candidate peaks -- a grid-resolution ghost
/// candidate that wins the consensus vote should enter the intersection
/// with the same precision as a full-search main peak.
AzimuthEstimate refineAzimuthNear(const PowerProfile& profile, double seedRad,
                                  double halfSpanRad, int refineRounds,
                                  double gamma = 0.0);

}  // namespace tagspin::core
