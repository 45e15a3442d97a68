// Shared synthetic-snapshot generator for the core tests: phases produced
// directly from the paper's signal model (no simulator), with controllable
// noise, orientation effect, outliers and channel structure.
#pragma once

#include <cmath>
#include <functional>
#include <random>
#include <vector>

#include "core/snapshot.hpp"
#include "geom/angles.hpp"

namespace tagspin::core::testing {

struct SyntheticConfig {
  double lambdaM = 0.325;
  double distanceM = 2.0;          // D, rig center to reader
  double readerAzimuth = 1.0;      // phi_R
  double readerPolar = 0.0;        // gamma_R (3D)
  double thetaDiv = 1.23;
  double noiseStd = 0.0;
  double outlierProb = 0.0;
  size_t count = 800;
  double durationS = 30.0;
  uint64_t seed = 7;
  /// Optional orientation effect g(rho); rho derived from the kinematics.
  std::function<double(double)> orientation;
};

inline RigKinematics defaultKinematics() {
  return {0.10, 0.5, 0.0, geom::kPi / 2.0};
}

/// Snapshots following theta = (4*pi/lambda) (D - r cos(a - phi) cos(gamma))
/// + theta_div + g(rho) + noise (mod 2*pi).
inline std::vector<Snapshot> makeSnapshots(
    const SyntheticConfig& cfg,
    const RigKinematics& kin = defaultKinematics()) {
  std::mt19937_64 rng(cfg.seed);
  // The distribution requires stddev > 0; at zero noise it is never drawn.
  std::normal_distribution<double> noise(
      0.0, cfg.noiseStd > 0.0 ? cfg.noiseStd : 1.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_real_distribution<double> burst(-geom::kPi, geom::kPi);

  std::vector<Snapshot> snaps;
  snaps.reserve(cfg.count);
  const double cg = std::cos(cfg.readerPolar);
  for (size_t i = 0; i < cfg.count; ++i) {
    const double t =
        cfg.durationS * static_cast<double>(i) / static_cast<double>(cfg.count);
    const double a = kin.diskAngle(t);
    const double d =
        cfg.distanceM - kin.radiusM * std::cos(a - cfg.readerAzimuth) * cg;
    double phase = 4.0 * geom::kPi / cfg.lambdaM * d + cfg.thetaDiv;
    if (cfg.orientation) {
      const double rho = geom::wrapTwoPi(a + kin.tagPlaneOffset -
                                         cfg.readerAzimuth);
      phase += cfg.orientation(rho);
    }
    phase += (cfg.noiseStd > 0.0) ? noise(rng) : 0.0;
    if (cfg.outlierProb > 0.0 && coin(rng) < cfg.outlierProb) {
      phase += burst(rng);
    }
    Snapshot s;
    s.timeS = t;
    s.phaseRad = geom::wrapTwoPi(phase);
    s.lambdaM = cfg.lambdaM;
    s.channel = 0;
    s.rssiDbm = -50.0;
    snaps.push_back(s);
  }
  return snaps;
}

}  // namespace tagspin::core::testing
