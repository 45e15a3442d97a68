// Locator test scenes shared by the locator differential test and the
// profile-kernel oracle: three clean rigs, two rigs carrying a ghost
// reader's reports, and a starved rig, optionally with an orientation
// effect on every tag (and a fitted model on every rig).
#pragma once

#include <cmath>
#include <utility>
#include <vector>

#include "core/locator.hpp"
#include "core/orientation_calibration.hpp"
#include "geom/angles.hpp"
#include "synthetic.hpp"

namespace tagspin::core::testing {

inline double orientationEffect(double rho) {
  return 0.33 * std::cos(2.0 * rho);
}

inline RigObservation makeObservation(const geom::Vec3& center,
                                      const geom::Vec3& reader, uint64_t seed,
                                      bool oriented, size_t count = 300) {
  RigObservation obs;
  obs.rig.center = center;
  obs.rig.kinematics = defaultKinematics();
  obs.rig.kinematics.initialAngle = 0.17 * static_cast<double>(seed);
  const geom::Vec3 d = reader - center;
  SyntheticConfig sc;
  sc.distanceM = d.norm();
  sc.readerAzimuth = geom::azimuthOf(center, reader);
  sc.readerPolar = std::atan2(d.z, d.xy().norm());
  sc.noiseStd = 0.08;
  sc.seed = seed;
  sc.thetaDiv = 0.3 + 0.7 * static_cast<double>(seed);
  sc.count = count;
  sc.durationS = 15.0;
  if (oriented) sc.orientation = orientationEffect;
  obs.snapshots = makeSnapshots(sc, obs.rig.kinematics);
  return obs;
}

inline OrientationModel fittedModel() {
  const RigKinematics center{0.0, 0.5, 0.0, geom::kPi / 2.0};
  SyntheticConfig fit;
  fit.count = 1200;
  fit.orientation = orientationEffect;
  fit.noiseStd = 0.05;
  return OrientationModel::fit(makeSnapshots(fit, center), center,
                               fit.readerAzimuth);
}

/// Three clean rigs, one rig whose reports are half a ghost reader's (its
/// spectrum is ambiguous: diagnosis and consensus have work to do), and a
/// starved rig below the snapshot gate (dropped).
inline std::vector<RigObservation> scene(const geom::Vec3& reader,
                                         bool oriented) {
  std::vector<RigObservation> obs;
  const std::vector<double> xs{-0.6, -0.2, 0.2, 0.6};
  for (size_t i = 0; i < xs.size(); ++i) {
    obs.push_back(
        makeObservation({xs[i], 0.0, 0.0}, reader, i + 1, oriented));
  }
  // Rig 1 hears a ghost reader in every other report (quarantined, so
  // dropped), rig 2 in every third (a usable spin with a ghost lobe).
  for (const auto& [rig, every] : {std::pair{size_t{1}, size_t{2}},
                                   std::pair{size_t{2}, size_t{3}}}) {
    const RigObservation ghost =
        makeObservation(obs[rig].rig.center, {-1.4, 1.0, reader.z},
                        0x6057 + rig, oriented);
    for (size_t i = 0; i < obs[rig].snapshots.size(); i += every) {
      obs[rig].snapshots[i] = ghost.snapshots[i];
    }
  }
  obs.push_back(makeObservation({0.0, -0.4, 0.0}, reader, 9, oriented, 10));
  if (oriented) {
    const OrientationModel model = fittedModel();
    for (RigObservation& o : obs) o.orientation = model;
  }
  return obs;
}

inline LocatorConfig fleetConfig() {
  LocatorConfig lc;
  lc.search.azimuthGridPoints = 180;
  lc.search.refineRounds = 4;
  lc.orientationIterations = 1;
  lc.robust.diagnostics = false;
  lc.robust.consensus = false;
  return lc;
}

}  // namespace tagspin::core::testing
