// Differential test of the resilient locator: tryLocate2D / tryLocate3D must
// equal, bit for bit, a stage-by-stage composition of the public API --
// health on the search grid, grid maximum plus refine rounds, spin
// diagnosis, intersection, orientation passes, confidence.  Positions,
// used/dropped rigs, grade and confidence are compared with ==.
//
// Four configurations: the default (720-point grid, diagnostics and
// consensus on), the fleet's (180 points, 4 refine rounds, diagnostics and
// consensus off), and each of them with an orientation model on every rig,
// where pass 0 runs the Q profile and so cannot read the health sweep.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/locator.hpp"
#include "core/orientation_calibration.hpp"
#include "core/power_profile.hpp"
#include "core/quality.hpp"
#include "core/spectrum.hpp"
#include "geom/angles.hpp"
#include "geom/ray.hpp"
#include "robust/consensus.hpp"
#include "robust/spectrum_diag.hpp"
#include "locator_scenes.hpp"

namespace tagspin::core {
namespace {

using testing::fleetConfig;
using testing::scene;

struct Composed {
  geom::Vec3 position;
  FixGrade grade = FixGrade::kFull;
  std::vector<size_t> used;
  std::vector<size_t> dropped;
  std::vector<RigDirection> directions;
  std::vector<robust::SpinVerdict> verdicts;
  double confidence = 0.0;
};

struct Bearing {
  RigDirection direction;
  std::vector<robust::BearingCandidate> candidates;
  robust::SpinDiagnostics spin;
};

/// Main peak plus, when diagnosing, the spin verdict and the secondary
/// candidates polished from grid resolution.
void diagnose(const LocatorConfig& config, const PowerProfile& profile,
              std::span<const double> samples, Bearing& b) {
  const double azimuth = b.direction.azimuth;
  b.candidates = {{geom::wrapTwoPi(azimuth), b.direction.peakValue}};
  if (!config.robust.diagnostics) return;
  const double gamma = b.direction.polar;
  const double ghost =
      1.0 - profile.weightStats(azimuth, gamma).effectiveFraction;
  b.spin = robust::diagnoseSpectrum(samples, ghost,
                                    config.robust.diagnosticsConfig);
  const size_t n = config.search.azimuthGridPoints;
  const double step = geom::kTwoPi / static_cast<double>(n);
  const double minSep =
      step * static_cast<double>(std::max<size_t>(
                 n / config.robust.diagnosticsConfig.minPeakSeparationDivisor,
                 1));
  for (size_t c = 1; c < b.spin.candidates.size(); ++c) {
    const double raw = b.spin.candidates[c].angleRad;
    if (geom::circularDistance(raw, azimuth) < minSep) continue;
    const AzimuthEstimate refined = refineAzimuthNear(
        profile, raw, step, config.search.refineRounds, gamma);
    b.candidates.push_back({refined.azimuth, refined.value});
  }
}

/// 2D bearing from a sweep on the search grid.
Bearing bearing2D(const LocatorConfig& config, const SpinSpectrum& spectrum) {
  Bearing b;
  const AzimuthEstimate est = estimateAzimuth(spectrum, config.search);
  b.direction = {est.azimuth, 0.0, est.value};
  diagnose(config, spectrum.profile, spectrum.samples, b);
  return b;
}

/// 2D bearing from a search of its own: estimateAzimuth on the profile
/// (grid phase plus refine rounds) and a separate sweep for the diagnosis,
/// the pipeline the locator ran before sweeps were shared.
Bearing freshBearing2D(const LocatorConfig& config,
                       const PowerProfile& profile) {
  Bearing b;
  const AzimuthEstimate est = estimateAzimuth(profile, config.search);
  b.direction = {est.azimuth, 0.0, est.value};
  diagnose(config, profile,
           profile.sampleAzimuth(config.search.azimuthGridPoints), b);
  return b;
}

Bearing bearing3D(const LocatorConfig& config, const PowerProfile& profile) {
  Bearing b;
  const SpatialEstimate est = estimateSpatial(profile, config.search);
  b.direction = {est.azimuth, est.polar, est.value};
  const std::vector<double> samples =
      profile.sampleAzimuth(config.search.azimuthGridPoints, est.polar);
  diagnose(config, profile, samples, b);
  return b;
}

struct Crossing {
  geom::Vec2 point;
  size_t behindOrigin = 0;
  bool consensus = false;
  double inlierFraction = 1.0;
};

Crossing intersect(const LocatorConfig& config,
                   std::span<const RigObservation> obs,
                   std::vector<Bearing>& bearings) {
  const size_t n = obs.size();
  if (config.robust.consensus && n >= 3) {
    std::vector<robust::BearingObservation> cands(n);
    for (size_t i = 0; i < n; ++i) {
      cands[i].origin = obs[i].rig.center.xy();
      cands[i].candidates = bearings[i].candidates;
    }
    if (const auto fix = robust::consensusIntersection(
            cands, config.robust.consensusConfig)) {
      for (size_t i = 0; i < n; ++i) {
        if (fix->chosen[i] >= 0) {
          const auto& c =
              bearings[i].candidates[static_cast<size_t>(fix->chosen[i])];
          bearings[i].direction.azimuth = c.angleRad;
          bearings[i].direction.peakValue = c.value;
        }
      }
      return {fix->position, fix->behindOrigin, true, fix->inlierFraction};
    }
  }
  std::vector<geom::Ray2> rays;
  for (size_t i = 0; i < n; ++i) {
    rays.push_back({obs[i].rig.center.xy(), bearings[i].direction.azimuth});
  }
  if (n == 2) {
    if (const auto hit = geom::intersectRays(rays[0], rays[1])) {
      return {hit->point,
              static_cast<size_t>(hit->t1 < 0.0) +
                  static_cast<size_t>(hit->t2 < 0.0)};
    }
  }
  const auto solved = geom::leastSquaresIntersectionDetailed(rays);
  EXPECT_TRUE(solved.has_value());
  return {solved->point, solved->behindOrigin};
}

/// How pass 0 finds a 2D bearing without an orientation model.
enum class Pass0 {
  kSharedSweep,  // refine the health sweep's grid maximum
  kFreshSearch,  // search the profile again (freshBearing2D)
};

Composed compose(const LocatorConfig& config,
                 const RigHealthThresholds& thresholds,
                 std::span<const RigObservation> all, bool threeD,
                 Pass0 pass0 = Pass0::kSharedSweep) {
  // Stage 1: one sweep per rig on the search grid; health from it.
  const robust::SpinDiagnosticsConfig* diag =
      config.robust.diagnostics ? &config.robust.diagnosticsConfig : nullptr;
  std::vector<std::optional<SpinSpectrum>> sweeps(all.size());
  std::vector<RigHealth> health;
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].snapshots.size() >= 2) {
      sweeps[i].emplace(PowerProfile(all[i].snapshots, all[i].rig.kinematics,
                                     config.profile),
                        config.search.azimuthGridPoints);
    }
    health.push_back(assessRigHealthFromSweep(
        all[i].snapshots, all[i].rig.kinematics,
        sweeps[i] ? &*sweeps[i] : nullptr, diag));
  }
  Composed out;
  for (size_t i = 0; i < all.size(); ++i) {
    (isHealthy(health[i], thresholds) ? out.used : out.dropped).push_back(i);
  }
  EXPECT_GE(out.used.size(), 2u) << "scenes are built to keep >= 2 rigs";
  out.grade = out.dropped.empty() ? FixGrade::kFull : FixGrade::kDegraded;
  std::vector<RigObservation> obs;
  for (size_t i : out.used) obs.push_back(all[i]);

  // Stage 2: pass 0 -- the health sweep's grid maximum plus refine rounds
  // when no model is installed, else a fresh sweep of the Q profile.
  const bool anyModel =
      config.orientationIterations > 0 &&
      std::any_of(obs.begin(), obs.end(), [](const RigObservation& o) {
        return !o.orientation.isIdentity();
      });
  ProfileConfig cfg0 = config.profile;
  if (anyModel) cfg0.formula = ProfileFormula::kRelativeQ;
  const auto estimate = [&](const std::vector<Snapshot>& snaps,
                            const RigSpec& rig, const ProfileConfig& cfg) {
    PowerProfile profile(snaps, rig.kinematics, cfg);
    if (threeD) return bearing3D(config, profile);
    return bearing2D(config, SpinSpectrum(std::move(profile),
                                          config.search.azimuthGridPoints));
  };
  std::vector<Bearing> bearings;
  for (size_t k = 0; k < obs.size(); ++k) {
    if (!anyModel && !threeD && pass0 == Pass0::kSharedSweep) {
      bearings.push_back(bearing2D(config, *sweeps[out.used[k]]));
    } else if (!anyModel && !threeD) {
      bearings.push_back(freshBearing2D(
          config, PowerProfile(obs[k].snapshots, obs[k].rig.kinematics,
                               config.profile)));
    } else {
      bearings.push_back(estimate(obs[k].snapshots, obs[k].rig, cfg0));
    }
  }
  // Stage 3: intersection, then the orientation-calibration passes.
  Crossing crossing = intersect(config, obs, bearings);
  if (anyModel) {
    for (int it = 0; it < config.orientationIterations; ++it) {
      const geom::Vec3 est3{crossing.point.x, crossing.point.y,
                            obs[0].rig.center.z};
      for (size_t k = 0; k < obs.size(); ++k) {
        bearings[k] = estimate(
            calibrateOrientationAtPosition(obs[k].snapshots, obs[k].rig,
                                           obs[k].orientation, est3),
            obs[k].rig, config.profile);
      }
      crossing = intersect(config, obs, bearings);
    }
  }
  for (const Bearing& b : bearings) {
    out.directions.push_back(b.direction);
    out.verdicts.push_back(b.spin.verdict);
  }

  // Stage 4: height (Eqn. 13) and confidence.
  double z = obs[0].rig.center.z;
  if (threeD) {
    double zAcc = 0.0, wAcc = 0.0;
    for (size_t k = 0; k < obs.size(); ++k) {
      const double horiz = (crossing.point - obs[k].rig.center.xy()).norm();
      const double w = std::max(out.directions[k].peakValue, 1e-9);
      // w * (horiz * tan), associated as locate3D computes it.
      zAcc += w * (horiz * std::tan(out.directions[k].polar));
      wAcc += w;
    }
    z += wAcc > 0.0 ? zAcc / wAcc : 0.0;
  }
  out.position = {crossing.point.x, crossing.point.y, z};
  std::vector<SpectrumQuality> spectra;
  std::vector<geom::Ray2> rays;
  for (size_t k = 0; k < obs.size(); ++k) {
    spectra.push_back(health[out.used[k]].spectrum);
    rays.push_back({obs[k].rig.center.xy(), out.directions[k].azimuth});
  }
  double penalty = 1.0;
  for (const robust::SpinVerdict v : out.verdicts) {
    if (v == robust::SpinVerdict::kSuspect) penalty *= 0.85;
    if (v == robust::SpinVerdict::kQuarantine) penalty *= 0.6;
  }
  if (crossing.behindOrigin > 0) penalty *= 0.6;
  if (crossing.consensus) penalty *= 0.5 + 0.5 * crossing.inlierFraction;
  const double grade = out.grade == FixGrade::kFull ? 1.0 : 0.7;
  out.confidence = grade *
                   fixConfidence(spectra, bearingGdop(rays, crossing.point)) *
                   penalty;
  return out;
}

template <class Fix>
void expectMatches(const Composed& want, const Fix& fix,
                   const ResilienceReport& report, const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(report.grade, want.grade);
  EXPECT_EQ(report.usedRigs, want.used);
  EXPECT_EQ(report.droppedRigs, want.dropped);
  EXPECT_EQ(report.confidence, want.confidence);
  ASSERT_EQ(fix.directions.size(), want.directions.size());
  for (size_t k = 0; k < want.directions.size(); ++k) {
    EXPECT_EQ(fix.directions[k].azimuth, want.directions[k].azimuth);
    EXPECT_EQ(fix.directions[k].polar, want.directions[k].polar);
    EXPECT_EQ(fix.directions[k].peakValue, want.directions[k].peakValue);
  }
  std::vector<robust::SpinVerdict> verdicts;
  for (const auto& spin : fix.estimation.spins) verdicts.push_back(spin.verdict);
  EXPECT_EQ(verdicts, want.verdicts);
}

struct Case {
  const char* name;
  LocatorConfig config;
  bool oriented;
};

std::vector<Case> cases() {
  return {{"default", LocatorConfig{}, false},
          {"default+model", LocatorConfig{}, true},
          {"fleet", fleetConfig(), false},
          {"fleet+model", fleetConfig(), true}};
}

TEST(LocatorDifferential, TryLocate2DEqualsStageComposition) {
  const std::vector<geom::Vec3> readers{{0.8, 2.0, 0.0}, {-0.9, 1.6, 0.0}};
  for (const Case& c : cases()) {
    const Locator locator(c.config);
    for (const geom::Vec3& reader : readers) {
      const std::vector<RigObservation> obs = scene(reader, c.oriented);
      const Result<ResilientFix2D> fix = locator.tryLocate2D(obs);
      ASSERT_TRUE(fix) << c.name << ": " << fix.error().message;
      const Composed want = compose(c.config, {}, obs, /*threeD=*/false);
      EXPECT_EQ(fix->fix.position.x, want.position.x) << c.name;
      EXPECT_EQ(fix->fix.position.y, want.position.y) << c.name;
      EXPECT_FALSE(fix->report.droppedRigs.empty()) << c.name;
      expectMatches(want, fix->fix, fix->report, c.name);
    }
  }
}

TEST(LocatorDifferential, TryLocate3DEqualsStageComposition) {
  const geom::Vec3 reader{0.7, 1.9, 0.5};
  for (const Case& c : cases()) {
    const Locator locator(c.config);
    const std::vector<RigObservation> obs = scene(reader, c.oriented);
    const Result<ResilientFix3D> fix = locator.tryLocate3D(obs);
    ASSERT_TRUE(fix) << c.name << ": " << fix.error().message;
    const Composed want = compose(c.config, {}, obs, /*threeD=*/true);
    EXPECT_EQ(fix->fix.position.x, want.position.x) << c.name;
    EXPECT_EQ(fix->fix.position.y, want.position.y) << c.name;
    EXPECT_EQ(fix->fix.position.z, want.position.z) << c.name;
    expectMatches(want, fix->fix, fix->report, c.name);
  }
}

TEST(LocatorDifferential, SharedSweepMatchesFreshSearchOnDefaultConfig) {
  // On the default configuration the health sweep and the search share the
  // 720-point grid, so reading the sweep must reproduce the fresh search
  // bit for bit -- positions included.
  const LocatorConfig config;
  const Locator locator(config);
  for (const geom::Vec3& reader :
       {geom::Vec3{0.8, 2.0, 0.0}, geom::Vec3{-0.9, 1.6, 0.0}}) {
    const std::vector<RigObservation> obs = scene(reader, false);
    const Result<ResilientFix2D> fix = locator.tryLocate2D(obs);
    ASSERT_TRUE(fix) << fix.error().message;
    const Composed fresh =
        compose(config, {}, obs, /*threeD=*/false, Pass0::kFreshSearch);
    EXPECT_EQ(fix->fix.position.x, fresh.position.x);
    EXPECT_EQ(fix->fix.position.y, fresh.position.y);
    expectMatches(fresh, fix->fix, fix->report, "fresh search");
  }
}

}  // namespace
}  // namespace tagspin::core
