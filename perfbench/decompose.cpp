#include "decompose.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <random>

#include "core/orientation_calibration.hpp"
#include "core/power_profile.hpp"
#include "core/quality.hpp"
#include "core/spectrum.hpp"
#include "geom/angles.hpp"
#include "geom/ray.hpp"
#include "robust/bootstrap.hpp"
#include "robust/consensus.hpp"
#include "robust/spectrum_diag.hpp"

namespace perfbench {

using namespace tagspin;

namespace {

/// Evaluations of one refineAzimuthNear call: the seed, a 16-point local
/// grid, then four candidates per refine round.
uint64_t refineEvals(int refineRounds) {
  return 1 + 16 + 4 * static_cast<uint64_t>(refineRounds);
}

class Pass {
 public:
  Pass(const core::LocatorConfig& config, Tracer& tracer, uint64_t request,
       DecomposedFix& out)
      : config_(config), tracer_(tracer), request_(request), out_(out) {}

  struct Bearing {
    std::vector<robust::BearingCandidate> candidates;
  };

  /// One rig's profile, sweep and (optional) spin diagnosis.
  void estimateRig(std::span<const core::Snapshot> snaps,
                   const core::RigSpec& rig, const core::ProfileConfig& cfg,
                   bool threeD, core::RigDirection& direction,
                   Bearing& bearing) {
    std::optional<core::PowerProfile> profile;
    {
      ScopedSpan span(tracer_, "profile.build", request_);
      profile.emplace(snaps, rig.kinematics, cfg);
    }
    const core::SearchConfig& search = config_.search;
    const uint64_t n = snaps.size();
    if (threeD) {
      const auto start = Clock::now();
      core::SpatialEstimate est;
      {
        ScopedSpan span(tracer_, "spectrum.estimate_spatial", request_);
        est = core::estimateSpatial(*profile, search);
      }
      const uint64_t evals =
          1 +
          (search.azimuthGridPoints / 2) *
              std::max<uint64_t>(search.polarGridPoints / 2, 2) +
          24 * static_cast<uint64_t>(search.refineRounds);
      out_.searchEvals += evals;
      out_.spatialSweep.seconds += secondsSince(start);
      out_.spatialSweep.snapshotEvals += evals * n;
      direction = {est.azimuth, est.polar, est.value};
    } else {
      const auto start = Clock::now();
      core::AzimuthEstimate est;
      {
        ScopedSpan span(tracer_, "spectrum.estimate_azimuth", request_);
        est = core::estimateAzimuth(*profile, search);
      }
      const uint64_t evals =
          search.azimuthGridPoints +
          4 * static_cast<uint64_t>(search.refineRounds);
      out_.searchEvals += evals;
      out_.flatSweep.seconds += secondsSince(start);
      out_.flatSweep.snapshotEvals += evals * n;
      direction = {est.azimuth, 0.0, est.value};
    }
    bearing = diagnose(*profile, direction.azimuth, direction.peakValue,
                       direction.polar);
  }

  /// Mirror of the locator's bearing diagnosis: the full azimuth sample,
  /// the ghost score, the verdict, and polished secondary candidates.
  Bearing diagnose(const core::PowerProfile& profile, double azimuth,
                   double value, double gamma) {
    Bearing bearing;
    bearing.candidates.push_back({geom::wrapTwoPi(azimuth), value});
    if (!config_.robust.diagnostics) return bearing;
    ScopedSpan span(tracer_, "robust.diagnose", request_);
    const size_t gridPoints = config_.search.azimuthGridPoints;
    const std::vector<double> samples =
        profile.sampleAzimuth(gridPoints, gamma);
    const double ghost =
        1.0 - profile.weightStats(azimuth, gamma).effectiveFraction;
    const robust::SpinDiagnostics spin = robust::diagnoseSpectrum(
        samples, ghost, config_.robust.diagnosticsConfig);
    out_.diagEvals += gridPoints + 1;
    const double gridStep = geom::kTwoPi / static_cast<double>(gridPoints);
    const double minSep =
        gridStep *
        static_cast<double>(std::max<size_t>(
            gridPoints /
                config_.robust.diagnosticsConfig.minPeakSeparationDivisor,
            1));
    for (size_t c = 1; c < spin.candidates.size(); ++c) {
      const auto& raw = spin.candidates[c];
      if (geom::circularDistance(raw.angleRad, azimuth) < minSep) continue;
      const core::AzimuthEstimate refined = core::refineAzimuthNear(
          profile, raw.angleRad, gridStep, config_.search.refineRounds, gamma);
      out_.diagEvals += refineEvals(config_.search.refineRounds);
      bearing.candidates.push_back({refined.azimuth, refined.value});
    }
    return bearing;
  }

  /// Mirror of the locator's bearing intersection (consensus when enabled
  /// and three or more rigs, else the exact or least-squares crossing).
  std::optional<geom::Vec2> intersect(
      std::span<const core::RigObservation> obs,
      std::span<const Bearing> bearings,
      std::vector<core::RigDirection>& directions) {
    const size_t n = obs.size();
    if (config_.robust.consensus && n >= 3) {
      std::vector<robust::BearingObservation> candidates(n);
      for (size_t i = 0; i < n; ++i) {
        candidates[i].origin = obs[i].rig.center.xy();
        candidates[i].candidates = bearings[i].candidates;
      }
      std::optional<robust::ConsensusFix> consensus;
      {
        ScopedSpan span(tracer_, "robust.consensus", request_);
        consensus = robust::consensusIntersection(
            candidates, config_.robust.consensusConfig);
      }
      if (consensus) {
        for (size_t i = 0; i < n; ++i) {
          const int c = consensus->chosen[i];
          if (c >= 0) {
            const auto& cand =
                bearings[i].candidates[static_cast<size_t>(c)];
            directions[i].azimuth = cand.angleRad;
            directions[i].peakValue = cand.value;
          }
        }
        return consensus->position;
      }
    }
    ScopedSpan span(tracer_, "geom.intersect", request_);
    std::vector<geom::Ray2> rays;
    rays.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rays.push_back({obs[i].rig.center.xy(), directions[i].azimuth});
    }
    if (rays.size() == 2) {
      if (const auto hit = geom::intersectRays(rays[0], rays[1])) {
        return hit->point;
      }
    }
    const auto solved = geom::leastSquaresIntersectionDetailed(rays);
    if (!solved) return std::nullopt;
    return solved->point;
  }

  /// Mirror of the locator's bootstrap confidence ellipse.
  void bootstrap(std::span<const core::RigObservation> obs,
                 std::span<const core::RigDirection> directions,
                 const geom::Vec2& position) {
    ScopedSpan span(tracer_, "robust.bootstrap", request_);
    const geom::Vec3 est3{position.x, position.y, obs[0].rig.center.z};
    std::vector<robust::BearingSamples> rays(obs.size());
    for (size_t i = 0; i < obs.size(); ++i) {
      const core::RigObservation& o = obs[i];
      rays[i].origin = o.rig.center.xy();
      rays[i].bearingRad = directions[i].azimuth;
      const bool calibrate = !o.orientation.isIdentity() &&
                             config_.orientationIterations > 0;
      std::vector<core::Snapshot> corrected;
      if (calibrate) {
        ScopedSpan inner(tracer_, "robust.bootstrap.calibrate", request_);
        corrected = core::calibrateOrientationAtPosition(
            o.snapshots, o.rig, o.orientation, est3);
      }
      const std::vector<core::Snapshot>& snaps =
          calibrate ? corrected : o.snapshots;
      if (snaps.size() < 16) continue;
      std::mt19937_64 rng(config_.robust.bootstrapSeed ^
                          (0x9E3779B97F4A7C15ULL * (i + 1)));
      std::vector<size_t> idx(snaps.size());
      std::iota(idx.begin(), idx.end(), size_t{0});
      const size_t half = snaps.size() / 2;
      std::vector<core::Snapshot> subset;
      subset.reserve(half);
      const uint64_t evals =
          config_.search.azimuthGridPoints / 8 + 65 +
          2 * static_cast<uint64_t>(config_.search.refineRounds);
      for (int k = 0; k < config_.robust.bearingSubsamples; ++k) {
        std::shuffle(idx.begin(), idx.end(), rng);
        std::sort(idx.begin(), idx.begin() + static_cast<long>(half));
        subset.clear();
        for (size_t j = 0; j < half; ++j) subset.push_back(snaps[idx[j]]);
        std::optional<core::PowerProfile> profile;
        {
          ScopedSpan inner(tracer_, "robust.bootstrap.profile", request_);
          profile.emplace(subset, o.rig.kinematics, config_.profile);
        }
        const auto start = Clock::now();
        core::AzimuthEstimate est;
        {
          ScopedSpan inner(tracer_, "robust.bootstrap.sweep", request_);
          est = core::estimateAzimuthCoarseFine(*profile, config_.search);
        }
        out_.flatSweep.seconds += secondsSince(start);
        out_.flatSweep.snapshotEvals += evals * half;
        out_.bootstrapEvals += evals;
        rays[i].deviationsRad.push_back(
            geom::wrapToPi(est.azimuth - rays[i].bearingRad));
      }
    }
    robust::BootstrapConfig bc;
    bc.replicates = config_.robust.bootstrapReplicates;
    bc.confidenceLevel = config_.robust.confidenceLevel;
    bc.seed = config_.robust.bootstrapSeed;
    bc.resampleRays = config_.robust.pairsBootstrap;
    ScopedSpan inner(tracer_, "robust.bootstrap.ellipse", request_);
    (void)robust::bootstrapEllipse(rays, position, bc);
  }

  Tracer& tracer() { return tracer_; }
  uint64_t request() const { return request_; }

 private:
  const core::LocatorConfig& config_;
  Tracer& tracer_;
  uint64_t request_;
  DecomposedFix& out_;
};

double fallbackScore(const core::RigHealth& h) {
  const double count =
      std::min(static_cast<double>(h.snapshotCount), 64.0) / 64.0;
  return h.arcCoverage * std::max(h.spectrum.peakValue, 1e-6) * count;
}

/// Mirror of the locator's rig selection: every healthy rig, else the two
/// best minimally usable ones.
std::vector<size_t> selectRigs(const core::LocatorConfig& config,
                               const core::RigHealthThresholds& thresholds,
                               std::span<const core::RigObservation> obs,
                               Tracer& tracer, uint64_t request,
                               DecomposedFix& out) {
  const robust::SpinDiagnosticsConfig* diag =
      config.robust.diagnostics ? &config.robust.diagnosticsConfig : nullptr;
  std::vector<core::RigHealth> health;
  for (const core::RigObservation& o : obs) {
    ScopedSpan span(tracer, "quality.assess_rig_health", request);
    health.push_back(core::assessRigHealth(o.snapshots, o.rig.kinematics,
                                           config.profile, diag));
    // The health sweep samples a fixed 720-point grid (core/quality.cpp),
    // plus one weight pass for the ghost score when diagnosing.
    if (o.snapshots.size() >= 2) out.healthEvals += 720 + (diag ? 1 : 0);
  }
  std::vector<size_t> used;
  for (size_t i = 0; i < obs.size(); ++i) {
    if (core::isHealthy(health[i], thresholds)) used.push_back(i);
  }
  if (used.size() >= 2) return used;
  used.clear();
  for (size_t i = 0; i < obs.size(); ++i) {
    const core::RigHealth& h = health[i];
    if (h.snapshotCount >= 2 && h.arcCoverage > 0.0 &&
        h.spectrum.peakValue > 0.0) {
      used.push_back(i);
    }
  }
  if (used.size() < 2) return {};
  std::sort(used.begin(), used.end(), [&](size_t a, size_t b) {
    return fallbackScore(health[a]) > fallbackScore(health[b]);
  });
  used.resize(2);
  std::sort(used.begin(), used.end());
  return used;
}

}  // namespace

DecomposedFix decomposeFix(const core::LocatorConfig& config,
                           const core::RigHealthThresholds& thresholds,
                           std::span<const core::RigObservation> observations,
                           bool threeD, Tracer& tracer, uint64_t request) {
  DecomposedFix out;
  if (observations.size() < 2) return out;
  const std::vector<size_t> usedIdx =
      selectRigs(config, thresholds, observations, tracer, request, out);
  if (usedIdx.size() < 2) return out;
  std::vector<core::RigObservation> used;
  for (size_t i : usedIdx) used.push_back(observations[i]);

  Pass pass(config, tracer, request, out);
  const bool anyModel =
      config.orientationIterations > 0 &&
      std::any_of(used.begin(), used.end(), [](const core::RigObservation& o) {
        return !o.orientation.isIdentity();
      });
  core::ProfileConfig cfg0 = config.profile;
  if (anyModel && cfg0.formula == core::ProfileFormula::kEnhancedR) {
    cfg0.formula = core::ProfileFormula::kRelativeQ;
  }

  out.directions.resize(used.size());
  std::vector<Pass::Bearing> bearings(used.size());
  for (size_t i = 0; i < used.size(); ++i) {
    pass.estimateRig(used[i].snapshots, used[i].rig, cfg0, threeD,
                     out.directions[i], bearings[i]);
  }
  std::optional<geom::Vec2> xy = pass.intersect(used, bearings, out.directions);
  if (!xy) return out;

  if (anyModel) {
    for (int it = 0; it < config.orientationIterations; ++it) {
      const geom::Vec3 est3{xy->x, xy->y, used[0].rig.center.z};
      for (size_t i = 0; i < used.size(); ++i) {
        std::vector<core::Snapshot> snaps;
        {
          ScopedSpan span(tracer, "orientation.calibrate", request);
          snaps = core::calibrateOrientationAtPosition(
              used[i].snapshots, used[i].rig, used[i].orientation, est3);
        }
        pass.estimateRig(snaps, used[i].rig, config.profile, threeD,
                         out.directions[i], bearings[i]);
      }
      xy = pass.intersect(used, bearings, out.directions);
      if (!xy) return out;
    }
  }
  if (config.robust.bootstrap) pass.bootstrap(used, out.directions, *xy);

  double z = 0.0;
  if (threeD) {
    // Eqn. 13, as the locator balances it.
    double zAcc = 0.0;
    double wAcc = 0.0;
    for (size_t i = 0; i < used.size(); ++i) {
      const geom::Vec3& c = used[i].rig.center;
      const double horiz = (*xy - c.xy()).norm();
      const double zk = horiz * std::tan(out.directions[i].polar);
      const double w = std::max(out.directions[i].peakValue, 1e-9);
      zAcc += w * zk;
      wAcc += w;
    }
    const double zMag = wAcc > 0.0 ? zAcc / wAcc : 0.0;
    const double zPlane = used[0].rig.center.z;
    z = config.zResolution == core::ZResolution::kNonPositive ? zPlane - zMag
                                                              : zPlane + zMag;
  } else {
    z = used[0].rig.center.z;
  }
  out.position = {xy->x, xy->y, z};
  out.ok = true;
  return out;
}

void DecompositionTally::add(const DecomposedFix& fix, double locatorS,
                             double childS, bool match) {
  ++fixes;
  if (match) ++matches;
  locatorSeconds += locatorS;
  childSeconds += childS;
  healthEvals += fix.healthEvals;
  searchEvals += fix.searchEvals;
  diagEvals += fix.diagEvals;
  bootstrapEvals += fix.bootstrapEvals;
  flatSweep.seconds += fix.flatSweep.seconds;
  flatSweep.snapshotEvals += fix.flatSweep.snapshotEvals;
  spatialSweep.seconds += fix.spatialSweep.seconds;
  spatialSweep.snapshotEvals += fix.spatialSweep.snapshotEvals;
}

void DecompositionTally::fill(
    MetricSheet& sheet,
    const std::map<std::string, Tracer::Totals>& totals) const {
  if (fixes == 0) return;
  const double n = static_cast<double>(fixes);
  const auto perFix = [n](uint64_t count) {
    return static_cast<double>(count) / n;
  };
  const auto nsPerEval = [](const SweepTally& t) {
    return t.snapshotEvals == 0
               ? 0.0
               : t.seconds * 1e9 / static_cast<double>(t.snapshotEvals);
  };
  const uint64_t allEvals =
      healthEvals + searchEvals + diagEvals + bootstrapEvals;
  sheet.set("quality.health_us_per_rig",
            perCall(totals, "quality.assess_rig_health", 1e6));
  sheet.set("quality.health_evals_per_fix", perFix(healthEvals));
  sheet.set("quality.health_eval_share",
            allEvals == 0 ? 0.0
                          : static_cast<double>(healthEvals) /
                                static_cast<double>(allEvals));
  sheet.set("profile.build_us_per_rig", perCall(totals, "profile.build", 1e6));
  sheet.set("profile.ns_per_snapshot_eval", nsPerEval(flatSweep));
  sheet.set("profile.ns_per_snapshot_eval_3d", nsPerEval(spatialSweep));
  sheet.set("spectrum.azimuth_us_per_rig",
            perCall(totals, "spectrum.estimate_azimuth", 1e6));
  sheet.set("spectrum.spatial_ms_per_rig",
            perCall(totals, "spectrum.estimate_spatial", 1e3));
  sheet.set("spectrum.search_evals_per_fix", perFix(searchEvals));
  sheet.set("orientation.apply_us_per_rig",
            perCall(totals, "orientation.calibrate", 1e6));
  sheet.set("robust.diagnose_us_per_rig",
            perCall(totals, "robust.diagnose", 1e6));
  sheet.set("robust.diag_evals_per_fix", perFix(diagEvals));
  sheet.set("robust.consensus_us_per_fix",
            totalSeconds(totals, "robust.consensus") / n * 1e6);
  sheet.set("robust.bootstrap_ms_per_fix",
            totalSeconds(totals, "robust.bootstrap") / n * 1e3);
  sheet.set("robust.bootstrap_evals_per_fix", perFix(bootstrapEvals));
  sheet.set("locator.fix_ms", locatorSeconds / n * 1e3);
  sheet.set("locator.fix_self_ms", (locatorSeconds - childSeconds) / n * 1e3);
  sheet.set("locator.attributed_ratio",
            locatorSeconds > 0.0 ? childSeconds / locatorSeconds : 0.0);
  sheet.set("locator.decomposition_match_ratio",
            static_cast<double>(matches) / n);
}

}  // namespace perfbench
