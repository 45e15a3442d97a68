#include "core/locator.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <optional>
#include <random>
#include <stdexcept>

#include "core/power_profile.hpp"
#include "geom/angles.hpp"
#include "obs/span.hpp"

namespace tagspin::core {

Locator::Locator(LocatorConfig config) : config_(config) {}

Locator::Instruments Locator::Instruments::resolve(
    obs::MetricsRegistry* registry) {
  Instruments in;
  if (!registry) return in;
  in.fix2dAttempts = registry->counter("locator.fix2d_attempts");
  in.fix2dOk = registry->counter("locator.fix2d_ok");
  in.fix3dAttempts = registry->counter("locator.fix3d_attempts");
  in.fix3dOk = registry->counter("locator.fix3d_ok");
  in.fallbackMinimal = registry->counter("locator.fallback_minimal");
  in.degraded = registry->counter("locator.degraded");
  in.confidenceDowngrades = registry->counter("locator.confidence_downgrades");
  in.rigsDropped = registry->counter("locator.rigs_dropped");
  in.quarantinedSpins = registry->counter("robust.quarantined_spins");
  in.suspectSpins = registry->counter("robust.suspect_spins");
  in.behindOriginRays = registry->counter("robust.behind_origin_rays");
  in.consensusFixes = registry->counter("robust.consensus_fixes");
  in.bootstrapRuns = registry->counter("robust.bootstrap_runs");
  in.inlierFraction = registry->gauge("robust.inlier_fraction");
  in.ellipseAreaCm2 = registry->gauge("robust.ellipse_area_cm2");
  in.rigHealth = registry->histogram("span.rig_health");
  in.profileEval = registry->histogram("span.profile_eval");
  in.spectrumSearch = registry->histogram("span.spectrum_search");
  in.diagnose = registry->histogram("span.diagnose");
  in.consensus = registry->histogram("span.consensus");
  in.bootstrap = registry->histogram("span.bootstrap");
  in.calibrate = registry->histogram("span.calibrate");
  in.fix2d = registry->histogram("span.fix2d");
  in.fix3d = registry->histogram("span.fix3d");
  return in;
}

void Locator::setMetrics(obs::MetricsRegistry* registry) {
  obs_ = Instruments::resolve(registry);
}

PowerProfile Locator::timedProfile(const std::vector<Snapshot>& snaps,
                                   const RigSpec& rig,
                                   const ProfileConfig& cfg) const {
  TAGSPIN_SPAN(obs_.profileEval);
  return PowerProfile(snaps, rig.kinematics, cfg);
}

SpinSpectrum Locator::timedSpectrum(const std::vector<Snapshot>& snaps,
                                    const RigSpec& rig,
                                    const ProfileConfig& cfg) const {
  PowerProfile profile = timedProfile(snaps, rig, cfg);
  TAGSPIN_SPAN(obs_.spectrumSearch);
  return SpinSpectrum(std::move(profile), config_.search.azimuthGridPoints);
}

AzimuthEstimate Locator::timedAzimuth(const std::vector<Snapshot>& snaps,
                                      const RigSpec& rig,
                                      const ProfileConfig& cfg) const {
  const PowerProfile profile = timedProfile(snaps, rig, cfg);
  TAGSPIN_SPAN(obs_.spectrumSearch);
  return estimateAzimuth(profile, config_.search);
}

SpatialEstimate Locator::timedSpatial(const std::vector<Snapshot>& snaps,
                                      const RigSpec& rig,
                                      const ProfileConfig& cfg) const {
  std::optional<PowerProfile> profile;
  {
    TAGSPIN_SPAN(obs_.profileEval);
    profile.emplace(snaps, rig.kinematics, cfg);
  }
  TAGSPIN_SPAN(obs_.spectrumSearch);
  return estimateSpatial(*profile, config_.search);
}

/// Fold one resilient fix's degradation report into the locator.* counters.
void Locator::noteResilientOutcome(const ResilienceReport& report) const {
  if (report.grade == FixGrade::kMinimal) obs::add(obs_.fallbackMinimal);
  if (report.grade == FixGrade::kDegraded) obs::add(obs_.degraded);
  if (report.grade != FixGrade::kFull) obs::add(obs_.confidenceDowngrades);
  obs::add(obs_.rigsDropped, report.droppedRigs.size());
  // Quarantined rigs that selectRigs dropped never reach locate2D/3D, so
  // their verdicts are counted here (used rigs are counted per-fix in
  // noteEstimationOutcome).
  for (size_t i : report.droppedRigs) {
    const auto verdict = report.rigHealth[i].spin.verdict;
    if (verdict == robust::SpinVerdict::kQuarantine) {
      obs::add(obs_.quarantinedSpins);
    }
  }
}

void Locator::noteEstimationOutcome(
    const EstimationDiagnostics& estimation) const {
  for (const auto& spin : estimation.spins) {
    if (spin.verdict == robust::SpinVerdict::kSuspect) {
      obs::add(obs_.suspectSpins);
    } else if (spin.verdict == robust::SpinVerdict::kQuarantine) {
      obs::add(obs_.quarantinedSpins);
    }
  }
  obs::add(obs_.behindOriginRays, estimation.behindOriginRays);
  if (estimation.consensusUsed) obs::add(obs_.consensusFixes);
  obs::set(obs_.inlierFraction, estimation.inlierFraction);
}

std::vector<Snapshot> Locator::calibrated(const RigObservation& obs,
                                          double azimuthEstimate) const {
  TAGSPIN_SPAN(obs_.calibrate);
  return calibrateOrientation(obs.snapshots, obs.rig.kinematics,
                              obs.orientation, azimuthEstimate);
}

std::vector<Snapshot> Locator::calibrated(const RigObservation& obs,
                                          const geom::Vec3& position) const {
  TAGSPIN_SPAN(obs_.calibrate);
  return calibrateOrientationAtPosition(obs.snapshots, obs.rig,
                                        obs.orientation, position);
}

namespace {

/// The orientation-calibration loop needs a starting azimuth before any
/// correction is available.  The enhanced profile's Gaussian weights assume
/// orientation-free residuals, so the *initial* estimate uses the relative
/// profile Q, which is robust to the (still uncorrected) orientation offset;
/// later iterations switch to the configured formula.
ProfileConfig bootstrapConfig(ProfileConfig base) {
  if (base.formula == ProfileFormula::kEnhancedR) {
    base.formula = ProfileFormula::kRelativeQ;
  }
  return base;
}

}  // namespace

RigDirection Locator::estimateDirection2D(const RigObservation& obs) const {
  const bool calibrate =
      !obs.orientation.isIdentity() && config_.orientationIterations > 0;
  const ProfileConfig firstConfig =
      calibrate ? bootstrapConfig(config_.profile) : config_.profile;
  AzimuthEstimate est = timedAzimuth(obs.snapshots, obs.rig, firstConfig);
  if (calibrate) {
    for (int it = 0; it < config_.orientationIterations; ++it) {
      const std::vector<Snapshot> snaps = calibrated(obs, est.azimuth);
      est = timedAzimuth(snaps, obs.rig, config_.profile);
    }
  }
  return {est.azimuth, 0.0, est.value};
}

RigDirection Locator::estimateDirection3D(const RigObservation& obs) const {
  const bool calibrate =
      !obs.orientation.isIdentity() && config_.orientationIterations > 0;
  const ProfileConfig firstConfig =
      calibrate ? bootstrapConfig(config_.profile) : config_.profile;
  SpatialEstimate est = timedSpatial(obs.snapshots, obs.rig, firstConfig);
  if (calibrate) {
    for (int it = 0; it < config_.orientationIterations; ++it) {
      const std::vector<Snapshot> snaps = calibrated(obs, est.azimuth);
      est = timedSpatial(snaps, obs.rig, config_.profile);
    }
  }
  return {est.azimuth, est.polar, est.value};
}

void Locator::bearing2D(const SpinSpectrum& spectrum, RigDirection& direction,
                        RigBearing& bearing) const {
  AzimuthEstimate est;
  {
    TAGSPIN_SPAN(obs_.spectrumSearch);
    est = estimateAzimuth(spectrum, config_.search);
  }
  direction = {est.azimuth, 0.0, est.value};
  TAGSPIN_SPAN(obs_.diagnose);
  bearing = diagnoseBearing(spectrum.profile, spectrum.samples, est.azimuth,
                            est.value, 0.0);
}

void Locator::bearing3D(const std::vector<Snapshot>& snaps,
                        const RigSpec& rig, const ProfileConfig& cfg,
                        RigDirection& direction, RigBearing& bearing) const {
  const PowerProfile profile = timedProfile(snaps, rig, cfg);
  SpatialEstimate est;
  {
    TAGSPIN_SPAN(obs_.spectrumSearch);
    est = estimateSpatial(profile, config_.search);
  }
  direction = {est.azimuth, est.polar, est.value};
  TAGSPIN_SPAN(obs_.diagnose);
  // The diagnosis reads the azimuth spectrum at the peak's polar angle, so
  // the health check's gamma = 0 sweep cannot stand in for it.
  const std::vector<double> samples =
      config_.robust.diagnostics
          ? profile.sampleAzimuth(config_.search.azimuthGridPoints, est.polar)
          : std::vector<double>{};
  bearing = diagnoseBearing(profile, samples, est.azimuth, est.value,
                            est.polar);
}

Locator::RigBearing Locator::diagnoseBearing(const PowerProfile& profile,
                                             std::span<const double> samples,
                                             double azimuth, double value,
                                             double gamma) const {
  RigBearing bearing;
  bearing.candidates.push_back({geom::wrapTwoPi(azimuth), value});
  if (!config_.robust.diagnostics) return bearing;
  const double ghost =
      1.0 - profile.weightStats(azimuth, gamma).effectiveFraction;
  bearing.spin = robust::diagnoseSpectrum(samples, ghost,
                                          config_.robust.diagnosticsConfig);
  // Secondary candidates, each polished from grid resolution to search
  // precision; skip anything that duplicates the refined main peak.
  const double gridStep =
      geom::kTwoPi / static_cast<double>(config_.search.azimuthGridPoints);
  const double minSep =
      gridStep * static_cast<double>(std::max<size_t>(
                     config_.search.azimuthGridPoints /
                         config_.robust.diagnosticsConfig
                             .minPeakSeparationDivisor,
                     1));
  for (size_t c = 1; c < bearing.spin.candidates.size(); ++c) {
    const auto& raw = bearing.spin.candidates[c];
    if (geom::circularDistance(raw.angleRad, azimuth) < minSep) continue;
    const AzimuthEstimate refined = refineAzimuthNear(
        profile, raw.angleRad, gridStep, config_.search.refineRounds, gamma);
    bearing.candidates.push_back({refined.azimuth, refined.value});
  }
  return bearing;
}

geom::Vec2 Locator::intersectBearings(
    std::span<const RigObservation> observations,
    std::span<const RigBearing> bearings, std::span<RigDirection> directions,
    EstimationDiagnostics& estimation, double* residualOut) const {
  const size_t n = observations.size();
  // The orientation-calibration loop re-enters here; reset per-ray state.
  estimation.consensusUsed = false;
  estimation.inlierFraction = 1.0;
  estimation.inliers.clear();
  estimation.rayT.clear();
  estimation.behindOriginRays = 0;

  if (config_.robust.consensus && n >= 3) {
    std::vector<robust::BearingObservation> candidates(n);
    for (size_t i = 0; i < n; ++i) {
      candidates[i].origin = observations[i].rig.center.xy();
      candidates[i].candidates = bearings[i].candidates;
    }
    const auto consensus = [&] {
      TAGSPIN_SPAN(obs_.consensus);
      return robust::consensusIntersection(candidates,
                                           config_.robust.consensusConfig);
    }();
    if (consensus) {
      for (size_t i = 0; i < n; ++i) {
        const int c = consensus->chosen[i];
        if (c >= 0) {
          const auto& cand = bearings[i].candidates[static_cast<size_t>(c)];
          directions[i].azimuth = cand.angleRad;
          directions[i].peakValue = cand.value;
        }
      }
      estimation.consensusUsed = true;
      estimation.inlierFraction = consensus->inlierFraction;
      estimation.inliers = consensus->inlier;
      estimation.rayT = consensus->rayT;
      estimation.behindOriginRays = consensus->behindOrigin;
      if (residualOut) *residualOut = consensus->residualM;
      return consensus->position;
    }
    // No two candidate rays support each other (e.g. a near-parallel
    // bundle); fall back to the classic main-peak intersection below.
  }

  std::vector<geom::Ray2> rays;
  rays.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rays.push_back({observations[i].rig.center.xy(), directions[i].azimuth});
  }
  if (rays.size() == 2) {
    // Two rigs: the exact intersection (the robust form of Eqn. 9; the
    // literal tan()-based intersectEqn9 is *never* on this path -- it goes
    // blind near the tan poles, see the regression test).
    const auto hit = geom::intersectRays(rays[0], rays[1]);
    if (hit) {
      estimation.rayT = {hit->t1, hit->t2};
      estimation.behindOriginRays =
          static_cast<size_t>(hit->t1 < 0.0) +
          static_cast<size_t>(hit->t2 < 0.0);
      if (residualOut) *residualOut = geom::rmsResidual(rays, hit->point);
      return hit->point;
    }
  }
  const auto solved = geom::leastSquaresIntersectionDetailed(rays);
  if (!solved) {
    throw std::runtime_error(
        "locate: rig rays are parallel; reader direction is degenerate");
  }
  estimation.rayT = solved->rayT;
  estimation.behindOriginRays = solved->behindOrigin;
  if (residualOut) *residualOut = geom::rmsResidual(rays, solved->point);
  return solved->point;
}

Fix2D Locator::locate2D(std::span<const RigObservation> observations) const {
  return locate2D(observations, {});
}

Fix2D Locator::locate2D(std::span<const RigObservation> observations,
                        std::span<const SpinSpectrum* const> swept) const {
  if (observations.size() < 2) {
    throw std::invalid_argument("locate2D: need at least two rigs");
  }
  const bool anyModel =
      config_.orientationIterations > 0 &&
      std::any_of(observations.begin(), observations.end(),
                  [](const RigObservation& o) {
                    return !o.orientation.isIdentity();
                  });

  // Pass 0: bootstrap directions without calibration (Q formula when the
  // enhanced profile is configured -- see bootstrapConfig).  Without a
  // model it runs the configured profile on the raw snapshots, which is
  // exactly the sweep the health check already made.
  const ProfileConfig cfg0 =
      anyModel ? bootstrapConfig(config_.profile) : config_.profile;
  Fix2D fix;
  fix.directions.resize(observations.size());
  std::vector<RigBearing> bearings(observations.size());
  for (size_t i = 0; i < observations.size(); ++i) {
    const SpinSpectrum* const shared =
        !anyModel && i < swept.size() ? swept[i] : nullptr;
    if (shared != nullptr) {
      bearing2D(*shared, fix.directions[i], bearings[i]);
    } else {
      const RigObservation& obs = observations[i];
      bearing2D(timedSpectrum(obs.snapshots, obs.rig, cfg0),
                fix.directions[i], bearings[i]);
    }
  }
  fix.position = intersectBearings(observations, bearings, fix.directions,
                                   fix.estimation, &fix.residualM);

  if (anyModel) {
    // Orientation-calibration loop: correct each rig's phases against the
    // current *position* estimate (exact tag-edge geometry), re-estimate.
    for (int it = 0; it < config_.orientationIterations; ++it) {
      const geom::Vec3 est3{fix.position.x, fix.position.y,
                            observations[0].rig.center.z};
      for (size_t i = 0; i < observations.size(); ++i) {
        const RigObservation& obs = observations[i];
        const std::vector<Snapshot> snaps = calibrated(obs, est3);
        bearing2D(timedSpectrum(snaps, obs.rig, config_.profile),
                  fix.directions[i], bearings[i]);
      }
      fix.position = intersectBearings(observations, bearings,
                                       fix.directions, fix.estimation,
                                       &fix.residualM);
    }
  }
  for (RigBearing& b : bearings) {
    fix.estimation.spins.push_back(std::move(b.spin));
  }
  if (config_.robust.bootstrap) {
    fix.estimation.ellipse =
        bootstrapEllipse2D(observations, fix.directions, fix.position);
  }
  noteEstimationOutcome(fix.estimation);
  return fix;
}

Fix3D Locator::locate3D(std::span<const RigObservation> observations) const {
  if (observations.size() < 2) {
    throw std::invalid_argument("locate3D: need at least two rigs");
  }
  const bool anyModel =
      config_.orientationIterations > 0 &&
      std::any_of(observations.begin(), observations.end(),
                  [](const RigObservation& o) {
                    return !o.orientation.isIdentity();
                  });

  const ProfileConfig cfg0 =
      anyModel ? bootstrapConfig(config_.profile) : config_.profile;
  Fix3D fix;
  fix.directions.resize(observations.size());
  std::vector<RigBearing> bearings(observations.size());
  for (size_t i = 0; i < observations.size(); ++i) {
    bearing3D(observations[i].snapshots, observations[i].rig, cfg0,
              fix.directions[i], bearings[i]);
  }
  geom::Vec2 xy = intersectBearings(observations, bearings, fix.directions,
                                    fix.estimation, &fix.residualM);

  if (anyModel) {
    for (int it = 0; it < config_.orientationIterations; ++it) {
      // rho lives in the rigs' horizontal plane, so only the xy estimate
      // matters for the correction.
      const geom::Vec3 est3{xy.x, xy.y, observations[0].rig.center.z};
      for (size_t i = 0; i < observations.size(); ++i) {
        const RigObservation& obs = observations[i];
        const std::vector<Snapshot> snaps = calibrated(obs, est3);
        bearing3D(snaps, obs.rig, config_.profile, fix.directions[i],
                  bearings[i]);
      }
      xy = intersectBearings(observations, bearings, fix.directions,
                             fix.estimation, &fix.residualM);
    }
  }
  for (RigBearing& b : bearings) {
    fix.estimation.spins.push_back(std::move(b.spin));
  }
  if (config_.robust.bootstrap) {
    fix.estimation.ellipse =
        bootstrapEllipse2D(observations, fix.directions, xy);
  }
  noteEstimationOutcome(fix.estimation);

  // Eqn. 13: each rig predicts |z| = horizontal_distance * tan(|gamma|);
  // balance the estimates weighted by spectrum confidence.
  double zAcc = 0.0;
  double wAcc = 0.0;
  for (size_t i = 0; i < observations.size(); ++i) {
    const geom::Vec3& c = observations[i].rig.center;
    const double horiz = (xy - c.xy()).norm();
    const double zk = horiz * std::tan(fix.directions[i].polar);
    const double w = std::max(fix.directions[i].peakValue, 1e-9);
    zAcc += w * zk;
    wAcc += w;
  }
  const double zMag = wAcc > 0.0 ? zAcc / wAcc : 0.0;
  // z is measured relative to the rig plane.
  const double zPlane = observations[0].rig.center.z;

  switch (config_.zResolution) {
    case ZResolution::kNonNegative:
      fix.position = {xy.x, xy.y, zPlane + zMag};
      break;
    case ZResolution::kNonPositive:
      fix.position = {xy.x, xy.y, zPlane - zMag};
      break;
    case ZResolution::kBoth:
      fix.position = {xy.x, xy.y, zPlane + zMag};
      fix.mirrorCandidate = geom::Vec3{xy.x, xy.y, zPlane - zMag};
      break;
  }
  return fix;
}

std::optional<robust::ConfidenceEllipse> Locator::bootstrapEllipse2D(
    std::span<const RigObservation> observations,
    std::span<const RigDirection> directions,
    const geom::Vec2& position) const {
  TAGSPIN_SPAN(obs_.bootstrap);
  obs::add(obs_.bootstrapRuns);
  const geom::Vec3 est3{position.x, position.y,
                        observations[0].rig.center.z};
  std::vector<robust::BearingSamples> rays(observations.size());
  for (size_t i = 0; i < observations.size(); ++i) {
    const RigObservation& obs = observations[i];
    rays[i].origin = obs.rig.center.xy();
    rays[i].bearingRad = directions[i].azimuth;
    // Subsample the same (orientation-corrected) snapshots the final
    // bearing came from, so deviations measure estimator noise and not the
    // uncorrected orientation offset.
    const bool calibrate =
        !obs.orientation.isIdentity() && config_.orientationIterations > 0;
    std::vector<Snapshot> corrected;
    if (calibrate) {
      corrected = calibrateOrientationAtPosition(obs.snapshots, obs.rig,
                                                 obs.orientation, est3);
    }
    const std::vector<Snapshot>& snaps =
        calibrate ? corrected : obs.snapshots;
    if (snaps.size() < 16) continue;  // half-samples would be meaningless
    std::mt19937_64 rng(config_.robust.bootstrapSeed ^
                        (0x9E3779B97F4A7C15ULL * (i + 1)));
    std::vector<size_t> idx(snaps.size());
    std::iota(idx.begin(), idx.end(), size_t{0});
    const size_t half = snaps.size() / 2;
    std::vector<Snapshot> subset;
    subset.reserve(half);
    for (int k = 0; k < config_.robust.bearingSubsamples; ++k) {
      std::shuffle(idx.begin(), idx.end(), rng);
      std::sort(idx.begin(), idx.begin() + static_cast<long>(half));
      subset.clear();
      for (size_t j = 0; j < half; ++j) subset.push_back(snaps[idx[j]]);
      const PowerProfile profile(subset, obs.rig.kinematics,
                                 config_.profile);
      const AzimuthEstimate est =
          estimateAzimuthCoarseFine(profile, config_.search);
      rays[i].deviationsRad.push_back(
          geom::wrapToPi(est.azimuth - rays[i].bearingRad));
    }
  }
  robust::BootstrapConfig bc;
  bc.replicates = config_.robust.bootstrapReplicates;
  bc.confidenceLevel = config_.robust.confidenceLevel;
  bc.seed = config_.robust.bootstrapSeed;
  bc.resampleRays = config_.robust.pairsBootstrap;
  const auto ellipse = robust::bootstrapEllipse(rays, position, bc);
  if (ellipse) obs::set(obs_.ellipseAreaCm2, ellipse->areaM2() * 1e4);
  return ellipse;
}

const char* fixGradeName(FixGrade grade) {
  switch (grade) {
    case FixGrade::kFull: return "full";
    case FixGrade::kDegraded: return "degraded";
    case FixGrade::kMinimal: return "minimal";
  }
  return "unknown";
}

namespace {

/// Rank a marginal rig for the 2-rig fallback: coverage and spectrum
/// strength dominate, snapshot count saturates quickly.
double fallbackScore(const RigHealth& h) {
  const double count =
      std::min(static_cast<double>(h.snapshotCount), 64.0) / 64.0;
  return h.arcCoverage * std::max(h.spectrum.peakValue, 1e-6) * count;
}

std::string unhealthyReason(const RigHealth& h,
                            const RigHealthThresholds& t) {
  std::string why;
  if (h.snapshotCount < t.minSnapshots) {
    why += "snapshots " + std::to_string(h.snapshotCount) + " < " +
           std::to_string(t.minSnapshots);
  }
  if (h.arcCoverage < t.minArcCoverage) {
    if (!why.empty()) why += "; ";
    why += "arc coverage " + std::to_string(h.arcCoverage) + " < " +
           std::to_string(t.minArcCoverage);
  }
  if (h.spectrum.peakValue < t.minPeakValue) {
    if (!why.empty()) why += "; ";
    why += "spectrum peak " + std::to_string(h.spectrum.peakValue) + " < " +
           std::to_string(t.minPeakValue);
  }
  if (t.rejectQuarantined &&
      h.spin.verdict == robust::SpinVerdict::kQuarantine) {
    if (!why.empty()) why += "; ";
    why += "spin quarantined (sidelobe ratio " +
           std::to_string(h.spin.peakToSidelobeRatio) + ", ghost score " +
           std::to_string(h.spin.ghostScore) + ")";
  }
  return why.empty() ? "healthy" : why;
}

/// Outcome of the shared front half of tryLocate2D/3D.  `report` has
/// grade/health/used/dropped filled in (confidence is completed by the
/// caller once directions exist); `spectra` holds each rig's sweep on the
/// search grid, parallel to the input (empty below 2 snapshots).
struct RigSelection {
  ResilienceReport report;
  std::vector<std::optional<SpinSpectrum>> spectra;

  /// The used rigs' sweeps, parallel to report.usedRigs.
  std::vector<const SpinSpectrum*> usedSpectra() const {
    std::vector<const SpinSpectrum*> out;
    out.reserve(report.usedRigs.size());
    for (size_t i : report.usedRigs) {
      out.push_back(spectra[i] ? &*spectra[i] : nullptr);
    }
    return out;
  }
};

/// Health assessment and rig selection.  Each rig's spectrum is swept once,
/// on the search grid, and the sweep is kept for the bearing search; the
/// whole per-rig assessment is timed under span.rig_health.
Result<RigSelection> selectRigs(std::span<const RigObservation> obs,
                                const RigHealthThresholds& thresholds,
                                const LocatorConfig& config,
                                obs::Histogram* healthSpan) {
  if (obs.size() < 2) {
    return Error{ErrorCode::kTooFewRigs,
                 "tryLocate: need at least two rigs, got " +
                     std::to_string(obs.size())};
  }
  const robust::SpinDiagnosticsConfig* diag =
      config.robust.diagnostics ? &config.robust.diagnosticsConfig : nullptr;
  RigSelection selection;
  ResilienceReport& report = selection.report;
  report.rigHealth.reserve(obs.size());
  selection.spectra.resize(obs.size());
  for (size_t i = 0; i < obs.size(); ++i) {
    TAGSPIN_SPAN(healthSpan);
    const RigObservation& o = obs[i];
    std::optional<SpinSpectrum>& spectrum = selection.spectra[i];
    if (o.snapshots.size() >= 2) {
      spectrum.emplace(PowerProfile(o.snapshots, o.rig.kinematics,
                                    config.profile),
                       config.search.azimuthGridPoints);
    }
    report.rigHealth.push_back(assessRigHealthFromSweep(
        o.snapshots, o.rig.kinematics, spectrum ? &*spectrum : nullptr,
        diag));
  }

  std::vector<size_t> healthy;
  for (size_t i = 0; i < obs.size(); ++i) {
    if (isHealthy(report.rigHealth[i], thresholds)) healthy.push_back(i);
  }

  if (healthy.size() >= 2) {
    report.usedRigs = healthy;
    report.grade =
        healthy.size() == obs.size() ? FixGrade::kFull : FixGrade::kDegraded;
  } else {
    // Fallback: the PowerProfile needs >= 2 snapshots and the spectrum must
    // not be flat; among those minimally usable rigs take the best two.
    std::vector<size_t> usable;
    for (size_t i = 0; i < obs.size(); ++i) {
      const RigHealth& h = report.rigHealth[i];
      if (h.snapshotCount >= 2 && h.arcCoverage > 0.0 &&
          h.spectrum.peakValue > 0.0) {
        usable.push_back(i);
      }
    }
    if (usable.size() < 2) {
      return Error{
          ErrorCode::kTooFewHealthyRigs,
          "tryLocate: only " + std::to_string(usable.size()) + " of " +
              std::to_string(obs.size()) +
              " rigs are usable; need two for a fix"};
    }
    std::sort(usable.begin(), usable.end(), [&](size_t a, size_t b) {
      return fallbackScore(report.rigHealth[a]) >
             fallbackScore(report.rigHealth[b]);
    });
    usable.resize(2);
    std::sort(usable.begin(), usable.end());
    report.usedRigs = usable;
    report.grade = FixGrade::kMinimal;
  }

  for (size_t i = 0; i < obs.size(); ++i) {
    if (std::find(report.usedRigs.begin(), report.usedRigs.end(), i) ==
        report.usedRigs.end()) {
      report.droppedRigs.push_back(i);
      report.droppedReasons.push_back(
          unhealthyReason(report.rigHealth[i], thresholds));
    }
  }
  return selection;
}

double gradeMultiplier(FixGrade grade) {
  switch (grade) {
    case FixGrade::kFull: return 1.0;
    case FixGrade::kDegraded: return 0.7;
    case FixGrade::kMinimal: return 0.4;
  }
  return 0.0;
}

/// Confidence of a produced fix: spectral quality of the used rigs combined
/// with the bearing GDOP at the fix, scaled by the degradation grade, then
/// penalised for robust-estimation warnings (suspect/quarantined spins
/// among the used rigs, behind-origin rays, consensus outliers).  Clean
/// fixes -- every spin accepted, every ray in front of its rig, full
/// inlier set -- incur no penalty.
double resilientConfidence(const ResilienceReport& report,
                           std::span<const RigObservation> obs,
                           std::span<const RigDirection> directions,
                           const geom::Vec2& position,
                           const EstimationDiagnostics& estimation) {
  std::vector<SpectrumQuality> spectra;
  std::vector<geom::Ray2> rays;
  spectra.reserve(report.usedRigs.size());
  rays.reserve(report.usedRigs.size());
  for (size_t k = 0; k < report.usedRigs.size(); ++k) {
    const size_t i = report.usedRigs[k];
    spectra.push_back(report.rigHealth[i].spectrum);
    rays.push_back({obs[i].rig.center.xy(), directions[k].azimuth});
  }
  const double gdop = bearingGdop(rays, position);
  double penalty = 1.0;
  for (const auto& spin : estimation.spins) {
    if (spin.verdict == robust::SpinVerdict::kSuspect) penalty *= 0.85;
    if (spin.verdict == robust::SpinVerdict::kQuarantine) penalty *= 0.6;
  }
  // A fix behind a rig means at least one bearing is physically impossible
  // (mirror/ghost lobe won the spectrum) -- the satellite fix for the old
  // silent behaviour of leastSquaresIntersection.
  if (estimation.behindOriginRays > 0) penalty *= 0.6;
  if (estimation.consensusUsed) {
    penalty *= 0.5 + 0.5 * estimation.inlierFraction;
  }
  return gradeMultiplier(report.grade) * fixConfidence(spectra, gdop) *
         penalty;
}

std::vector<RigObservation> subsetObservations(
    std::span<const RigObservation> obs, std::span<const size_t> indices) {
  std::vector<RigObservation> out;
  out.reserve(indices.size());
  for (size_t i : indices) out.push_back(obs[i]);
  return out;
}

}  // namespace

Result<ResilientFix2D> Locator::tryLocate2D(
    std::span<const RigObservation> observations,
    const RigHealthThresholds& thresholds) const {
  obs::add(obs_.fix2dAttempts);
  TAGSPIN_SPAN(obs_.fix2d);
  Result<RigSelection> selected =
      selectRigs(observations, thresholds, config_, obs_.rigHealth);
  if (!selected) return selected.error();
  const std::vector<const SpinSpectrum*> swept = selected->usedSpectra();
  ResilientFix2D out;
  out.report = std::move(selected->report);
  const std::vector<RigObservation> used =
      subsetObservations(observations, out.report.usedRigs);
  try {
    out.fix = locate2D(used, swept);
  } catch (const std::exception& e) {
    return Error{ErrorCode::kDegenerateGeometry, e.what()};
  }
  out.report.confidence =
      resilientConfidence(out.report, observations, out.fix.directions,
                          out.fix.position, out.fix.estimation);
  obs::add(obs_.fix2dOk);
  noteResilientOutcome(out.report);
  return out;
}

Result<ResilientFix3D> Locator::tryLocate3D(
    std::span<const RigObservation> observations,
    const RigHealthThresholds& thresholds) const {
  obs::add(obs_.fix3dAttempts);
  TAGSPIN_SPAN(obs_.fix3d);
  // The 3D search sweeps (azimuth, polar) and diagnoses at the peak's polar
  // angle, so the health sweeps serve the rig selection only.
  Result<RigSelection> selected =
      selectRigs(observations, thresholds, config_, obs_.rigHealth);
  if (!selected) return selected.error();
  ResilientFix3D out;
  out.report = std::move(selected->report);
  const std::vector<RigObservation> used =
      subsetObservations(observations, out.report.usedRigs);
  try {
    out.fix = locate3D(used);
  } catch (const std::exception& e) {
    return Error{ErrorCode::kDegenerateGeometry, e.what()};
  }
  out.report.confidence =
      resilientConfidence(out.report, observations, out.fix.directions,
                          out.fix.position.xy(), out.fix.estimation);
  obs::add(obs_.fix3dOk);
  noteResilientOutcome(out.report);
  return out;
}

geom::Vec3 Locator::disambiguateZ(const RigObservation& verticalRig,
                                  const geom::Vec3& candidateA,
                                  const geom::Vec3& candidateB) const {
  PowerProfile profile(verticalRig.snapshots, verticalRig.rig.kinematics,
                       config_.profile);
  auto valueFor = [&](const geom::Vec3& candidate) {
    const geom::Vec3 u = (candidate - verticalRig.rig.center).normalized();
    // Projection of the direction onto the rig's x-z rotation plane.
    const double scale = std::hypot(u.x, u.z);
    const double angle = std::atan2(u.z, u.x);
    return profile.evaluateDirection(angle, scale);
  };
  return valueFor(candidateA) >= valueFor(candidateB) ? candidateA
                                                      : candidateB;
}

}  // namespace tagspin::core
