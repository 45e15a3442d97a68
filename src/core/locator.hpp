// Reader localization from multiple spinning-tag angle spectra
// (paper section V).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/errors.hpp"
#include "core/orientation_calibration.hpp"
#include "core/quality.hpp"
#include "core/snapshot.hpp"
#include "core/spectrum.hpp"
#include "geom/ray.hpp"
#include "obs/metrics.hpp"
#include "robust/bootstrap.hpp"
#include "robust/consensus.hpp"
#include "robust/spectrum_diag.hpp"

namespace tagspin::core {

/// A rig's observations for one localization attempt.  `orientation` is the
/// phase-orientation model of the specific tag on this rig (identity when
/// no calibration prelude was run for it).
struct RigObservation {
  RigSpec rig;
  std::vector<Snapshot> snapshots;
  OrientationModel orientation;
};

/// Per-rig direction estimate produced on the way to a fix.
struct RigDirection {
  double azimuth = 0.0;
  double polar = 0.0;       // |gamma|; 0 in pure 2D runs
  double peakValue = 0.0;   // profile value at the peak (confidence)
};

/// Robust-estimation audit trail attached to every fix.  All per-ray
/// vectors are parallel to `fix.directions` (the rigs that produced the
/// fix, in input order).
struct EstimationDiagnostics {
  /// Spin self-diagnosis per rig (empty when diagnostics are disabled).
  std::vector<robust::SpinDiagnostics> spins;
  /// True when the fix came from consensus voting + IRLS rather than the
  /// plain (two-ray / least-squares) intersection.
  bool consensusUsed = false;
  /// Fraction of rigs whose chosen ray passes within the inlier threshold
  /// of the fix; 1.0 on the non-consensus path.
  double inlierFraction = 1.0;
  std::vector<bool> inliers;  // empty unless consensusUsed
  /// Ray parameter of the fix along each rig's (chosen) bearing ray;
  /// negative = the fix sits behind that rig, a physically impossible
  /// bearing that indicates a mirror/ghost peak.
  std::vector<double> rayT;
  size_t behindOriginRays = 0;
  /// Bootstrap confidence region (set when RobustEstimationConfig::
  /// bootstrap is enabled and enough replicates converged).
  std::optional<robust::ConfidenceEllipse> ellipse;
};

struct Fix2D {
  geom::Vec2 position;
  std::vector<RigDirection> directions;
  /// RMS perpendicular distance of the fix to the rig rays -- a consistency
  /// diagnostic (meaningful for >= 3 rigs; ~0 for exactly 2).
  double residualM = 0.0;
  EstimationDiagnostics estimation;
};

struct Fix3D {
  geom::Vec3 position;
  /// The mirror candidate (z negated) when ZResolution::kBoth is selected.
  std::optional<geom::Vec3> mirrorCandidate;
  std::vector<RigDirection> directions;
  double residualM = 0.0;
  EstimationDiagnostics estimation;
};

/// How much the resilient path had to give up to produce a fix.
enum class FixGrade {
  kFull,      // every offered rig was healthy and used
  kDegraded,  // >= 2 healthy rigs, but unhealthy ones were dropped
  kMinimal,   // fewer than 2 healthy rigs; best-effort 2-rig fallback
};
const char* fixGradeName(FixGrade grade);

/// Degradation audit trail attached to a resilient fix.  Indices refer to
/// the observation span passed to tryLocate2D/3D; `fix.directions` is
/// parallel to `usedRigs`, not to the input.
struct ResilienceReport {
  FixGrade grade = FixGrade::kFull;
  /// fixConfidence() of the used rigs, scaled down by the grade (x1 full,
  /// x0.7 degraded, x0.4 minimal) -- the explicit confidence downgrade.
  double confidence = 0.0;
  std::vector<RigHealth> rigHealth;  // parallel to the input observations
  std::vector<size_t> usedRigs;
  std::vector<size_t> droppedRigs;
  std::vector<std::string> droppedReasons;  // parallel to droppedRigs
};

struct ResilientFix2D {
  Fix2D fix;
  ResilienceReport report;
};

struct ResilientFix3D {
  Fix3D fix;
  ResilienceReport report;
};

class Locator {
 public:
  explicit Locator(LocatorConfig config = {});

  const LocatorConfig& config() const { return config_; }

  /// Wire (or unwire, with null) the locator's telemetry: locator.*
  /// counters (attempts, grades, fallbacks, dropped rigs) and the
  /// span.rig_health / span.profile_eval / span.spectrum_search /
  /// span.fix2d / span.fix3d latency histograms.  Handles resolve once
  /// here; the estimation hot path never touches the registry's lock.
  void setMetrics(obs::MetricsRegistry* registry);

  /// Azimuth spectrum of a single rig, with iterative orientation
  /// calibration when a model is installed.
  RigDirection estimateDirection2D(const RigObservation& obs) const;

  /// (azimuth, polar) spectrum of a single rig, 3D.
  RigDirection estimateDirection3D(const RigObservation& obs) const;

  /// 2D fix from >= 2 horizontal rigs (Eqn. 9 for two rigs via the robust
  /// equivalent; least squares for more).  Throws std::invalid_argument on
  /// fewer than 2 rigs; std::runtime_error when all rays are parallel.
  Fix2D locate2D(std::span<const RigObservation> observations) const;

  /// 3D fix from >= 2 horizontal rigs: x, y from azimuths (Eqn. 9), |z|
  /// from the polar angles (Eqn. 13a/13b balanced by peak confidence),
  /// sign from config().zResolution.
  Fix3D locate3D(std::span<const RigObservation> observations) const;

  /// Graceful-degradation variants: assess every rig's health, drop rigs
  /// below `thresholds`, fall back to the best-scoring pair when fewer than
  /// two healthy rigs remain, and report failure causes via ErrorCode
  /// instead of throwing.  When every rig is healthy the fix is bit-identical
  /// to locate2D/3D on the same observations.
  Result<ResilientFix2D> tryLocate2D(
      std::span<const RigObservation> observations,
      const RigHealthThresholds& thresholds = {}) const;
  Result<ResilientFix3D> tryLocate3D(
      std::span<const RigObservation> observations,
      const RigHealthThresholds& thresholds = {}) const;

  /// Future-work extension: use a *vertically* spinning rig to resolve the
  /// +-z ambiguity -- evaluates the vertical rig's profile at the exact
  /// direction each candidate predicts and keeps the stronger one.
  geom::Vec3 disambiguateZ(const RigObservation& verticalRig,
                           const geom::Vec3& candidateA,
                           const geom::Vec3& candidateB) const;

 private:
  struct Instruments {
    obs::Counter* fix2dAttempts = nullptr;
    obs::Counter* fix2dOk = nullptr;
    obs::Counter* fix3dAttempts = nullptr;
    obs::Counter* fix3dOk = nullptr;
    obs::Counter* fallbackMinimal = nullptr;
    obs::Counter* degraded = nullptr;
    obs::Counter* confidenceDowngrades = nullptr;
    obs::Counter* rigsDropped = nullptr;
    obs::Counter* quarantinedSpins = nullptr;   // robust.quarantined_spins
    obs::Counter* suspectSpins = nullptr;       // robust.suspect_spins
    obs::Counter* behindOriginRays = nullptr;   // robust.behind_origin_rays
    obs::Counter* consensusFixes = nullptr;     // robust.consensus_fixes
    obs::Counter* bootstrapRuns = nullptr;      // robust.bootstrap_runs
    obs::Gauge* inlierFraction = nullptr;       // robust.inlier_fraction
    obs::Gauge* ellipseAreaCm2 = nullptr;       // robust.ellipse_area_cm2
    obs::Histogram* rigHealth = nullptr;       // span.rig_health
    obs::Histogram* profileEval = nullptr;     // span.profile_eval
    obs::Histogram* spectrumSearch = nullptr;  // span.spectrum_search
    obs::Histogram* diagnose = nullptr;        // span.diagnose
    obs::Histogram* consensus = nullptr;       // span.consensus
    obs::Histogram* bootstrap = nullptr;       // span.bootstrap
    obs::Histogram* calibrate = nullptr;       // span.calibrate
    obs::Histogram* fix2d = nullptr;           // span.fix2d
    obs::Histogram* fix3d = nullptr;           // span.fix3d
    static Instruments resolve(obs::MetricsRegistry* registry);
  };

  /// A rig's bearing with its robust-estimation context: every candidate
  /// direction the spectrum supports (main first) plus the spin verdict.
  struct RigBearing {
    std::vector<robust::BearingCandidate> candidates;
    robust::SpinDiagnostics spin;
  };

  /// One rig's orientation-corrected snapshots, against an azimuth or a
  /// position estimate, timed under span.calibrate.  (The bootstrap's own
  /// corrections are part of span.bootstrap.)
  std::vector<Snapshot> calibrated(const RigObservation& obs,
                                   double azimuthEstimate) const;
  std::vector<Snapshot> calibrated(const RigObservation& obs,
                                   const geom::Vec3& position) const;
  /// Profile build for one rig, timed under span.profile_eval.
  PowerProfile timedProfile(const std::vector<Snapshot>& snaps,
                            const RigSpec& rig,
                            const ProfileConfig& cfg) const;
  /// Profile build + sweep on the search grid for one rig, timed under
  /// span.profile_eval / span.spectrum_search.
  SpinSpectrum timedSpectrum(const std::vector<Snapshot>& snaps,
                             const RigSpec& rig,
                             const ProfileConfig& cfg) const;
  /// Profile build + azimuth (or spatial) search for one rig, timed under
  /// span.profile_eval / span.spectrum_search.
  AzimuthEstimate timedAzimuth(const std::vector<Snapshot>& snaps,
                               const RigSpec& rig,
                               const ProfileConfig& cfg) const;
  SpatialEstimate timedSpatial(const std::vector<Snapshot>& snaps,
                               const RigSpec& rig,
                               const ProfileConfig& cfg) const;
  /// One rig's 2D bearing from its sweep: refine the grid maximum, then
  /// diagnose the spin from the same samples (timed under span.diagnose).
  void bearing2D(const SpinSpectrum& spectrum, RigDirection& direction,
                 RigBearing& bearing) const;
  /// One rig's 3D bearing: profile build, (azimuth, polar) search, spin
  /// diagnosis at the peak's polar angle (its azimuth sweep included in
  /// span.diagnose).
  void bearing3D(const std::vector<Snapshot>& snaps, const RigSpec& rig,
                 const ProfileConfig& cfg, RigDirection& direction,
                 RigBearing& bearing) const;
  /// Spin diagnosis + candidate extraction for an already-searched profile
  /// whose azimuth spectrum at `gamma` was sampled on the search grid (no-op
  /// single-candidate bearing when diagnostics are disabled).
  RigBearing diagnoseBearing(const PowerProfile& profile,
                             std::span<const double> samples, double azimuth,
                             double value, double gamma) const;
  /// locate2D, with pass 0 reading `swept[i]` (when non-null) instead of
  /// sweeping rig i again: the health check's sweep on the search grid,
  /// valid because pass 0 without an orientation model uses the same
  /// profile config on the same snapshots.
  Fix2D locate2D(std::span<const RigObservation> observations,
                 std::span<const SpinSpectrum* const> swept) const;
  /// Intersect the (possibly multi-candidate) bearings: consensus voting
  /// for >= 3 rays when enabled (timed under span.consensus), exact
  /// two-ray / detailed least squares
  /// otherwise.  Updates `directions` to the chosen candidates and fills
  /// the per-ray fields of `estimation`.  Throws std::runtime_error on
  /// degenerate (all-parallel) geometry, like the legacy path.
  geom::Vec2 intersectBearings(std::span<const RigObservation> observations,
                               std::span<const RigBearing> bearings,
                               std::span<RigDirection> directions,
                               EstimationDiagnostics& estimation,
                               double* residualOut) const;
  /// Bootstrap confidence ellipse around a finished xy fix, timed under
  /// span.bootstrap.
  std::optional<robust::ConfidenceEllipse> bootstrapEllipse2D(
      std::span<const RigObservation> observations,
      std::span<const RigDirection> directions,
      const geom::Vec2& position) const;
  void noteResilientOutcome(const ResilienceReport& report) const;
  void noteEstimationOutcome(const EstimationDiagnostics& estimation) const;

  LocatorConfig config_;
  Instruments obs_;
};

}  // namespace tagspin::core
