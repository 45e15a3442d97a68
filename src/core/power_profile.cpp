#include "core/power_profile.hpp"

#include <cmath>
#include <complex>
#include <map>
#include <numbers>
#include <stdexcept>

#include "dsp/grid.hpp"
#include "geom/angles.hpp"

namespace tagspin::core {

PowerProfile::PowerProfile(std::span<const Snapshot> snapshots,
                           const RigKinematics& kinematics,
                           const ProfileConfig& config)
    : config_(config),
      radius_(kinematics.radiusM),
      sigmaPair_(config.phaseNoiseStd * std::numbers::sqrt2 *
                 config.weightSigmaScale) {
  if (snapshots.size() < 2) {
    throw std::invalid_argument("PowerProfile: need at least 2 snapshots");
  }
  if (radius_ <= 0.0) {
    throw std::invalid_argument("PowerProfile: rig radius must be > 0");
  }
  if (config.phaseNoiseStd <= 0.0) {
    throw std::invalid_argument("PowerProfile: phaseNoiseStd must be > 0");
  }

  const bool classical = config.formula == ProfileFormula::kClassicalP;
  const bool grouped = config.channelCoherent && !classical;

  // First snapshot of each channel group serves as the group's phase
  // reference (the paper's theta_0).
  struct GroupRef {
    int index;
    double phase;
    double diskAngle;
  };
  std::map<int, GroupRef> refs;
  int nextGroup = 0;

  entries_.reserve(snapshots.size());
  for (const Snapshot& s : snapshots) {
    if (s.lambdaM <= 0.0) {
      throw std::invalid_argument("PowerProfile: snapshot missing wavelength");
    }
    const int key = grouped ? s.channel : 0;
    const double a = kinematics.diskAngle(s.timeS);
    auto [it, inserted] =
        refs.try_emplace(key, GroupRef{nextGroup, s.phaseRad, a});
    if (inserted) ++nextGroup;

    Entry e;
    e.cosA = std::cos(a);
    e.sinA = std::sin(a);
    e.cosRef = std::cos(it->second.diskAngle);
    e.sinRef = std::sin(it->second.diskAngle);
    e.k = 4.0 * std::numbers::pi / s.lambdaM;
    e.group = it->second.index;
    e.relPhase =
        classical ? s.phaseRad : geom::wrapToPi(s.phaseRad - it->second.phase);
    entries_.push_back(e);
  }
  groupCount_ = nextGroup;
}

namespace {

/// Per-thread buffers of the profile evaluation, grown to the largest
/// profile the thread has evaluated and reused after that, so evaluating a
/// direction allocates nothing.  Thread-local: concurrent evaluations (the
/// fleet's worker pool) share no state.
struct EvalScratch {
  std::vector<double> residuals;
  std::vector<std::complex<double>> phasors;  // e^{J residual}
  std::vector<std::complex<double>> centroids;
  std::vector<double> centers;
  std::vector<std::complex<double>> sums;
};

EvalScratch& evalScratch() {
  thread_local EvalScratch scratch;
  return scratch;
}

}  // namespace

double PowerProfile::evaluate(double phi, double gamma) const {
  return evaluateDirection(phi, std::cos(gamma));
}

template <class Visit>
void PowerProfile::forEachWeight(double phi, double cg, Visit&& visit) const {
  // The enhanced profile R weights each snapshot's residual against the
  // steering prediction c_i(phi, gamma) (Defn. 4.1 / 5.1).  Two refinements
  // over the literal formula, both documented in DESIGN.md:
  //  * residuals are wrapped to (-pi, pi] (|c_i| exceeds 2*pi for
  //    r > lambda/4);
  //  * residuals are centred on their per-group circular mean before
  //    weighting.  The paper weights around zero, implicitly trusting the
  //    reference snapshot theta_0; one corrupted reference read would
  //    shift every residual by a constant and bias the weights toward a
  //    false direction that absorbs the shift.  Centring restores the
  //    reference-independence that Q enjoys through |.|.
  EvalScratch& scratch = evalScratch();
  const size_t n = entries_.size();
  const size_t groups = static_cast<size_t>(groupCount_);
  scratch.residuals.resize(n);
  scratch.phasors.resize(n);
  scratch.centroids.assign(groups, std::complex<double>{0.0, 0.0});
  scratch.centers.assign(groups, 0.0);
  const double cosPhi = std::cos(phi);
  const double sinPhi = std::sin(phi);
  const double inv2Sigma2 = 1.0 / (2.0 * sigmaPair_ * sigmaPair_);
  for (size_t i = 0; i < n; ++i) {
    const Entry& e = entries_[i];
    const double cosAmP = e.cosA * cosPhi + e.sinA * sinPhi;
    const double cosRefmP = e.cosRef * cosPhi + e.sinRef * sinPhi;
    const double predicted = e.k * radius_ * cg * (cosRefmP - cosAmP);
    scratch.residuals[i] = geom::wrapToPi(e.relPhase - predicted);
    scratch.phasors[i] = std::polar(1.0, scratch.residuals[i]);
    scratch.centroids[static_cast<size_t>(e.group)] += scratch.phasors[i];
  }
  for (size_t g = 0; g < groups; ++g) {
    if (std::abs(scratch.centroids[g]) > 0.0) {
      scratch.centers[g] = std::arg(scratch.centroids[g]);
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const size_t g = static_cast<size_t>(entries_[i].group);
    const double centred =
        geom::wrapToPi(scratch.residuals[i] - scratch.centers[g]);
    visit(g, std::exp(-centred * centred * inv2Sigma2), scratch.phasors[i]);
  }
}

double PowerProfile::evaluateDirection(double phi, double cg) const {
  std::vector<std::complex<double>>& sums = evalScratch().sums;
  sums.assign(static_cast<size_t>(groupCount_),
              std::complex<double>{0.0, 0.0});
  if (config_.formula == ProfileFormula::kEnhancedR) {
    // e^{J(relPhase + steer)} = e^{J(residual)} * e^{J k r cg cos(a_0-phi)}
    // and the group-constant factor drops under |.|, so sum the weighted
    // residual phasors directly.
    forEachWeight(phi, cg,
                  [&](size_t g, double w, const std::complex<double>& phasor) {
                    sums[g] += w * phasor;
                  });
  } else {
    const double cosPhi = std::cos(phi);
    const double sinPhi = std::sin(phi);
    for (const Entry& e : entries_) {
      // cos(a_i - phi) from the precomputed components.
      const double cosAmP = e.cosA * cosPhi + e.sinA * sinPhi;
      const double steer = e.k * radius_ * cosAmP * cg;
      sums[static_cast<size_t>(e.group)] += std::polar(1.0, e.relPhase + steer);
    }
  }
  double total = 0.0;
  for (const std::complex<double>& s : sums) total += std::abs(s);
  return total / static_cast<double>(entries_.size());
}

PowerProfile::WeightStats PowerProfile::weightStats(double phi,
                                                    double gamma) const {
  WeightStats stats;
  if (config_.formula != ProfileFormula::kEnhancedR || entries_.empty()) {
    return stats;
  }
  double sum = 0.0, sumSq = 0.0;
  forEachWeight(phi, std::cos(gamma),
                [&](size_t, double w, const std::complex<double>&) {
                  sum += w;
                  sumSq += w * w;
                });
  const double n = static_cast<double>(entries_.size());
  stats.meanWeight = sum / n;
  stats.effectiveFraction = sumSq > 0.0 ? (sum * sum) / (n * sumSq) : 0.0;
  return stats;
}

std::vector<double> PowerProfile::sampleAzimuth(size_t points,
                                                double gamma) const {
  const double cg = std::cos(gamma);
  return dsp::sampleCircular(
      [&](double phi) { return evaluateDirection(phi, cg); }, points);
}

}  // namespace tagspin::core
