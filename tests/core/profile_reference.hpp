// Scalar reference of the power-profile kernel: the direct transcription of
// PowerProfile's construction, evaluateDirection and weightStats -- per-call
// buffers, the residual pipeline written out separately in each function,
// libm trig and exp.  The vectorised kernel is held to it within a stated
// absolute bound (profile_kernel_test.cpp), so keep this copy as it is: it
// is the oracle, not a second implementation to maintain.
#pragma once

#include <cmath>
#include <complex>
#include <map>
#include <numbers>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/config.hpp"
#include "core/power_profile.hpp"
#include "core/snapshot.hpp"
#include "geom/angles.hpp"

namespace tagspin::core::testing {

class ReferenceProfile {
 public:
  ReferenceProfile(std::span<const Snapshot> snapshots,
                   const RigKinematics& kinematics,
                   const ProfileConfig& config)
      : config_(config),
        radius_(kinematics.radiusM),
        sigmaPair_(config.phaseNoiseStd * std::numbers::sqrt2 *
                   config.weightSigmaScale) {
    if (snapshots.size() < 2) {
      throw std::invalid_argument("PowerProfile: need at least 2 snapshots");
    }
    const bool classical = config.formula == ProfileFormula::kClassicalP;
    const bool grouped = config.channelCoherent && !classical;
    struct GroupRef {
      int index;
      double phase;
      double diskAngle;
    };
    std::map<int, GroupRef> refs;
    int nextGroup = 0;
    entries_.reserve(snapshots.size());
    for (const Snapshot& s : snapshots) {
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
      e.relPhase = classical ? s.phaseRad
                             : geom::wrapToPi(s.phaseRad - it->second.phase);
      entries_.push_back(e);
    }
    groupCount_ = nextGroup;
  }

  double evaluate(double phi, double gamma) const {
    return evaluateDirection(phi, std::cos(gamma));
  }

  double evaluateDirection(double phi, double cg) const {
    const bool enhanced = config_.formula == ProfileFormula::kEnhancedR;
    const double cosPhi = std::cos(phi);
    const double sinPhi = std::sin(phi);
    std::vector<std::complex<double>> sums(
        static_cast<size_t>(groupCount_), std::complex<double>{0.0, 0.0});

    if (!enhanced) {
      for (const Entry& e : entries_) {
        const double cosAmP = e.cosA * cosPhi + e.sinA * sinPhi;
        const double steer = e.k * radius_ * cosAmP * cg;
        sums[static_cast<size_t>(e.group)] +=
            std::polar(1.0, e.relPhase + steer);
      }
    } else {
      const double inv2Sigma2 = 1.0 / (2.0 * sigmaPair_ * sigmaPair_);
      std::vector<double> residuals(entries_.size());
      std::vector<std::complex<double>> centroids(
          static_cast<size_t>(groupCount_), std::complex<double>{0.0, 0.0});
      for (size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        const double cosAmP = e.cosA * cosPhi + e.sinA * sinPhi;
        const double cosRefmP = e.cosRef * cosPhi + e.sinRef * sinPhi;
        const double predicted = e.k * radius_ * cg * (cosRefmP - cosAmP);
        residuals[i] = geom::wrapToPi(e.relPhase - predicted);
        centroids[static_cast<size_t>(e.group)] +=
            std::polar(1.0, residuals[i]);
      }
      std::vector<double> center(static_cast<size_t>(groupCount_), 0.0);
      for (size_t g = 0; g < center.size(); ++g) {
        if (std::abs(centroids[g]) > 0.0) center[g] = std::arg(centroids[g]);
      }
      for (size_t i = 0; i < entries_.size(); ++i) {
        const Entry& e = entries_[i];
        const double centred = geom::wrapToPi(
            residuals[i] - center[static_cast<size_t>(e.group)]);
        const double w = std::exp(-centred * centred * inv2Sigma2);
        sums[static_cast<size_t>(e.group)] +=
            w * std::polar(1.0, residuals[i]);
      }
    }

    double total = 0.0;
    for (const std::complex<double>& s : sums) total += std::abs(s);
    return total / static_cast<double>(entries_.size());
  }

  PowerProfile::WeightStats weightStats(double phi, double gamma) const {
    PowerProfile::WeightStats stats;
    if (config_.formula != ProfileFormula::kEnhancedR || entries_.empty()) {
      return stats;
    }
    const double cg = std::cos(gamma);
    const double cosPhi = std::cos(phi);
    const double sinPhi = std::sin(phi);
    const double inv2Sigma2 = 1.0 / (2.0 * sigmaPair_ * sigmaPair_);
    std::vector<double> residuals(entries_.size());
    std::vector<std::complex<double>> centroids(
        static_cast<size_t>(groupCount_), std::complex<double>{0.0, 0.0});
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      const double cosAmP = e.cosA * cosPhi + e.sinA * sinPhi;
      const double cosRefmP = e.cosRef * cosPhi + e.sinRef * sinPhi;
      const double predicted = e.k * radius_ * cg * (cosRefmP - cosAmP);
      residuals[i] = geom::wrapToPi(e.relPhase - predicted);
      centroids[static_cast<size_t>(e.group)] +=
          std::polar(1.0, residuals[i]);
    }
    std::vector<double> center(static_cast<size_t>(groupCount_), 0.0);
    for (size_t g = 0; g < center.size(); ++g) {
      if (std::abs(centroids[g]) > 0.0) center[g] = std::arg(centroids[g]);
    }
    double sum = 0.0, sumSq = 0.0;
    for (size_t i = 0; i < entries_.size(); ++i) {
      const double centred = geom::wrapToPi(
          residuals[i] - center[static_cast<size_t>(entries_[i].group)]);
      const double w = std::exp(-centred * centred * inv2Sigma2);
      sum += w;
      sumSq += w * w;
    }
    const double n = static_cast<double>(entries_.size());
    stats.meanWeight = sum / n;
    stats.effectiveFraction = sumSq > 0.0 ? (sum * sum) / (n * sumSq) : 0.0;
    return stats;
  }

 private:
  struct Entry {
    double cosA = 0.0;
    double sinA = 0.0;
    double cosRef = 0.0;
    double sinRef = 0.0;
    double k = 0.0;
    double relPhase = 0.0;
    int group = 0;
  };

  ProfileConfig config_;
  double radius_ = 0.0;
  double sigmaPair_ = 0.0;
  int groupCount_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace tagspin::core::testing
