// PowerProfile against its scalar reference (profile_reference.hpp): the
// P, Q and R formulas, with and without channel grouping, on randomized
// snapshot sets, must agree exactly -- ==, not a tolerance -- for the
// profile value, the generalised steering and the likelihood-weight stats.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/power_profile.hpp"
#include "dsp/grid.hpp"
#include "geom/angles.hpp"
#include "profile_reference.hpp"

namespace tagspin::core {
namespace {

struct KernelCase {
  ProfileFormula formula;
  bool channelCoherent;
};

class ProfileReference : public ::testing::TestWithParam<KernelCase> {};

/// Snapshots with random times, phases and channels (1-8 channels, each
/// with its own wavelength, interleaved in time), a random rig and a
/// random noise setting.
struct RandomSet {
  std::vector<Snapshot> snapshots;
  RigKinematics kinematics;
  ProfileConfig config;
};

RandomSet randomSet(std::mt19937_64& rng, const KernelCase& c) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<int> countDist(2, 300);
  std::uniform_int_distribution<int> channelsDist(1, 8);
  RandomSet set;
  set.kinematics.radiusM = 0.02 + 0.3 * unit(rng);
  set.kinematics.omegaRadPerS = 0.1 + 2.0 * unit(rng);
  set.kinematics.initialAngle = geom::kTwoPi * unit(rng);
  set.config.formula = c.formula;
  set.config.channelCoherent = c.channelCoherent;
  set.config.phaseNoiseStd = 0.02 + 0.3 * unit(rng);
  set.config.weightSigmaScale = 0.5 + 3.0 * unit(rng);
  const int count = countDist(rng);
  const int channels = channelsDist(rng);
  std::uniform_int_distribution<int> channelOf(0, channels - 1);
  double t = 0.0;
  for (int i = 0; i < count; ++i) {
    t += 0.2 * unit(rng);
    Snapshot s;
    s.timeS = t;
    s.phaseRad = geom::kTwoPi * unit(rng);
    s.channel = 3 * channelOf(rng) + 1;
    s.lambdaM = 0.31 + 0.0005 * s.channel;
    set.snapshots.push_back(s);
  }
  return set;
}

TEST_P(ProfileReference, KernelMatchesScalarReferenceExactly) {
  const KernelCase c = GetParam();
  std::mt19937_64 rng(0x5EED + static_cast<uint64_t>(c.formula) * 2 +
                      (c.channelCoherent ? 1 : 0));
  std::uniform_real_distribution<double> angle(-geom::kTwoPi,
                                               2.0 * geom::kTwoPi);
  std::uniform_real_distribution<double> polar(-geom::kPi / 2.0,
                                               geom::kPi / 2.0);
  std::uniform_real_distribution<double> scale(0.0, 1.0);
  for (int set = 0; set < 40; ++set) {
    const RandomSet s = randomSet(rng, c);
    const PowerProfile profile(s.snapshots, s.kinematics, s.config);
    const testing::ReferenceProfile reference(s.snapshots, s.kinematics,
                                              s.config);
    for (int k = 0; k < 25; ++k) {
      const double phi = angle(rng);
      const double gamma = polar(rng);
      const double cg = scale(rng);
      ASSERT_EQ(profile.evaluate(phi, gamma), reference.evaluate(phi, gamma))
          << "set " << set << " phi " << phi << " gamma " << gamma;
      ASSERT_EQ(profile.evaluateDirection(phi, cg),
                reference.evaluateDirection(phi, cg))
          << "set " << set << " phi " << phi << " scale " << cg;
      const PowerProfile::WeightStats got = profile.weightStats(phi, gamma);
      const PowerProfile::WeightStats want =
          reference.weightStats(phi, gamma);
      ASSERT_EQ(got.meanWeight, want.meanWeight) << "set " << set;
      ASSERT_EQ(got.effectiveFraction, want.effectiveFraction)
          << "set " << set;
    }
    // The sweep every fix starts from samples the same kernel on the
    // circular grid.
    const std::vector<double> samples = profile.sampleAzimuth(48, 0.3);
    for (size_t i = 0; i < samples.size(); ++i) {
      ASSERT_EQ(samples[i],
                reference.evaluate(dsp::circularGridAngle(i, 48), 0.3));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FormulasAndGrouping, ProfileReference,
    ::testing::Values(KernelCase{ProfileFormula::kClassicalP, true},
                      KernelCase{ProfileFormula::kClassicalP, false},
                      KernelCase{ProfileFormula::kRelativeQ, true},
                      KernelCase{ProfileFormula::kRelativeQ, false},
                      KernelCase{ProfileFormula::kEnhancedR, true},
                      KernelCase{ProfileFormula::kEnhancedR, false}));

}  // namespace
}  // namespace tagspin::core
