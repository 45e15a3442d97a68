// The vectorised profile kernel against its scalar reference
// (profile_reference.hpp).  The kernel's polynomial sin/cos/exp and its
// lane-wise group sums differ from libm and entry-order summation by a few
// ulp, so values are held to a stated absolute bound, kBound = 1e-13, for
// P, Q and R, the generalised steering and both weight statistics.  P and
// Q stay within a few 1e-16.  R can amplify ulp differences: a channel
// group whose residuals are spread evenly round the circle has an
// ill-conditioned circular mean (one random set here has
// |centroid| / size = 5e-5), and narrow weights magnify the shift of that
// centre; the largest deviation seen is 3.8e-14 there, 2e-15 elsewhere.
// On top of the bound: the exp-underflow regime, large azimuths, NaN where
// (and only where) the reference gives NaN, the grid argmax on the
// locator's test scenes, and the AVX2 and baseline builds agreeing bit for
// bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/power_profile.hpp"
#include "dsp/grid.hpp"
#include "dsp/peaks.hpp"
#include "geom/angles.hpp"
#include "locator_scenes.hpp"
#include "profile_reference.hpp"

namespace tagspin::core {
namespace {

constexpr double kBound = 1e-13;

struct KernelCase {
  ProfileFormula formula;
  bool channelCoherent;
};

/// Names a case in test listings ("RGrouped"), in place of its bytes.
void PrintTo(const KernelCase& c, std::ostream* os) {
  *os << (c.formula == ProfileFormula::kClassicalP  ? "P"
          : c.formula == ProfileFormula::kRelativeQ ? "Q"
                                                    : "R")
      << (c.channelCoherent ? "Grouped" : "Ungrouped");
}

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

/// Largest |kernel - reference| seen, over every value compared.
struct Deviation {
  double max = 0.0;
  void expectNear(double got, double want, const std::string& what) {
    const double d = std::abs(got - want);
    max = std::max(max, d);
    EXPECT_LE(d, kBound) << what << ": kernel " << got << " reference "
                         << want;
  }
};

/// Compares value, generalised steering and weight stats at one direction.
void compareAt(const PowerProfile& profile,
               const testing::ReferenceProfile& reference, double phi,
               double gamma, double cg, Deviation& dev,
               const std::string& what) {
  dev.expectNear(profile.evaluate(phi, gamma), reference.evaluate(phi, gamma),
                 what + " evaluate");
  dev.expectNear(profile.evaluateDirection(phi, cg),
                 reference.evaluateDirection(phi, cg),
                 what + " evaluateDirection");
  const PowerProfile::WeightStats got = profile.weightStats(phi, gamma);
  const PowerProfile::WeightStats want = reference.weightStats(phi, gamma);
  dev.expectNear(got.meanWeight, want.meanWeight, what + " meanWeight");
  dev.expectNear(got.effectiveFraction, want.effectiveFraction,
                 what + " effectiveFraction");
}

class ProfileKernel : public ::testing::TestWithParam<KernelCase> {};

TEST_P(ProfileKernel, MatchesScalarReferenceWithinBound) {
  const KernelCase c = GetParam();
  std::mt19937_64 rng(0x5EED + static_cast<uint64_t>(c.formula) * 2 +
                      (c.channelCoherent ? 1 : 0));
  std::uniform_real_distribution<double> angle(-geom::kTwoPi,
                                               2.0 * geom::kTwoPi);
  std::uniform_real_distribution<double> polar(-geom::kPi / 2.0,
                                               geom::kPi / 2.0);
  std::uniform_real_distribution<double> scale(0.0, 1.0);
  Deviation dev;
  for (int set = 0; set < 120; ++set) {
    const RandomSet s = randomSet(rng, c);
    const PowerProfile profile(s.snapshots, s.kinematics, s.config);
    const testing::ReferenceProfile reference(s.snapshots, s.kinematics,
                                              s.config);
    for (int k = 0; k < 25; ++k) {
      compareAt(profile, reference, angle(rng), polar(rng), scale(rng), dev,
                "set " + std::to_string(set));
    }
    // The sweep every fix starts from samples the same kernel on the
    // circular grid.
    const std::vector<double> samples = profile.sampleAzimuth(48, 0.3);
    for (size_t i = 0; i < samples.size(); ++i) {
      dev.expectNear(samples[i],
                     reference.evaluate(dsp::circularGridAngle(i, 48), 0.3),
                     "sampleAzimuth");
    }
    if (::testing::Test::HasFailure()) break;
  }
  std::ostringstream max;
  max << std::scientific << dev.max;
  RecordProperty("max_abs_deviation", max.str());
}

INSTANTIATE_TEST_SUITE_P(
    FormulasAndGrouping, ProfileKernel,
    ::testing::Values(KernelCase{ProfileFormula::kClassicalP, true},
                      KernelCase{ProfileFormula::kClassicalP, false},
                      KernelCase{ProfileFormula::kRelativeQ, true},
                      KernelCase{ProfileFormula::kRelativeQ, false},
                      KernelCase{ProfileFormula::kEnhancedR, true},
                      KernelCase{ProfileFormula::kEnhancedR, false}));

TEST(ProfileKernel, ExpUnderflowRegime) {
  // sigma_pair = 0.005 * sqrt(2) * 0.5: residuals of a few tenths of a
  // radian give exponents near -1e4, far past exp's underflow; the weights
  // of all but the most consistent snapshots are exactly 0.
  std::mt19937_64 rng(0xE7F);
  std::uniform_real_distribution<double> angle(0.0, geom::kTwoPi);
  Deviation dev;
  for (int set = 0; set < 40; ++set) {
    RandomSet s = randomSet(rng, {ProfileFormula::kEnhancedR, set % 2 == 0});
    s.config.phaseNoiseStd = 0.005;
    s.config.weightSigmaScale = 0.5;
    const PowerProfile profile(s.snapshots, s.kinematics, s.config);
    const testing::ReferenceProfile reference(s.snapshots, s.kinematics,
                                              s.config);
    for (int k = 0; k < 25; ++k) {
      compareAt(profile, reference, angle(rng), 0.2 * angle(rng), 1.0, dev,
                "underflow set " + std::to_string(set));
    }
  }
}

TEST(ProfileKernel, LargeAzimuths) {
  std::mt19937_64 rng(0xB16);
  std::uniform_real_distribution<double> angle(-1e3, 1e3);
  Deviation dev;
  for (const ProfileFormula f :
       {ProfileFormula::kClassicalP, ProfileFormula::kRelativeQ,
        ProfileFormula::kEnhancedR}) {
    for (int set = 0; set < 20; ++set) {
      const RandomSet s = randomSet(rng, {f, true});
      const PowerProfile profile(s.snapshots, s.kinematics, s.config);
      const testing::ReferenceProfile reference(s.snapshots, s.kinematics,
                                                s.config);
      for (int k = 0; k < 25; ++k) {
        compareAt(profile, reference, angle(rng), 0.7, 0.5, dev,
                  "large phi set " + std::to_string(set));
      }
    }
  }
}

TEST(ProfileKernel, HugePhaseArgumentsTakeTheExactWrap) {
  // A wavelength of 1e-9 m puts k r near 1e9: past the fast wrap's range,
  // the kernel wraps with fmod like the reference and stays in bound.
  std::mt19937_64 rng(0x1A7);
  std::uniform_real_distribution<double> angle(0.0, geom::kTwoPi);
  Deviation dev;
  for (const ProfileFormula f :
       {ProfileFormula::kClassicalP, ProfileFormula::kRelativeQ,
        ProfileFormula::kEnhancedR}) {
    RandomSet s = randomSet(rng, {f, false});
    s.snapshots[s.snapshots.size() / 2].lambdaM = 1e-9;
    const PowerProfile profile(s.snapshots, s.kinematics, s.config);
    const testing::ReferenceProfile reference(s.snapshots, s.kinematics,
                                              s.config);
    for (int k = 0; k < 25; ++k) {
      const double value = profile.evaluate(angle(rng), 0.1);
      EXPECT_TRUE(std::isfinite(value));
      compareAt(profile, reference, angle(rng), 0.1, 0.9, dev, "huge k r");
    }
  }
}

TEST(ProfileKernel, NonFiniteInputsGiveNaNWhereTheReferenceDoes) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Poison {
    const char* name;
    void (*apply)(Snapshot&, double);
  };
  const Poison poisons[] = {
      {"phase", [](Snapshot& s, double v) { s.phaseRad = v; }},
      {"time", [](Snapshot& s, double v) { s.timeS = v; }},
      {"lambda", [](Snapshot& s, double v) { s.lambdaM = v; }},
  };
  std::mt19937_64 rng(0x0BAD);
  std::uniform_real_distribution<double> angle(0.0, geom::kTwoPi);
  Deviation dev;
  for (const ProfileFormula f :
       {ProfileFormula::kClassicalP, ProfileFormula::kRelativeQ,
        ProfileFormula::kEnhancedR}) {
    for (const Poison& poison : poisons) {
      for (const double value : {nan, inf}) {
        // Index 0 is a group's phase reference; the middle one is not.
        for (const bool atReference : {true, false}) {
          RandomSet s = randomSet(rng, {f, true});
          const size_t at = atReference ? 0 : s.snapshots.size() / 2;
          poison.apply(s.snapshots[at], value);
          const std::string what = std::string(poison.name) + " = " +
                                   std::to_string(value) + " at " +
                                   std::to_string(at);
          const PowerProfile profile(s.snapshots, s.kinematics, s.config);
          const testing::ReferenceProfile reference(s.snapshots,
                                                    s.kinematics, s.config);
          for (int k = 0; k < 8; ++k) {
            const double phi = angle(rng);
            const double got = profile.evaluate(phi, 0.3);
            const double want = reference.evaluate(phi, 0.3);
            ASSERT_EQ(std::isnan(got), std::isnan(want)) << what;
            if (!std::isnan(want)) dev.expectNear(got, want, what);
            const auto gotStats = profile.weightStats(phi, 0.3);
            const auto wantStats = reference.weightStats(phi, 0.3);
            ASSERT_EQ(std::isnan(gotStats.meanWeight),
                      std::isnan(wantStats.meanWeight))
                << what;
            ASSERT_EQ(std::isnan(gotStats.effectiveFraction),
                      std::isnan(wantStats.effectiveFraction))
                << what;
          }
        }
      }
    }
  }
}

/// First grid maximum of f over an (azimuth x polar) grid, as a flat index.
template <class F>
size_t argmaxGrid(F&& f, size_t azimuths, size_t polars) {
  std::vector<double> values;
  for (size_t j = 0; j < polars; ++j) {
    const double gamma =
        0.5 * geom::kPi * static_cast<double>(j) / static_cast<double>(polars);
    for (size_t i = 0; i < azimuths; ++i) {
      values.push_back(f(dsp::circularGridAngle(i, azimuths), gamma));
    }
  }
  return dsp::argmax(values);
}

TEST(ProfileKernel, GridArgmaxMatchesReferenceOnLocatorScenes) {
  for (const geom::Vec3& reader :
       {geom::Vec3{0.8, 2.0, 0.0}, geom::Vec3{-0.9, 1.6, 0.0},
        geom::Vec3{0.7, 1.9, 0.5}}) {
    for (const bool oriented : {false, true}) {
      for (const ProfileFormula f :
           {ProfileFormula::kRelativeQ, ProfileFormula::kEnhancedR}) {
        for (const RigObservation& o : testing::scene(reader, oriented)) {
          ProfileConfig config;
          config.formula = f;
          const PowerProfile profile(o.snapshots, o.rig.kinematics, config);
          const testing::ReferenceProfile reference(
              o.snapshots, o.rig.kinematics, config);
          const std::vector<double> samples = profile.sampleAzimuth(720);
          std::vector<double> want;
          for (size_t i = 0; i < 720; ++i) {
            want.push_back(
                reference.evaluate(dsp::circularGridAngle(i, 720), 0.0));
          }
          EXPECT_EQ(dsp::argmax(samples), dsp::argmax(want));
          EXPECT_EQ(argmaxGrid([&](double phi, double gamma) {
                      return profile.evaluate(phi, gamma);
                    }, 180, 16),
                    argmaxGrid([&](double phi, double gamma) {
                      return reference.evaluate(phi, gamma);
                    }, 180, 16));
        }
      }
    }
  }
}

TEST(ProfileKernel, Avx2AndBaselineBuildsAgreeBitForBit) {
  if (!PowerProfile::isaSupported(PowerProfile::Isa::kAvx2)) {
    GTEST_SKIP() << "CPU lacks AVX2: only the baseline build can run";
  }
  using Isa = PowerProfile::Isa;
  std::mt19937_64 rng(0xA5A5);
  std::uniform_real_distribution<double> angle(-geom::kTwoPi,
                                               2.0 * geom::kTwoPi);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (const ProfileFormula f :
       {ProfileFormula::kClassicalP, ProfileFormula::kRelativeQ,
        ProfileFormula::kEnhancedR}) {
    for (int set = 0; set < 60; ++set) {
      const RandomSet s = randomSet(rng, {f, set % 2 == 0});
      const PowerProfile profile(s.snapshots, s.kinematics, s.config);
      for (int k = 0; k < 30; ++k) {
        const double phi = angle(rng);
        const double gamma = unit(rng);
        ASSERT_EQ(profile.evaluateDirection(phi, std::cos(gamma), Isa::kAvx2),
                  profile.evaluateDirection(phi, std::cos(gamma),
                                            Isa::kBaseline))
            << "set " << set;
        const auto avx2 = profile.weightStats(phi, gamma, Isa::kAvx2);
        const auto base = profile.weightStats(phi, gamma, Isa::kBaseline);
        ASSERT_EQ(avx2.meanWeight, base.meanWeight) << "set " << set;
        ASSERT_EQ(avx2.effectiveFraction, base.effectiveFraction)
            << "set " << set;
      }
    }
  }
}

}  // namespace
}  // namespace tagspin::core
