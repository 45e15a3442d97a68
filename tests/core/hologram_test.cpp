#include "core/hologram.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "geom/angles.hpp"
#include "synthetic.hpp"

namespace tagspin::core {
namespace {

using testing::SyntheticConfig;
using testing::defaultKinematics;
using testing::makeSnapshots;

/// Exact-distance snapshots (the hologram's model), not the far-field
/// approximation of makeSnapshots.
RigObservation exactObservation(const geom::Vec3& center,
                                const geom::Vec2& reader, uint64_t seed,
                                double noise = 0.0) {
  RigObservation obs;
  obs.rig.center = center;
  obs.rig.kinematics = defaultKinematics();
  obs.rig.kinematics.initialAngle = 0.3 * static_cast<double>(seed);
  std::mt19937_64 rng(seed);
  // The distribution requires stddev > 0; at zero noise it is never drawn.
  std::normal_distribution<double> n(0.0, noise > 0.0 ? noise : 1.0);
  const double lambda = 0.325;
  for (int i = 0; i < 800; ++i) {
    const double t = 30.0 * i / 800.0;
    const double a = obs.rig.kinematics.diskAngle(t);
    const geom::Vec3 tagPos =
        center + geom::Vec3{0.10 * std::cos(a), 0.10 * std::sin(a), 0.0};
    Snapshot s;
    s.timeS = t;
    s.phaseRad = geom::wrapTwoPi(
        4.0 * geom::kPi / lambda *
            geom::distance(tagPos, {reader.x, reader.y, center.z}) +
        1.1 + (noise > 0.0 ? n(rng) : 0.0));
    s.lambdaM = lambda;
    obs.snapshots.push_back(s);
  }
  return obs;
}

TEST(Hologram, SingleRigRangesAtCloseDistance) {
  // The key capability beyond angle spectra: ONE rig suffices because the
  // wavefront curvature encodes range.
  const geom::Vec2 reader{0.5, 1.2};
  const std::vector<RigObservation> obs{
      exactObservation({0.0, 0.0, 0.0}, reader, 1)};
  const Hologram holo(obs);
  const Fix2D fix = holo.locate();
  EXPECT_LT(geom::distance(fix.position, reader), 0.05);
}

TEST(Hologram, TwoRigsSharpens) {
  const geom::Vec2 reader{0.7, 1.8};
  const std::vector<RigObservation> obs{
      exactObservation({-0.2, 0.0, 0.0}, reader, 1, 0.1),
      exactObservation({0.2, 0.0, 0.0}, reader, 2, 0.1)};
  const Hologram holo(obs);
  const Fix2D fix = holo.locate();
  EXPECT_LT(geom::distance(fix.position, reader), 0.05);
}

TEST(Hologram, IntensityPeaksAtTruth) {
  const geom::Vec2 reader{0.4, 1.5};
  const std::vector<RigObservation> obs{
      exactObservation({0.0, 0.0, 0.0}, reader, 3)};
  const Hologram holo(obs);
  const double atTruth = holo.intensity(reader);
  EXPECT_NEAR(atTruth, 1.0, 1e-6);
  EXPECT_LT(holo.intensity({reader.x + 0.3, reader.y}), atTruth);
  EXPECT_LT(holo.intensity({reader.x, reader.y + 0.5}), atTruth);
}

TEST(Hologram, AdditiveAndMultiplicativeBothLocate) {
  const geom::Vec2 reader{-0.4, 2.0};
  const std::vector<RigObservation> obs{
      exactObservation({-0.2, 0.0, 0.0}, reader, 4, 0.1),
      exactObservation({0.2, 0.0, 0.0}, reader, 5, 0.1)};
  for (const bool multiplicative : {true, false}) {
    HologramConfig config;
    config.multiplicative = multiplicative;
    const Hologram holo(obs, config);
    EXPECT_LT(geom::distance(holo.locate().position, reader), 0.06)
        << "multiplicative=" << multiplicative;
  }
}

TEST(Hologram, SampleImageHasPeakNearTruth) {
  const geom::Vec2 reader{0.0, 1.5};
  const std::vector<RigObservation> obs{
      exactObservation({0.0, 0.0, 0.0}, reader, 6)};
  HologramConfig config;
  config.xMin = -1.0;
  config.xMax = 1.0;
  config.yMin = 0.5;
  config.yMax = 2.5;
  const Hologram holo(obs, config);
  const auto img = holo.sample(21, 21);
  ASSERT_EQ(img.size(), 21u);
  ASSERT_EQ(img[0].size(), 21u);
  double best = -1.0;
  size_t bx = 0, by = 0;
  for (size_t y = 0; y < 21; ++y) {
    for (size_t x = 0; x < 21; ++x) {
      if (img[y][x] > best) {
        best = img[y][x];
        bx = x;
        by = y;
      }
    }
  }
  const double px = -1.0 + 2.0 * static_cast<double>(bx) / 20.0;
  const double py = 0.5 + 2.0 * static_cast<double>(by) / 20.0;
  EXPECT_LT(geom::distance(geom::Vec2{px, py}, reader), 0.25);
}

TEST(Hologram, Validation) {
  EXPECT_THROW(Hologram({}, {}), std::invalid_argument);
  HologramConfig bad;
  bad.xMax = bad.xMin;
  const geom::Vec2 reader{0.0, 1.0};
  const std::vector<RigObservation> obs{
      exactObservation({0.0, 0.0, 0.0}, reader, 1)};
  EXPECT_THROW(Hologram(obs, bad), std::invalid_argument);
}

TEST(Hologram, ChannelGroupsStayCoherent) {
  // Mixed channels with different wavelengths: per-(rig, channel) grouping
  // keeps intensity(truth) ~ 1.
  const geom::Vec2 reader{0.3, 1.4};
  RigObservation obs = exactObservation({0.0, 0.0, 0.0}, reader, 8);
  // Re-tag half the snapshots to a second channel at a different lambda.
  for (size_t i = 0; i < obs.snapshots.size(); i += 2) {
    Snapshot& s = obs.snapshots[i];
    const double a = obs.rig.kinematics.diskAngle(s.timeS);
    const geom::Vec3 tagPos =
        obs.rig.center +
        geom::Vec3{0.10 * std::cos(a), 0.10 * std::sin(a), 0.0};
    s.lambdaM = 0.3243;
    s.channel = 5;
    s.phaseRad = geom::wrapTwoPi(
        4.0 * geom::kPi / s.lambdaM *
            geom::distance(tagPos, {reader.x, reader.y, 0.0}) +
        2.2);
  }
  const std::vector<RigObservation> all{obs};
  const Hologram holo(all);
  EXPECT_NEAR(holo.intensity(reader), 1.0, 1e-6);
}

}  // namespace
}  // namespace tagspin::core
