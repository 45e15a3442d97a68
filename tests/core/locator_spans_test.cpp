// Span attribution of the fixes: the locator's non-overlapping child spans
// -- span.rig_health (the per-rig health sweep), span.profile_eval (profile
// builds), span.spectrum_search (sweeps and refine rounds), span.diagnose
// (spin diagnosis, with 3D's azimuth sweep at the peak's polar angle),
// span.consensus and span.bootstrap -- must account for at least 95% of
// span.fix2d and span.fix3d, so a fix's latency can be explained stage by
// stage.  Covered: the fleet and default 2D configurations, and a
// survey-like 3D one (diagnostics, consensus and bootstrap on, with
// orientation models).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/locator.hpp"
#include "eval/fleet.hpp"
#include "geom/angles.hpp"
#include "obs/metrics.hpp"
#include "locator_scenes.hpp"

namespace tagspin::core {
namespace {

using testing::SyntheticConfig;
using testing::defaultKinematics;
using testing::makeSnapshots;

/// Three rigs in a row, 400 snapshots each (the fleet's per-tag cap).
std::vector<RigObservation> fleetObservations(const geom::Vec3& reader,
                                              uint64_t seed) {
  std::vector<RigObservation> obs;
  for (double x : {-0.4, 0.0, 0.4}) {
    RigObservation o;
    o.rig.center = {x, 0.0, 0.0};
    o.rig.kinematics = defaultKinematics();
    SyntheticConfig sc;
    sc.distanceM = (reader.xy() - o.rig.center.xy()).norm();
    sc.readerAzimuth = geom::azimuthOf(o.rig.center, reader);
    sc.noiseStd = 0.1;
    sc.count = 400;
    sc.durationS = 18.0;
    sc.seed = seed++;
    o.snapshots = makeSnapshots(sc, o.rig.kinematics);
    obs.push_back(std::move(o));
  }
  return obs;
}

TEST(LocatorSpans, ChildSpansCoverFix2DOnFleetConfig) {
  obs::MetricsRegistry registry;
  Locator locator(
      eval::FleetEvalConfig::defaultFleetConfig().supervisor.locator);
  locator.setMetrics(&registry);
  constexpr int kFixes = 24;
  for (int k = 0; k < kFixes; ++k) {
    const geom::Vec3 reader{-1.2 + 0.1 * k, 1.5 + 0.05 * k, 0.0};
    const auto fix =
        locator.tryLocate2D(fleetObservations(reader, 100 + 3 * k));
    ASSERT_TRUE(fix) << fix.error().message;
  }
  const obs::Histogram* fix2d = registry.histogram("span.fix2d");
  ASSERT_EQ(fix2d->count(), static_cast<uint64_t>(kFixes));
  const double children = registry.histogram("span.rig_health")->sum() +
                          registry.histogram("span.profile_eval")->sum() +
                          registry.histogram("span.spectrum_search")->sum();
  EXPECT_EQ(registry.histogram("span.rig_health")->count(),
            static_cast<uint64_t>(3 * kFixes));
  EXPECT_GE(children / fix2d->sum(), 0.95)
      << "children " << children << " s of " << fix2d->sum() << " s";
  EXPECT_LE(children, fix2d->sum());  // nested inside, never overlapping
}

/// Seconds inside every child span of a fix.
double childSeconds(obs::MetricsRegistry& registry) {
  double sum = 0.0;
  for (const char* name :
       {"span.rig_health", "span.profile_eval", "span.spectrum_search",
        "span.diagnose", "span.consensus", "span.bootstrap"}) {
    sum += registry.histogram(name)->sum();
  }
  return sum;
}

TEST(LocatorSpans, ChildSpansCoverFix2DOnDefaultConfig) {
  obs::MetricsRegistry registry;
  Locator locator;  // 720-point grid, diagnostics and consensus on
  locator.setMetrics(&registry);
  constexpr int kFixes = 6;
  for (int k = 0; k < kFixes; ++k) {
    const geom::Vec3 reader{-1.0 + 0.4 * k, 1.6 + 0.1 * k, 0.0};
    const auto fix =
        locator.tryLocate2D(fleetObservations(reader, 300 + 3 * k));
    ASSERT_TRUE(fix) << fix.error().message;
  }
  const obs::Histogram* fix2d = registry.histogram("span.fix2d");
  ASSERT_EQ(fix2d->count(), static_cast<uint64_t>(kFixes));
  EXPECT_GT(registry.histogram("span.diagnose")->sum(), 0.0);
  EXPECT_EQ(registry.histogram("span.consensus")->count(),
            static_cast<uint64_t>(kFixes));
  const double children = childSeconds(registry);
  RecordProperty("coverage", std::to_string(children / fix2d->sum()));
  EXPECT_GE(children / fix2d->sum(), 0.95)
      << "children " << children << " s of " << fix2d->sum() << " s";
  EXPECT_LE(children, fix2d->sum());
}

TEST(LocatorSpans, ChildSpansCoverFix3DOnSurveyLikeConfig) {
  obs::MetricsRegistry registry;
  LocatorConfig config;
  config.search.azimuthGridPoints = 360;
  config.search.polarGridPoints = 31;
  config.robust.diagnostics = true;
  config.robust.consensus = true;
  config.robust.bootstrap = true;
  Locator locator(config);
  locator.setMetrics(&registry);
  const std::vector<geom::Vec3> readers{{0.7, 1.9, 0.5}, {-0.5, 1.7, 0.3}};
  for (const geom::Vec3& reader : readers) {
    const auto fix = locator.tryLocate3D(testing::scene(reader, true));
    ASSERT_TRUE(fix) << fix.error().message;
  }
  const obs::Histogram* fix3d = registry.histogram("span.fix3d");
  ASSERT_EQ(fix3d->count(), readers.size());
  EXPECT_EQ(registry.histogram("span.bootstrap")->count(), readers.size());
  EXPECT_GT(registry.histogram("span.diagnose")->sum(), 0.0);
  EXPECT_GT(registry.histogram("span.consensus")->count(), 0u);
  const double children = childSeconds(registry);
  RecordProperty("coverage", std::to_string(children / fix3d->sum()));
  EXPECT_GE(children / fix3d->sum(), 0.95)
      << "children " << children << " s of " << fix3d->sum() << " s";
  EXPECT_LE(children, fix3d->sum());
}

}  // namespace
}  // namespace tagspin::core
