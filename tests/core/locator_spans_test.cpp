// Span attribution of the 2D fix: on the fleet configuration the locator's
// non-overlapping child spans -- span.rig_health (the per-rig health sweep),
// span.profile_eval (profile builds) and span.spectrum_search (sweeps and
// refine rounds) -- must account for at least 95% of span.fix2d, so a fix's
// latency can be explained stage by stage.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/locator.hpp"
#include "eval/fleet.hpp"
#include "geom/angles.hpp"
#include "obs/metrics.hpp"
#include "synthetic.hpp"

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

}  // namespace
}  // namespace tagspin::core
