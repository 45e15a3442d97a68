// Fig. 11 -- impact of tag orientation.
// (a) Mean relative phase vs orientation, swept 0..360 deg, averaged over
//     the five tag models at several locations (relative to the rho = 90 deg
//     reference, as in the paper).
// (b) Localization error CDFs with vs without the orientation-calibration
//     step; the paper reports a ~1.7x mean improvement.
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/preprocess.hpp"
#include "eval/estimators.hpp"
#include "eval/report.hpp"
#include "geom/angles.hpp"
#include "sim/interrogator.hpp"
#include "sim/scenario.hpp"

using namespace tagspin;

constexpr char kUsage[] = "fig11_orientation_impact [trials]";

int main(int argc, char** argv) {
  const int trials = bench::Main(argc, argv, {.usage = kUsage}).number(0, 20);

  eval::printHeading("Fig. 11(a): mean relative phase vs tag orientation");
  {
    // Sweep orientation with the tag at the disk center, for each model at
    // several locations; average the relative phase per orientation bin.
    constexpr int kBins = 36;
    std::vector<double> acc(kBins, 0.0);
    std::vector<int> cnt(kBins, 0);
    int configs = 0;
    for (const rfid::TagModel& model : rfid::allTagModels()) {
      for (int loc = 0; loc < 3; ++loc) {
        sim::ScenarioConfig sc;
        sc.seed = 1100 + static_cast<uint64_t>(configs);
        sc.fixedChannel = true;
        sc.tagModel = model.id;
        sim::World world = sim::makeCenterSpinWorld(sc);
        const geom::Vec3 reader{0.4 * loc - 0.4, 1.6 + 0.5 * loc, 0.0};
        sim::placeReaderAntenna(world, 0, reader);
        const auto reports = sim::interrogate(
            world, {world.rigs[0].rig.periodS(), 0, 0});
        const auto snaps =
            core::extractSnapshots(reports, world.rigs[0].tag.epc);
        // Reference phase: the read closest to rho = 90 deg.
        double refPhase = snaps[0].phaseRad;
        double bestDist = 10.0;
        for (const auto& s : snaps) {
          const double rho = world.rigs[0].rig.orientationRho(s.timeS, reader);
          const double d = geom::circularDistance(rho, geom::kPi / 2.0);
          if (d < bestDist) {
            bestDist = d;
            refPhase = s.phaseRad;
          }
        }
        for (const auto& s : snaps) {
          const double rho = world.rigs[0].rig.orientationRho(s.timeS, reader);
          const int bin =
              static_cast<int>(geom::wrapTwoPi(rho) / geom::kTwoPi * kBins) %
              kBins;
          acc[static_cast<size_t>(bin)] +=
              geom::wrapToPi(s.phaseRad - refPhase);
          cnt[static_cast<size_t>(bin)] += 1;
        }
        ++configs;
      }
    }
    std::printf("%14s %18s   (avg over %d tag-model x location configs)\n",
                "orientation", "rel_phase_rad", configs);
    for (int b = 0; b < kBins; ++b) {
      if (cnt[b] == 0) continue;
      std::printf("%11.0f deg %18.4f\n", 360.0 * b / kBins,
                  acc[static_cast<size_t>(b)] / cnt[static_cast<size_t>(b)]);
    }
    std::printf("[paper: stable regular pattern, ~0.7 rad peak-to-peak]\n");
  }

  eval::printHeading(
      "Fig. 11(b): localization error with vs without calibration");
  {
    sim::ScenarioConfig sc;
    sc.seed = 11;
    sc.fixedChannel = true;
    eval::RunnerConfig rc;
    rc.world = sim::makeTwoRigWorld(sc);
    rc.region = sim::Region{};
    rc.trials = trials;
    rc.durationS = 30.0;

    rc.calibrateOrientation = true;
    const auto with = eval::runExperiment(rc, eval::makeTagspin2D());
    rc.calibrateOrientation = false;
    const auto without = eval::runExperiment(rc, eval::makeTagspin2D());

    eval::printSummaryHeader();
    eval::printSummaryRow("with calibration", with.summary);
    eval::printSummaryRow("without calibration", without.summary);
    eval::printCdf("with calibration",
                   eval::combinedErrors(with.errors));
    eval::printCdf("without calibration",
                   eval::combinedErrors(without.errors));
    std::printf("\nmean improvement from calibration: %.2fx "
                "[paper: ~1.7x]\n",
                without.summary.mean / with.summary.mean);
  }
  return 0;
}
