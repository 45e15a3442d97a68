// Fig. 12 -- impact of parameters (all 2D, as in the paper):
//  (a) distance between the two rig centers, 20..80 cm: stable above
//      ~30 cm, degraded at the minimum (2r = 20 cm, disks touching);
//  (b) disk radius, 2..30 cm: stable window ~[8, 20] cm -- smaller radii
//      leave the phases indistinguishable, larger radii break the far-field
//      D >> r approximation;
//  (c) tag diversity: the five Alien models perform nearly identically;
//  (d) antenna diversity: the four reader ports perform nearly identically.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "eval/estimators.hpp"
#include "eval/report.hpp"
#include "rfid/tag_models.hpp"

using namespace tagspin;

constexpr char kUsage[] = "fig12_parameters [trials]";

namespace {

eval::RunResult run2d(const sim::ScenarioConfig& sc, int trials,
                      int antennaPort = 0) {
  eval::RunnerConfig rc;
  rc.world = sim::makeTwoRigWorld(sc);
  rc.region = sim::Region{};
  rc.trials = trials;
  rc.durationS = 30.0;
  rc.antennaPort = antennaPort;
  return eval::runExperiment(rc, eval::makeTagspin2D());
}

}  // namespace

int main(int argc, char** argv) {
  const int trials = bench::numberArg(
      std::vector<std::string>(argv + 1, argv + argc), 0, 10, kUsage);

  eval::printHeading("Fig. 12(a): error vs distance between rig centers");
  {
    std::vector<std::pair<double, double>> series;
    for (double cm = 20.0; cm <= 80.0 + 1e-9; cm += 10.0) {
      sim::ScenarioConfig sc;
      sc.seed = 120;
      sc.fixedChannel = true;
      sc.centerSpacingM = cm / 100.0;
      series.emplace_back(cm, run2d(sc, trials).summary.mean);
    }
    eval::printSeries("centers_cm", "mean_err_cm", series);
    std::printf("[paper: stable above ~30 cm; impaired at the 2r minimum]\n");
  }

  eval::printHeading("Fig. 12(b): error vs disk radius");
  {
    std::vector<std::pair<double, double>> series;
    for (double cm : {2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 25.0, 30.0}) {
      sim::ScenarioConfig sc;
      sc.seed = 121;
      sc.fixedChannel = true;
      sc.rigRadiusM = cm / 100.0;
      // Keep the disks from overlapping at large radii.
      sc.centerSpacingM = std::max(0.40, 2.2 * sc.rigRadiusM);
      series.emplace_back(cm, run2d(sc, trials).summary.mean);
    }
    eval::printSeries("radius_cm", "mean_err_cm", series);
    std::printf("[paper: accurate and stable for radius in ~[8, 20] cm]\n");
  }

  eval::printHeading("Fig. 12(c): error vs tag model (tag diversity)");
  {
    eval::printSummaryHeader();
    double lo = 1e18, hi = 0.0;
    for (const rfid::TagModel& model : rfid::allTagModels()) {
      sim::ScenarioConfig sc;
      sc.seed = 122;
      sc.fixedChannel = true;
      sc.tagModel = model.id;
      const auto res = run2d(sc, trials);
      eval::printSummaryRow(model.name, res.summary);
      lo = std::min(lo, res.summary.mean);
      hi = std::max(hi, res.summary.mean);
    }
    std::printf("max-min spread across models: %.2f cm "
                "[paper: fraction of a cm]\n", hi - lo);
  }

  eval::printHeading("Fig. 12(d): error CDF per reader antenna port");
  {
    eval::printSummaryHeader();
    for (int port = 0; port < 4; ++port) {
      sim::ScenarioConfig sc;
      sc.seed = 123;
      sc.fixedChannel = true;
      sc.antennaCount = 4;
      const auto res = run2d(sc, trials, port);
      char name[32];
      std::snprintf(name, sizeof name, "Antenna %d", port + 1);
      eval::printSummaryRow(name, res.summary);
    }
    std::printf("[paper: only slight differences across the four antennas]\n");
  }
  return 0;
}
