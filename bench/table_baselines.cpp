// Section VII-B baseline comparison -- the table behind Fig. 10's claims:
// Tagspin vs LandMarc, AntLoc, PinIt and BackPos, with the improvement
// factor of Tagspin over each.  Paper: Tagspin outperforms LandMarc by
// ~8.9x in 2D; the other baselines sit in between.
//
// Tagspin runs on its own infrastructure (two spinning rigs); the baselines
// run in the same room with the reference-tag grid their designs require.
#include <cstdio>
#include <vector>

#include "baselines/antloc.hpp"
#include "baselines/backpos.hpp"
#include "baselines/landmarc.hpp"
#include "baselines/pinit.hpp"
#include "bench_json.hpp"
#include "eval/estimators.hpp"
#include "eval/report.hpp"

using namespace tagspin;

constexpr char kUsage[] = "table_baselines [trials]";

int main(int argc, char** argv) {
  const int trials = bench::Main(argc, argv, {.usage = kUsage}).number(0, 20);
  eval::printHeading("Baseline comparison (2D, same room, same trials)");

  sim::ScenarioConfig sc;
  sc.seed = 11;
  sc.fixedChannel = true;
  const sim::Region region{};

  sim::World rigsOnly = sim::makeTwoRigWorld(sc);
  sim::World withGrid = sim::makeTwoRigWorld(sc);
  sim::addReferenceGrid(withGrid, region, 0.6, 0.0);

  eval::RunnerConfig tagspinRc;
  tagspinRc.world = rigsOnly;
  tagspinRc.region = region;
  tagspinRc.trials = trials;
  tagspinRc.durationS = 30.0;

  eval::RunnerConfig baselineRc = tagspinRc;
  baselineRc.world = withGrid;
  baselineRc.calibrateOrientation = false;  // baselines don't use the prelude

  struct Row {
    const char* name;
    eval::RunResult result;
  };
  std::vector<Row> rows;
  rows.push_back({"Tagspin",
                  eval::runExperiment(tagspinRc, eval::makeTagspin2D())});
  rows.push_back({"LandMarc", eval::runExperiment(
                                  baselineRc, eval::makeLandmarc({}))});
  rows.push_back(
      {"AntLoc", eval::runExperiment(baselineRc, eval::makeAntLoc({}))});
  rows.push_back(
      {"PinIt", eval::runExperiment(baselineRc, eval::makePinIt({}))});
  rows.push_back(
      {"BackPos", eval::runExperiment(baselineRc, eval::makeBackPos({}))});

  eval::printSummaryHeader();
  for (const Row& r : rows) eval::printSummaryRow(r.name, r.result.summary);

  std::printf("\nTagspin improvement factors (mean error ratio):\n");
  const double tagspinMean = rows[0].result.summary.mean;
  for (size_t i = 1; i < rows.size(); ++i) {
    std::printf("  vs %-10s %5.1fx\n", rows[i].name,
                rows[i].result.summary.mean / tagspinMean);
  }
  std::printf("[paper: outperforms LandMarc/AntLoc/PinIt/BackPos; LandMarc "
              "by ~8.9x in 2D.  BackPos is bimodal here: sub-cm when the "
              "lambda/2 ambiguity resolves, metres when it does not.]\n");
  return 0;
}
