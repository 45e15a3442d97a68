// Ablations beyond the paper's figures -- the design choices DESIGN.md
// calls out:
//  (1) profile formula P/Q/R under the full noise model,
//  (2) the weight-bandwidth scale of R(phi),
//  (3) multipath strength (scatterer reflectivity),
//  (4) channel hopping on/off with channel-coherent grouping,
//  (5) third, vertically-spinning rig for +-z disambiguation
//      (the paper's future-work extension).
//
// Usage: fig_ablation [--seed=N] [--json[=PATH]] [trials]
// --json writes the machine-readable trajectory sidecar (default PATH
// "BENCH_ablation.json"); the exit code reflects its acceptance gates.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/config.hpp"
#include "core/tagspin.hpp"
#include "eval/estimators.hpp"
#include "eval/report.hpp"
#include "rf/channel.hpp"
#include "sim/interrogator.hpp"

using namespace tagspin;

constexpr char kUsage[] = "fig_ablation [--seed=N] [--json[=PATH]] [trials]";

namespace {

eval::RunResult run2d(const sim::World& world, int trials, uint64_t seed,
                      const core::LocatorConfig& lc) {
  eval::RunnerConfig rc;
  rc.world = world;
  rc.region = sim::Region{};
  rc.trials = trials;
  rc.durationS = 30.0;
  rc.seed = seed;
  return eval::runExperiment(rc, eval::makeTagspin2D(lc));
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 99;  // the eval::RunnerConfig default
  std::string sidecarPath;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(7));
    } else if (arg == "--json") {
      sidecarPath = "BENCH_ablation.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      sidecarPath = arg.substr(7);
    } else {
      pos.push_back(arg);
    }
  }
  const int trials = bench::numberArg(pos, 0, 10, kUsage);
  // Offset for the sections with their own RNGs: zero at the default seed,
  // so `--seed` absent reproduces the historical output exactly.
  const uint64_t seedDelta = seed - 99;

  // Headline numbers captured for the --json sidecar.
  double meanP = 0.0, meanR = 0.0;
  double mpFirst = 0.0, mpLast = 0.0;
  double hopGrouped = 0.0, hopNaive = 0.0;
  double zPrior = 0.0, zVertical = 0.0;

  eval::printHeading("Ablation 1: profile formula (full noise model, 2D)");
  {
    sim::ScenarioConfig sc;
    sc.seed = 201;
    sc.fixedChannel = true;
    const sim::World world = sim::makeTwoRigWorld(sc);
    eval::printSummaryHeader();
    for (const auto& [name, f] :
         {std::pair{"P (classical AoA)", core::ProfileFormula::kClassicalP},
          std::pair{"Q (relative)", core::ProfileFormula::kRelativeQ},
          std::pair{"R (enhanced)", core::ProfileFormula::kEnhancedR}}) {
      core::LocatorConfig lc;
      lc.profile.formula = f;
      const dsp::Summary s = run2d(world, trials, seed, lc).summary;
      if (f == core::ProfileFormula::kClassicalP) meanP = s.mean;
      if (f == core::ProfileFormula::kEnhancedR) meanR = s.mean;
      eval::printSummaryRow(name, s);
    }
  }

  eval::printHeading("Ablation 2: R(phi) weight bandwidth scale");
  {
    sim::ScenarioConfig sc;
    sc.seed = 202;
    sc.fixedChannel = true;
    const sim::World world = sim::makeTwoRigWorld(sc);
    std::vector<std::pair<double, double>> series;
    for (double scale : {1.0, 2.0, 3.0, 5.0, 8.0}) {
      core::LocatorConfig lc;
      lc.profile.weightSigmaScale = scale;
      series.emplace_back(scale, run2d(world, trials, seed, lc).summary.mean);
    }
    eval::printSeries("sigma_scale", "mean_err_cm", series);
    std::printf("[after orientation calibration the residuals are noise-"
                "dominated and R is insensitive to the scale; the scale "
                "matters when structured residuals remain -- see DESIGN.md "
                "deviation 3]\n");
  }

  eval::printHeading("Ablation 3: multipath strength");
  {
    std::vector<std::pair<double, double>> series;
    for (double refl : {0.0, 0.01, 0.02, 0.05, 0.10}) {
      sim::ScenarioConfig sc;
      sc.seed = 203;
      sc.fixedChannel = true;
      sc.multipath = refl > 0.0;
      sim::World world = sim::makeTwoRigWorld(sc);
      std::vector<rf::Scatterer> scatterers = world.channel.scatterers();
      for (rf::Scatterer& s : scatterers) s.reflectivity = refl;
      world.channel =
          rf::BackscatterChannel(world.channel.config(), scatterers);
      series.emplace_back(refl, run2d(world, trials, seed, {}).summary.mean);
    }
    mpFirst = series.front().second;
    mpLast = series.back().second;
    eval::printSeries("reflectivity", "mean_err_cm", series);
    std::printf("[coherent multipath is the dominant residual error]\n");
  }

  eval::printHeading("Ablation 4: channel hopping + channel-coherent groups");
  {
    eval::printSummaryHeader();
    for (const bool hopping : {false, true}) {
      sim::ScenarioConfig sc;
      sc.seed = 204;
      sc.fixedChannel = !hopping;
      const sim::World world = sim::makeTwoRigWorld(sc);
      for (const bool grouped : {true, false}) {
        if (!hopping && !grouped) continue;  // identical to grouped
        core::LocatorConfig lc;
        lc.profile.channelCoherent = grouped;
        char name[64];
        std::snprintf(name, sizeof name, "%s, %s",
                      hopping ? "16-ch hopping" : "fixed channel",
                      grouped ? "per-channel groups" : "naive single group");
        const dsp::Summary s = run2d(world, trials, seed, lc).summary;
        if (hopping && grouped) hopGrouped = s.mean;
        if (hopping && !grouped) hopNaive = s.mean;
        eval::printSummaryRow(name, s);
      }
    }
    std::printf("[relative phases only cohere within a channel; grouping "
                "restores accuracy under regulatory hopping]\n");
  }

  eval::printHeading(
      "Ablation 5: third vertically-spinning rig resolves the z sign");
  {
    sim::ScenarioConfig sc;
    sc.seed = 205;
    sc.fixedChannel = true;
    sc.rigPlaneZ = 1.2;  // rigs on a shelf; readers below them
    sim::World world = sim::makeTwoRigWorld(sc);
    sim::addVerticalRig(world, {0.0, 0.35, sc.rigPlaneZ}, sc);

    // Readers BELOW the rig plane: the kNonNegative prior mirrors every one
    // of them to the wrong half-space; the vertical rig recovers the sign.
    core::LocatorConfig withPrior;  // default kNonNegative
    core::LocatorConfig withVertical;
    withVertical.zResolution = core::ZResolution::kBoth;

    const auto models = eval::runCalibrationPrelude(world, 60.0);
    std::vector<eval::ErrorCm> priorErrors, verticalErrors;
    std::mt19937_64 rng(777 + seedDelta);
    std::uniform_real_distribution<double> dx(-1.2, 1.2), dy(1.0, 2.8),
        dz(0.3, 1.0);
    for (int trial = 0; trial < trials; ++trial) {
      sim::World w = world;
      const geom::Vec3 truth{dx(rng), dy(rng), sc.rigPlaneZ - dz(rng)};
      sim::placeReaderAntenna(w, 0, truth);
      const auto reports =
          sim::interrogate(
              w, {30.0, 0, static_cast<uint64_t>(trial) + 1 + seedDelta});

      const auto priorServer =
          eval::buildTagspinServer(w, models, withPrior);
      priorErrors.push_back(
          eval::errorCm(priorServer.locate3D(reports).position, truth));
      const auto verticalServer =
          eval::buildTagspinServer(w, models, withVertical);
      verticalErrors.push_back(
          eval::errorCm(verticalServer.locate3D(reports).position, truth));
    }
    const dsp::Summary priorSummary = eval::summarizeCombined(priorErrors);
    const dsp::Summary verticalSummary =
        eval::summarizeCombined(verticalErrors);
    zPrior = priorSummary.mean;
    zVertical = verticalSummary.mean;
    eval::printSummaryHeader();
    eval::printSummaryRow("z>=plane prior (wrong half-space)", priorSummary);
    eval::printSummaryRow("vertical-rig disambiguation", verticalSummary);
    std::printf("[readers are 0.3-1.0 m BELOW the rig plane: the fixed "
                "prior mirrors them, the third (vertically spinning) rig "
                "recovers the true sign -- the paper's future-work "
                "extension]\n");
  }

  // One machine-readable record: the gates encode the qualitative claim of
  // each ablation with generous margins (the seeds are fixed, but CI runs
  // with few trials, so the gates test direction, not exact magnitudes).
  bench::BenchRecord record;
  record.name = "ablation";
  record.seed = seed;
  record.gate("profile_r_not_worse_than_p", meanR <= meanP * 1.25 + 0.5);
  record.gate("multipath_error_grows", mpLast >= mpFirst * 2.0);
  record.gate("grouping_recovers_hopping_accuracy",
              hopGrouped <= hopNaive + 0.5);
  record.gate("vertical_rig_resolves_z_sign", zVertical <= zPrior * 0.5);
  record.metric("profile_p_mean_cm", meanP);
  record.metric("profile_r_mean_cm", meanR);
  record.metric("multipath_clean_mean_cm", mpFirst);
  record.metric("multipath_strong_mean_cm", mpLast);
  record.metric("hopping_grouped_mean_cm", hopGrouped);
  record.metric("hopping_naive_mean_cm", hopNaive);
  record.metric("z_prior_mean_cm", zPrior);
  record.metric("z_vertical_mean_cm", zVertical);
  if (!sidecarPath.empty()) {
    bench::writeBenchSidecar(sidecarPath, record);
  }
  return record.allGatesPass() ? 0 : 1;
}
