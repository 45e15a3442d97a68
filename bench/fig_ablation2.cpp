// Second ablation set -- the production-hardening extensions:
//  (1) interrogation duration vs accuracy (how long must the reader dwell?),
//  (2) number of rigs (the paper's "two or more" remark; >= 3 uses least
//      squares),
//  (3) motor imperfection: disk speed ripple vs accuracy (the server keeps
//      assuming uniform rotation),
//  (4) LLRP wire quantisation: full-precision phases vs the 12-bit
//      PhaseAngle the real reader reports,
//  (5) direct hologram vs Tagspin angle spectra (near-field curvature as
//      the upper baseline; single-rig ranging),
//  (6) multi-round fusion: mean vs geometric median over repeated fixes
//      with occasional gross errors.
//
// Usage: fig_ablation2 [--seed=N] [--json[=PATH]] [trials]
// --json writes the machine-readable trajectory sidecar (default PATH
// "BENCH_ablation2.json"); the exit code reflects its acceptance gates.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/fusion.hpp"
#include "core/hologram.hpp"
#include "core/tagspin.hpp"
#include "eval/estimators.hpp"
#include "eval/report.hpp"
#include "rfid/llrp.hpp"
#include "sim/interrogator.hpp"

using namespace tagspin;

constexpr char kUsage[] = "fig_ablation2 [--seed=N] [--json[=PATH]] [trials]";

namespace {

eval::RunResult run2d(const sim::World& world, int trials, double durationS,
                      uint64_t seed) {
  eval::RunnerConfig rc;
  rc.world = world;
  rc.region = sim::Region{};
  rc.trials = trials;
  rc.durationS = durationS;
  rc.seed = seed;
  return eval::runExperiment(rc, eval::makeTagspin2D());
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
      sidecarPath = "BENCH_ablation2.json";
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
  double durShort = 0.0, durLong = 0.0;
  double rigs2 = 0.0, rigs4 = 0.0;
  double jitterNone = 0.0, jitterWorst = 0.0;
  double fullPrecision = 0.0, wirePrecision = 0.0;
  double spectra2 = 0.0, holo2 = 0.0, holo1 = 0.0;
  double fusionWorst = 0.0, fusionMean = 0.0, fusionMedian = 0.0;

  eval::printHeading("Extension 1: interrogation duration vs accuracy");
  {
    sim::ScenarioConfig sc;
    sc.seed = 301;
    sc.fixedChannel = true;
    const sim::World world = sim::makeTwoRigWorld(sc);
    std::vector<std::pair<double, double>> series;
    for (double durationS : {3.0, 6.0, 12.0, 25.0, 50.0}) {
      series.emplace_back(
          durationS, run2d(world, trials, durationS, seed).summary.mean);
    }
    durShort = series.front().second;
    durLong = series.back().second;
    eval::printSeries("duration_s", "mean_err_cm", series);
    std::printf("[one disk revolution takes %.1f s; accuracy saturates "
                "once a couple of revolutions are captured]\n",
                geom::kTwoPi / 0.5);
  }

  eval::printHeading("Extension 2: number of spinning rigs");
  {
    std::vector<std::pair<double, double>> series;
    for (int rigs : {2, 3, 4}) {
      sim::ScenarioConfig sc;
      sc.seed = 302;
      sc.fixedChannel = true;
      sim::World world = sim::makeTwoRigWorld(sc);
      if (rigs >= 3) {
        world.rigs.push_back(world.rigs[0]);
        world.rigs[2].rig.center = {0.0, 0.5, 0.0};
        world.rigs[2].tag = sim::TagInstance::make(
            rfid::Epc::forSimulatedTag(2), sc.tagModel, 0x300AULL);
      }
      if (rigs >= 4) {
        world.rigs.push_back(world.rigs[0]);
        world.rigs[3].rig.center = {-0.45, 0.3, 0.0};
        world.rigs[3].tag = sim::TagInstance::make(
            rfid::Epc::forSimulatedTag(3), sc.tagModel, 0x300BULL);
      }
      series.emplace_back(rigs, run2d(world, trials, 30.0, seed).summary.mean);
    }
    rigs2 = series.front().second;
    rigs4 = series.back().second;
    eval::printSeries("rigs", "mean_err_cm", series);
    std::printf("[three+ rigs fuse by least squares and dilute the "
                "bad-geometry directions]\n");
  }

  eval::printHeading("Extension 3: motor speed ripple");
  {
    std::vector<std::pair<double, double>> series;
    for (double jitterDeg : {0.0, 0.5, 1.0, 2.0, 5.0, 10.0}) {
      sim::ScenarioConfig sc;
      sc.seed = 303;
      sc.fixedChannel = true;
      sim::World world = sim::makeTwoRigWorld(sc);
      for (sim::RigTag& rt : world.rigs) {
        rt.rig.speedJitterAmp = geom::degToRad(jitterDeg);
        rt.rig.jitterPeriodS = 4.7;
      }
      series.emplace_back(jitterDeg, run2d(world, trials, 30.0, seed).summary.mean);
    }
    jitterNone = series.front().second;
    jitterWorst = series.back().second;
    eval::printSeries("jitter_deg", "mean_err_cm", series);
    std::printf("[the server assumes uniform rotation; a cheap motor's "
                "ripple directly corrupts the virtual array geometry]\n");
  }

  eval::printHeading("Extension 4: LLRP 12-bit phase quantisation");
  {
    sim::ScenarioConfig sc;
    sc.seed = 304;
    sc.fixedChannel = true;
    sim::World world = sim::makeTwoRigWorld(sc);
    const auto models = eval::runCalibrationPrelude(world, 60.0);
    const core::TagspinSystem server =
        eval::buildTagspinServer(world, models, {});

    std::mt19937_64 rng(99 + seedDelta);
    std::uniform_real_distribution<double> dx(-1.4, 1.4), dy(1.0, 3.0);
    double fullAcc = 0.0, wireAcc = 0.0;
    for (int t = 0; t < trials; ++t) {
      sim::World w = world;
      const geom::Vec3 truth{dx(rng), dy(rng), 0.0};
      sim::placeReaderAntenna(w, 0, truth);
      const auto reports =
          sim::interrogate(
              w, {30.0, 0, static_cast<uint64_t>(t) + 1 + seedDelta});
      // Round-trip through the binary wire format.
      const auto wire =
          rfid::llrp::decodeStream(rfid::llrp::encodeStream(reports));
      fullAcc += geom::distance(server.locate2D(reports).position,
                                truth.xy());
      wireAcc += geom::distance(server.locate2D(wire).position, truth.xy());
    }
    fullPrecision = fullAcc / trials * 100.0;
    wirePrecision = wireAcc / trials * 100.0;
    std::printf("full precision: %.2f cm | through 12-bit LLRP wire: "
                "%.2f cm  (resolution %.4f rad << 0.1 rad noise)\n",
                fullPrecision, wirePrecision,
                rfid::llrp::phaseResolutionRad());
  }

  eval::printHeading("Extension 5: direct hologram vs angle spectra");
  {
    sim::ScenarioConfig sc;
    sc.seed = 305;
    sc.fixedChannel = true;
    sim::World world = sim::makeTwoRigWorld(sc);
    const auto models = eval::runCalibrationPrelude(world, 60.0);
    const core::TagspinSystem server =
        eval::buildTagspinServer(world, models, {});

    std::mt19937_64 rng(7 + seedDelta);
    std::uniform_real_distribution<double> dx(-1.4, 1.4), dy(1.0, 3.0);
    double spectraAcc = 0.0, holoAcc = 0.0, holo1Acc = 0.0;
    for (int t = 0; t < trials; ++t) {
      sim::World w = world;
      const geom::Vec3 truth{dx(rng), dy(rng), 0.0};
      sim::placeReaderAntenna(w, 0, truth);
      const auto reports =
          sim::interrogate(
              w, {30.0, 0, static_cast<uint64_t>(t) + 1 + seedDelta});
      const core::Fix2D spectraFix = server.locate2D(reports);
      spectraAcc += geom::distance(spectraFix.position, truth.xy());

      // The hologram runs as a refinement stage: orientation-calibrate the
      // snapshots against the angle-spectrum fix first (exactly what the
      // locator's own calibration loop does).
      auto obs = server.collectObservations(reports);
      const geom::Vec3 ref{spectraFix.position.x, spectraFix.position.y,
                           obs[0].rig.center.z};
      for (core::RigObservation& o : obs) {
        o.snapshots = core::calibrateOrientationAtPosition(
            o.snapshots, o.rig, o.orientation, ref);
      }
      holoAcc += geom::distance(core::Hologram(obs).locate().position,
                                truth.xy());
      const std::vector<core::RigObservation> single{obs[0]};
      holo1Acc += geom::distance(core::Hologram(single).locate().position,
                                 truth.xy());
    }
    spectra2 = spectraAcc / trials * 100.0;
    holo2 = holoAcc / trials * 100.0;
    holo1 = holo1Acc / trials * 100.0;
    std::printf("angle spectra (2 rigs): %6.2f cm\n", spectra2);
    std::printf("hologram      (2 rigs): %6.2f cm\n", holo2);
    std::printf("hologram      (1 rig!): %6.2f cm\n", holo1);
    std::printf("[the hologram exploits wavefront curvature: a single rig "
                "coarsely ranges the reader at metres of distance (the "
                "angle-spectrum method cannot range at all with one rig); "
                "with two rigs both methods reach cm level]\n");
  }

  eval::printHeading("Extension 6: multi-round fusion (mean vs median)");
  {
    sim::ScenarioConfig sc;
    sc.seed = 306;
    sc.fixedChannel = true;
    sim::World world = sim::makeTwoRigWorld(sc);
    // Hostile interference: 20% outlier reads make occasional rounds fail.
    rf::ChannelConfig cc = world.channel.config();
    cc.phaseOutlierProb = 0.20;
    world.channel = rf::BackscatterChannel(cc, world.channel.scatterers());
    const core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});

    const geom::Vec3 truth{0.9, 2.6, 0.0};
    sim::placeReaderAntenna(world, 0, truth);
    std::vector<geom::Vec2> fixes;
    for (int round = 0; round < 9; ++round) {
      const auto reports = sim::interrogate(
          world,
          {8.0, 0, 0x600ULL + static_cast<uint64_t>(round) + seedDelta});
      fixes.push_back(server.locate2D(reports).position);
    }
    geom::Vec2 mean{};
    for (const geom::Vec2& p : fixes) mean += p;
    mean = mean / static_cast<double>(fixes.size());
    const geom::Vec2 median = core::geometricMedian(fixes);
    double worst = 0.0;
    for (const geom::Vec2& p : fixes) {
      worst = std::max(worst, geom::distance(p, truth.xy()));
    }
    fusionWorst = worst * 100.0;
    fusionMean = geom::distance(mean, truth.xy()) * 100.0;
    fusionMedian = geom::distance(median, truth.xy()) * 100.0;
    std::printf("9 rounds of 8 s each, 20%% interference outliers:\n");
    std::printf("  worst single round: %6.2f cm\n", fusionWorst);
    std::printf("  mean of rounds:     %6.2f cm\n", fusionMean);
    std::printf("  geometric median:   %6.2f cm\n", fusionMedian);
  }

  // One machine-readable record: the gates encode each extension's
  // qualitative claim with generous margins (seeds are fixed, but CI runs
  // few trials, so the gates test direction, not exact magnitudes).
  bench::BenchRecord record;
  record.name = "ablation2";
  record.seed = seed;
  record.gate("dwell_improves_accuracy", durLong <= durShort * 0.5);
  record.gate("more_rigs_no_worse", rigs4 <= rigs2 + 0.5);
  record.gate("ripple_degrades_geometry",
              jitterWorst >= jitterNone * 2.0);
  record.gate("wire_quantisation_lossless",
              wirePrecision <= fullPrecision * 1.05 + 0.1);
  record.gate("two_rig_hologram_cm_level", holo2 <= spectra2 * 1.5 + 1.0);
  record.gate("single_rig_hologram_ranges", holo1 <= 150.0);
  record.gate("fusion_beats_worst_round",
              std::min(fusionMean, fusionMedian) <= fusionWorst * 0.66);
  record.metric("duration_3s_mean_cm", durShort);
  record.metric("duration_50s_mean_cm", durLong);
  record.metric("rigs2_mean_cm", rigs2);
  record.metric("rigs4_mean_cm", rigs4);
  record.metric("jitter_0deg_mean_cm", jitterNone);
  record.metric("jitter_10deg_mean_cm", jitterWorst);
  record.metric("full_precision_mean_cm", fullPrecision);
  record.metric("wire_precision_mean_cm", wirePrecision);
  record.metric("spectra_2rig_mean_cm", spectra2);
  record.metric("hologram_2rig_mean_cm", holo2);
  record.metric("hologram_1rig_mean_cm", holo1);
  record.metric("fusion_worst_cm", fusionWorst);
  record.metric("fusion_mean_cm", fusionMean);
  record.metric("fusion_median_cm", fusionMedian);
  if (!sidecarPath.empty()) {
    bench::writeBenchSidecar(sidecarPath, record);
  }
  return record.allGatesPass() ? 0 : 1;
}
