// Robustness breakdown curves (no paper counterpart -- the production
// benchmark this reproduction adds): fix success rate and error quantiles
// versus fault intensity, with the full-intensity cocktail at 5% frame bit
// flips + 2% truncation, 10% duplicates, 5% reorders, clock drift/glitches,
// EPC bit errors, and one rig silent for 30% of the spin.
//
// Usage: fig_chaos [--seed=N] [--out=DIR] [--json[=PATH]] [trialsPerPoint]
//                  [durationS] [outPrefix]
// Writes DIR/<outPrefix>.csv and DIR/<outPrefix>.json (default prefix
// "fig_chaos", default DIR "bench/out").  --json additionally writes the
// machine-readable trajectory sidecar (default PATH "BENCH_chaos.json").
// The fault RNG seed defaults to a fixed value so runs are reproducible;
// pass --seed=N to sweep independent fault realizations.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "eval/chaos.hpp"
#include "eval/report.hpp"

using namespace tagspin;

constexpr char kUsage[] =
    "fig_chaos [--seed=N] [--out=DIR] [--json[=PATH]] [trialsPerPoint] "
    "[durationS] [outPrefix]";

int main(int argc, char** argv) {
  eval::ChaosConfig cc;
  cc.scenario.seed = 21;
  cc.scenario.fixedChannel = true;
  std::string sidecarPath;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      cc.seed = std::stoull(arg.substr(7));
    } else if (arg == "--json") {
      sidecarPath = "BENCH_chaos.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      sidecarPath = arg.substr(7);
    } else {
      pos.push_back(arg);
    }
  }
  const std::string outDir = eval::consumeOutDir(pos);
  cc.trialsPerPoint = bench::numberArg(pos, 0, 40, kUsage);
  cc.durationS = bench::numberArg(pos, 1, 15.0, kUsage);
  const std::string prefix =
      eval::outputPath(outDir, pos.size() > 2 ? pos[2] : "fig_chaos");

  eval::printHeading("Chaos: ingestion-fault breakdown curve");
  std::printf("fault seed: 0x%llX%s\n",
              static_cast<unsigned long long>(cc.seed),
              cc.seed == 0xC4A05 ? " (default)" : "");
  std::printf("full-intensity faults: bitflip %.0f%%, truncate %.0f%%, "
              "dup %.0f%%, reorder %.0f%%, drift %.0f ppm, "
              "rig %d silent for %.0f%% of the spin\n",
              cc.faultsAtFull.frameBitFlipProb * 100,
              cc.faultsAtFull.frameTruncateProb * 100,
              cc.faultsAtFull.duplicateProb * 100,
              cc.faultsAtFull.reorderProb * 100, cc.faultsAtFull.clockDriftPpm,
              cc.dropoutRig, cc.dropoutFraction * 100);

  const eval::ChaosResult result = eval::runChaosSweep(cc);

  std::printf("\n%9s %7s %8s %10s %10s %10s %9s %9s\n", "intensity", "fixes",
              "fixRate", "median_cm", "p90_cm", "vs_clean", "fr_skip",
              "by_resync");
  for (const eval::ChaosPoint& p : result.points) {
    const double ratio = result.cleanMedianErrorCm > 0.0
                             ? p.medianErrorCm / result.cleanMedianErrorCm
                             : 0.0;
    std::printf("%9.2f %3d/%3d %7.0f%% %10.2f %10.2f %9.2fx %9zu %9zu\n",
                p.intensity, p.fixes, p.trials, p.fixRate * 100,
                p.medianErrorCm, p.p90ErrorCm, ratio, p.decode.framesSkipped,
                p.decode.bytesResynced);
    for (const auto& [cause, count] : p.failures) {
      std::printf("          failure %s x%d\n", cause.c_str(), count);
    }
  }

  std::ofstream csv(prefix + ".csv");
  csv << eval::chaosCsv(result);
  std::ofstream json(prefix + ".json");
  json << eval::chaosJson(result);
  std::printf("\nwrote %s.csv and %s.json\n", prefix.c_str(), prefix.c_str());
  const eval::ChaosPoint& full = result.points.back();
  const double medianRatio = result.cleanMedianErrorCm > 0.0
                                 ? full.medianErrorCm /
                                       result.cleanMedianErrorCm
                                 : 0.0;
  bench::BenchRecord record;
  record.name = "chaos";
  record.seed = cc.seed;
  record.payload = eval::chaosJson(result);
  record.gate("full_intensity_fix_rate_ge_90pct", full.fixRate >= 0.90);
  record.gate("median_within_2x_clean",
              medianRatio > 0.0 && medianRatio <= 2.0);
  record.metric("full_intensity_fix_rate", full.fixRate);
  record.metric("full_intensity_median_cm", full.medianErrorCm);
  record.metric("clean_median_cm", result.cleanMedianErrorCm);
  record.metric("median_ratio", medianRatio);
  if (!sidecarPath.empty()) {
    bench::writeBenchSidecar(sidecarPath, record);
  }

  std::printf("[acceptance: full intensity fix rate %.0f%% (want >= 90%%), "
              "median %.2fx clean (want <= 2x)]\n", full.fixRate * 100,
              medianRatio);
  return 0;
}
