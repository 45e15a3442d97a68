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
// The exit code is 0 iff every gate passes.
// The fault RNG seed defaults to a fixed value so runs are reproducible;
// pass --seed=N to sweep independent fault realizations.
#include <cstdio>
#include <fstream>
#include <string>

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
  bench::Main m(argc, argv,
                {.usage = kUsage, .name = "chaos", .seed = &cc.seed,
                 .out = true});
  cc.trialsPerPoint = m.number(0, cc.trialsPerPoint);
  cc.durationS = m.number(1, cc.durationS);
  m.prefix = m.text(2, m.prefix);

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

  const std::string csv = m.path() + ".csv";
  std::ofstream(csv) << eval::chaosCsv(result);
  std::printf("\nwrote %s\n", csv.c_str());
  const eval::ChaosPoint& full = result.points.back();
  const double medianRatio = result.cleanMedianErrorCm > 0.0
                                 ? full.medianErrorCm /
                                       result.cleanMedianErrorCm
                                 : 0.0;
  bench::BenchRecord& record = m.record;
  record.payload = eval::chaosJson(result);
  record.gate("full_intensity_fix_rate_ge_90pct", full.fixRate >= 0.90);
  record.gate("median_within_2x_clean",
              medianRatio > 0.0 && medianRatio <= 2.0);
  record.metric("full_intensity_fix_rate", full.fixRate);
  record.metric("full_intensity_median_cm", full.medianErrorCm);
  record.metric("clean_median_cm", result.cleanMedianErrorCm);
  record.metric("median_ratio", medianRatio);
  std::printf("[acceptance: full intensity fix rate %.0f%% (want >= 90%%), "
              "median %.2fx clean (want <= 2x)]\n", full.fixRate * 100,
              medianRatio);
  return m.finish();
}
