// Adversarial-environment sweep (no paper counterpart -- the robustness
// benchmark for the consensus estimator): ghost-reader report mixing makes
// a subset of the rigs' angle spectra bimodal with the wrong lobe dominant,
// and the paired error CDFs compare the plain least-squares estimator with
// the full robust stack (spin self-diagnosis -> multi-candidate consensus
// voting -> IRLS -> bootstrap confidence ellipse) on identical streams.
//
// Usage: fig_adversarial [--seed=N] [--json[=PATH]] [--out=DIR]
//                        [trialsPerPoint] [durationS] [outPrefix]
// Writes DIR/<outPrefix>.csv, .json and <outPrefix>_cdf.csv (default
// prefix "fig_adversarial", default DIR "bench/out"); --json additionally
// emits the BENCH_adversarial.json sidecar (shared schema:
// bench/bench_json.hpp) and bases the exit code on its gates.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "eval/adversarial.hpp"
#include "eval/report.hpp"

using namespace tagspin;

constexpr char kUsage[] =
    "fig_adversarial [--seed=N] [--json[=PATH]] [--out=DIR] "
    "[trialsPerPoint] [durationS] [outPrefix]";

int main(int argc, char** argv) {
  eval::AdversarialConfig ac;
  ac.scenario.seed = 33;
  ac.scenario.fixedChannel = true;
  ac.baseline = eval::AdversarialConfig::defaultBaseline();
  ac.robust = eval::AdversarialConfig::defaultRobust();
  std::string sidecarPath;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      ac.seed = std::stoull(arg.substr(7));
    } else if (arg == "--json") {
      sidecarPath = "BENCH_adversarial.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      sidecarPath = arg.substr(7);
    } else {
      pos.push_back(arg);
    }
  }
  const std::string outDir = eval::consumeOutDir(pos);
  ac.trialsPerPoint = bench::numberArg(pos, 0, 30, kUsage);
  ac.durationS = bench::numberArg(pos, 1, 15.0, kUsage);
  const std::string prefix =
      eval::outputPath(outDir, pos.size() > 2 ? pos[2] : "fig_adversarial");

  eval::printHeading("Adversarial environments: consensus vs least squares");
  std::printf("seed: 0x%llX%s; %d rigs, %d trials/case, %.0f s spins\n",
              static_cast<unsigned long long>(ac.seed),
              ac.seed == 0xAD5E ? " (default)" : "", ac.rigCount,
              ac.trialsPerPoint, ac.durationS);

  const eval::AdversarialResult result = eval::runAdversarialSweep(ac);

  std::printf("\n%4s %6s %5s | %9s %9s | %9s %9s | %7s %8s %6s | %8s %9s\n",
              "bad", "ghost", "scat", "ls_med", "ls_p90", "cons_med",
              "cons_p90", "inlier", "suspect", "quar", "ell_cov",
              "ell_cm2");
  for (const eval::AdversarialPoint& p : result.points) {
    std::printf(
        "%4d %6.2f %5d | %8.2fcm %8.2fcm | %8.2fcm %8.2fcm | "
        "%6.0f%% %8llu %6llu | %3d/%3d %9.1f\n",
        p.which.corruptedRigs, p.which.ghostFraction, p.which.scattererCount,
        p.baselineMedianCm, p.baselineP90Cm, p.robustMedianCm, p.robustP90Cm,
        p.meanInlierFraction * 100,
        static_cast<unsigned long long>(p.suspectSpins),
        static_cast<unsigned long long>(p.quarantinedSpins),
        p.ellipseCovered, p.ellipseTrials, p.meanEllipseAreaCm2);
  }

  std::ofstream csv(prefix + ".csv");
  csv << eval::adversarialCsv(result);
  std::ofstream json(prefix + ".json");
  json << eval::adversarialJson(result);
  std::ofstream cdf(prefix + "_cdf.csv");
  cdf << eval::adversarialCdfCsv(result);
  std::printf("\nwrote %s.csv, %s.json and %s_cdf.csv\n", prefix.c_str(),
              prefix.c_str(), prefix.c_str());

  // Acceptance: with 1 of 4 spins corrupted the consensus median must be at
  // most half the least-squares median; on the clean case the robust stack
  // must cost nothing (median within 5% of the baseline).
  const eval::AdversarialPoint* clean = nullptr;
  const eval::AdversarialPoint* one = nullptr;
  for (const eval::AdversarialPoint& p : result.points) {
    if (p.which.corruptedRigs == 0 && !clean) clean = &p;
    if (p.which.corruptedRigs == 1 && p.which.scattererCount == 3 &&
        p.which.ghostFraction == 0.6 && !one) {
      one = &p;
    }
  }
  const double cleanRatio =
      clean && clean->baselineMedianCm > 0.0
          ? clean->robustMedianCm / clean->baselineMedianCm
          : 1.0;
  const double corruptRatio =
      one && one->baselineMedianCm > 0.0
          ? one->robustMedianCm / one->baselineMedianCm
          : 1.0;
  if (clean && one) {
    std::printf("[acceptance: 1-corrupted consensus/LS median %.2fx "
                "(want <= 0.5x), clean %.3fx (want within 5%%), "
                "ellipse coverage %d/%d]\n",
                corruptRatio, cleanRatio, one->ellipseCovered,
                one->ellipseTrials);
  }

  bench::BenchRecord record;
  record.name = "adversarial";
  record.seed = ac.seed;
  record.payload = eval::adversarialJson(result);
  record.gate("one_corrupted_within_0_5x", one && corruptRatio <= 0.5);
  record.gate("clean_overhead_within_5pct", clean && cleanRatio <= 1.05);
  record.metric("corrupt_ratio", corruptRatio);
  record.metric("clean_ratio", cleanRatio);
  if (one) {
    record.metric("robust_median_cm", one->robustMedianCm);
    record.metric("baseline_median_cm", one->baselineMedianCm);
    record.metric("ellipse_coverage",
                  one->ellipseTrials > 0
                      ? double(one->ellipseCovered) / one->ellipseTrials
                      : 0.0);
    record.metric("mean_ellipse_area_cm2", one->meanEllipseAreaCm2);
  }
  if (!sidecarPath.empty()) {
    bench::writeBenchSidecar(sidecarPath, record);
    return record.allGatesPass() ? 0 : 1;
  }
  return 0;
}
