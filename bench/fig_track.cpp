// Moving-reader tracking benchmark (no paper counterpart -- the paper's
// pipeline stops at one-shot fixes; this bench measures what sequential
// Bayesian tracking adds on top of them): a reader patrols the
// surveillance region on a scripted waypoint loop while every fix window
// is interrogated quasi-statically, and the fix stream is fed through the
// src/track/ square-root UKF tracker.
//
// Acceptance gates:
//  * tracked RMSE <= 0.7x the independent-fix RMSE on the clean arm;
//  * the track coasts through the full standard outage script without
//    being dropped or re-initialized;
//  * replaying the identical capture corpus twice yields bit-identical
//    trajectories (FNV-1a digest).
//
// Usage: fig_track [--seed=N] [--out=DIR] [--json[=PATH]] [windows]
//                  [rigs] [outPrefix]
// Writes DIR/<outPrefix>_{clean,dropout,outage}.csv (per-window
// trajectories) and DIR/<outPrefix>.json; --json additionally writes the
// BENCH_track.json sidecar.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "eval/report.hpp"
#include "eval/track.hpp"

using namespace tagspin;

constexpr char kUsage[] =
    "fig_track [--seed=N] [--out=DIR] [--json[=PATH]] [windows] [rigs] "
    "[outPrefix]";

int main(int argc, char** argv) {
  eval::TrackEvalConfig tc;
  std::string sidecarPath;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      tc.seed = std::stoull(arg.substr(7));
    } else if (arg == "--json") {
      sidecarPath = "BENCH_track.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      sidecarPath = arg.substr(7);
    } else {
      pos.push_back(arg);
    }
  }
  const std::string outDir = eval::consumeOutDir(pos);
  tc.windows = bench::numberArg(pos, 0, tc.windows, kUsage);
  tc.rigCount = bench::numberArg(pos, 1, tc.rigCount, kUsage);
  const std::string prefix =
      eval::outputPath(outDir, pos.size() > 2 ? pos[2] : "fig_track");

  eval::printHeading("Tracking: moving reader vs one-shot fixes");
  std::printf("%d windows x %.1fs, %d rigs, %.2f m/s patrol, seed 0x%llX\n",
              tc.windows, tc.windowS, tc.rigCount, tc.speedMps,
              static_cast<unsigned long long>(tc.seed));

  const eval::TrackEvalResult r = eval::runTrackEval(tc);

  std::printf("\nclean  : fix RMSE %.2f cm | track RMSE %.2f cm (%.2fx) | "
              "%llu accepted, %llu gated, %llu switches\n",
              r.clean.fixRmseCm, r.clean.trackRmseCm, r.rmseRatio,
              static_cast<unsigned long long>(r.clean.stats.accepted),
              static_cast<unsigned long long>(r.clean.stats.gateRejects),
              static_cast<unsigned long long>(r.clean.stats.modelSwitches));
  std::printf("dropout: %d gaps + %d ghosts | fix RMSE %.2f cm | track RMSE "
              "%.2f cm | coast max %.2f cm | %llu gate-rejects\n",
              r.dropout.gapWindows, r.dropout.ghostWindows,
              r.dropout.fixRmseCm, r.dropout.trackRmseCm,
              r.dropout.coastMaxErrorCm,
              static_cast<unsigned long long>(r.dropout.stats.gateRejects));
  std::printf("outage : %d lost windows | track RMSE %.2f cm | coast max "
              "%.2f cm | coast fraction %.2f | survived %s (final %s)\n",
              r.outage.gapWindows, r.outage.trackRmseCm,
              r.outage.coastMaxErrorCm, r.outage.stats.coastFraction(),
              r.outageSurvived ? "yes" : "NO", r.outage.finalState.c_str());
  std::printf("replay : digest %016llx vs %016llx -> %s\n",
              static_cast<unsigned long long>(r.replayDigest1),
              static_cast<unsigned long long>(r.replayDigest2),
              r.replayDeterministic ? "bit-identical" : "MISMATCH");

  {
    std::ofstream csv(prefix + "_clean.csv");
    csv << eval::trackArmCsv(r.clean);
  }
  {
    std::ofstream csv(prefix + "_dropout.csv");
    csv << eval::trackArmCsv(r.dropout);
  }
  {
    std::ofstream csv(prefix + "_outage.csv");
    csv << eval::trackArmCsv(r.outage);
  }
  std::ofstream json(prefix + ".json");
  json << eval::trackJson(r);
  std::printf("\nwrote %s_{clean,dropout,outage}.csv and %s.json\n",
              prefix.c_str(), prefix.c_str());

  bench::BenchRecord record;
  record.name = "track";
  record.seed = tc.seed;
  record.payload = eval::trackJson(r);
  record.gate("tracked_rmse_within_0_7x",
              r.clean.fixRmseCm > 0.0 && r.rmseRatio <= 0.7);
  record.gate("outage_survived", r.outageSurvived);
  record.gate("replay_deterministic", r.replayDeterministic);
  record.metric("fix_rmse_cm", r.clean.fixRmseCm);
  record.metric("track_rmse_cm", r.clean.trackRmseCm);
  record.metric("rmse_ratio", r.rmseRatio);
  record.metric("dropout_track_rmse_cm", r.dropout.trackRmseCm);
  record.metric("dropout_coast_max_cm", r.dropout.coastMaxErrorCm);
  record.metric("outage_coast_max_cm", r.outage.coastMaxErrorCm);
  record.metric("outage_coast_fraction", r.outage.stats.coastFraction());
  record.metric("gate_rejects", double(r.dropout.stats.gateRejects));
  record.metric("model_switches", double(r.clean.stats.modelSwitches));
  if (!sidecarPath.empty()) {
    bench::writeBenchSidecar(sidecarPath, record);
  }

  std::printf("[acceptance: tracked RMSE within 0.7x independent fixes "
              "(%.2fx), outage coasted without re-init (%s), replay "
              "bit-identical (%s)]\n",
              r.rmseRatio, r.outageSurvived ? "yes" : "NO",
              r.replayDeterministic ? "yes" : "NO");

  return record.allGatesPass() ? 0 : 1;
}
