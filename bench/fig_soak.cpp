// Soak benchmark for the supervised reader-session runtime (no paper
// counterpart -- the production benchmark this reproduction adds): a long
// spin capture is streamed through a flaky transport running the standard
// outage script (3 disconnects + 1 stall + 1 flood per 10 revolutions),
// the process is kill -9'd mid-spin and restarted from its checkpoint, and
// the final fix is compared against an uninterrupted run of the very same
// stream.
//
// Usage: fig_soak [--seed=N] [--out=DIR] [--json[=PATH]] [revolutions]
//                 [rigs] [outPrefix]
// Writes DIR/<outPrefix>.csv (per-outage recovery), DIR/<outPrefix>.json,
// and the run's exported telemetry DIR/<outPrefix>.metrics.{json,prom}
// (default DIR "bench/out").  --json additionally writes the
// machine-readable trajectory sidecar (default PATH "BENCH_soak.json").
#include <cstdio>
#include <fstream>
#include <string>

#include "bench_json.hpp"
#include "eval/report.hpp"
#include "eval/soak.hpp"

using namespace tagspin;

constexpr char kUsage[] =
    "fig_soak [--seed=N] [--out=DIR] [--json[=PATH]] [revolutions] "
    "[rigs] [outPrefix]";

int main(int argc, char** argv) {
  eval::SoakConfig sc;
  sc.scenario.seed = 33;
  sc.scenario.fixedChannel = true;
  bench::Main m(argc, argv,
                {.usage = kUsage, .name = "soak", .seed = &sc.seed,
                 .out = true});
  sc.revolutions = m.number(0, sc.revolutions);
  sc.rigCount = m.number(1, sc.rigCount);
  m.prefix = m.text(2, m.prefix);
  const std::string prefix = m.path();
  sc.checkpointPath = prefix + ".ckpt";

  eval::printHeading("Soak: outage script + kill -9 mid-spin");
  std::printf("%g revolutions, %d rigs, seed 0x%llX, kill at %.0f%%\n",
              sc.revolutions, sc.rigCount,
              static_cast<unsigned long long>(sc.seed),
              sc.killAtFraction * 100);

  const eval::SoakResult r = eval::runSoak(sc);

  std::printf("\nclean reports %zu | seen %llu (loss %.1f%%) | ingested %llu "
              "| dup-suppressed %llu\n",
              r.cleanReports, static_cast<unsigned long long>(r.reportsSeen),
              r.reportLossFraction * 100,
              static_cast<unsigned long long>(r.reportsIngested),
              static_cast<unsigned long long>(r.duplicatesSuppressed));
  std::printf("outages tracked %zu | all recovered %s | recover mean %.2fs "
              "max %.2fs\n",
              r.recoveries.size(), r.allRecovered ? "yes" : "NO",
              r.meanTimeToRecoverS, r.maxTimeToRecoverS);
  std::printf("watchdogs: no-report %llu, stuck-clock %llu | session "
              "disconnects %llu | supervisor restarts %llu\n",
              static_cast<unsigned long long>(r.watchdogNoReport),
              static_cast<unsigned long long>(r.watchdogStuckClock),
              static_cast<unsigned long long>(r.sessionDisconnects),
              static_cast<unsigned long long>(r.sessionsRestarted));
  std::printf("queue: refused %llu, dropped-oldest %llu, sampled-out %llu, "
              "max depth %llu\n",
              static_cast<unsigned long long>(r.queue.refusedFull),
              static_cast<unsigned long long>(r.queue.droppedOldest),
              static_cast<unsigned long long>(r.queue.droppedSampled),
              static_cast<unsigned long long>(r.queue.maxDepth));
  if (r.killed) {
    std::printf("kill -9 at %.1fs: snapshots %zu -> restored %zu "
                "(checkpoint age %.2fs), restore %s, revolutions "
                "re-acquired %.3f\n",
                r.killAtS, r.snapshotsAtKill, r.snapshotsRestored,
                r.checkpointAgeAtKillS, r.restoreOk ? "ok" : "FAILED",
                r.revolutionsReacquired);
  }
  std::printf("checkpoints saved: %llu\n",
              static_cast<unsigned long long>(r.checkpointsSaved));
  if (r.soakOk) {
    std::printf("2D error: baseline %.2f cm, soak %.2f cm (%.2fx), grade "
                "%s\n", r.baselineErrorCm, r.soakErrorCm, r.errorRatio,
                r.soakGrade.c_str());
  } else {
    std::printf("soak fix FAILED: %s (baseline %.2f cm)\n",
                r.soakFailure.c_str(), r.baselineErrorCm);
  }

  std::ofstream(prefix + ".csv") << eval::soakCsv(r);
  tagspin::obs::writeTextFile(prefix + ".metrics.json", r.telemetryJson);
  tagspin::obs::writeTextFile(prefix + ".metrics.prom", r.telemetryPrometheus);
  std::printf("\nwrote %s.csv and %s.metrics.{json,prom}\n", prefix.c_str(),
              prefix.c_str());
  bench::BenchRecord& record = m.record;
  record.payload = eval::soakJson(r);
  record.gate("all_recovered", r.allRecovered);
  record.gate("soak_ok", r.soakOk);
  record.gate("error_within_1_25x", r.soakOk && r.errorRatio <= 1.25);
  record.gate("restore_ok",
              !r.killed || (r.restoreOk && r.revolutionsReacquired < 1.0));
  record.metric("soak_error_cm", r.soakErrorCm);
  record.metric("error_ratio", r.errorRatio);
  record.metric("max_time_to_recover_s", r.maxTimeToRecoverS);
  record.metric("revolutions_reacquired", r.revolutionsReacquired);
  std::printf("[acceptance: every outage recovered (%s), soak error within "
              "1.25x baseline (%.2fx), kill -9 resumed from checkpoint "
              "(%s) with %.3f revolutions re-acquired (want ~0)]\n",
              r.allRecovered ? "yes" : "NO", r.errorRatio,
              r.restoreOk ? "yes" : "NO", r.revolutionsReacquired);

  return m.finish();
}
