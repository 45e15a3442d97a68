// Crash-consistency benchmark (no paper counterpart -- the durability
// falsifier this reproduction adds): every syscall boundary of the
// checkpoint, capture, and fleet fan-out write paths gets a simulated
// power cut, the post-crash disk is materialized under a family of
// write-back persistence variants, and real recovery is run against each
// image.  A deliberately broken writer (rename without the data fsync) is
// swept by the same harness and a failing fault schedule is shrunk to a
// minimal replayable artifact -- the proof that the harness can actually
// catch the bugs it claims to rule out.
//
// Usage: fig_crash [--seed=N] [--out=DIR] [--json[=PATH]] [captureReports]
//                  [scheduleRounds] [outPrefix]
// Writes DIR/<outPrefix>.json (default DIR "bench/out").  --json
// additionally writes the shared-schema sidecar (default PATH
// "BENCH_crash.json").
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "eval/crash.hpp"
#include "eval/report.hpp"

using namespace tagspin;

constexpr char kUsage[] =
    "fig_crash [--seed=N] [--out=DIR] [--json[=PATH]] [captureReports] "
    "[scheduleRounds] [outPrefix]";

int main(int argc, char** argv) {
  eval::CrashExploreConfig cfg;
  std::string sidecarPath;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      cfg.seed = std::stoull(arg.substr(7));
    } else if (arg == "--json") {
      sidecarPath = "BENCH_crash.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      sidecarPath = arg.substr(7);
    } else {
      pos.push_back(arg);
    }
  }
  const std::string outDir = eval::consumeOutDir(pos);
  cfg.captureReports = bench::numberArg(pos, 0, cfg.captureReports, kUsage);
  cfg.scheduleRounds = bench::numberArg(pos, 1, cfg.scheduleRounds, kUsage);
  const std::string prefix =
      eval::outputPath(outDir, pos.size() > 2 ? pos[2] : "fig_crash");

  eval::printHeading("Crash consistency: exhaustive power-cut exploration");
  std::printf("seed 0x%llX, %zu capture reports (chunk %zu, fsync every %zu), "
              "%zu checkpoint saves, %zux%zu fleet fan-out, %zu schedule "
              "rounds\n",
              static_cast<unsigned long long>(cfg.seed), cfg.captureReports,
              cfg.chunkReports, cfg.fsyncEveryChunks, cfg.checkpointSaves,
              cfg.fleetShards, cfg.fleetRounds, cfg.scheduleRounds);

  const eval::CrashEvalResult r = eval::runCrashEval(cfg);
  std::printf("\n%s", eval::crashReport(r).c_str());

  const std::string payload = eval::crashJson(r);
  std::ofstream json(prefix + ".json");
  json << payload;
  std::printf("\nwrote %s.json\n", prefix.c_str());

  bench::BenchRecord record;
  record.name = "crash";
  record.seed = cfg.seed;
  record.payload = payload;
  record.gate("crash_points_ge_2000", r.totalPoints >= 2000);
  record.gate("zero_violations", r.totalViolations == 0);
  record.gate("schedule_search_clean", r.scheduleViolations == 0);
  record.gate("broken_writer_caught", r.brokenCaught);
  record.gate("broken_writer_shrunk", r.brokenShrunk());
  record.metric("total_boundaries", double(r.totalBoundaries));
  record.metric("total_crash_points", double(r.totalPoints));
  record.metric("total_violations", double(r.totalViolations));
  record.metric("schedule_runs", double(r.scheduleRuns));
  record.metric("schedule_crashes", double(r.scheduleCrashes));
  record.metric("broken_shrunk_faults", double(r.brokenShrunkFaults));
  if (!sidecarPath.empty()) {
    bench::writeBenchSidecar(sidecarPath, record);
  }

  std::printf("[acceptance: >= 2000 crash-point recoveries (%llu), zero "
              "invariant violations (%llu), planted fsync-ordering bug "
              "caught and shrunk to %llu fault(s)]\n",
              static_cast<unsigned long long>(r.totalPoints),
              static_cast<unsigned long long>(r.totalViolations),
              static_cast<unsigned long long>(r.brokenShrunkFaults));

  return record.allGatesPass() ? 0 : 1;
}
