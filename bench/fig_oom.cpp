// Resource-exhaustion benchmark (no paper counterpart -- the allocation
// twin of fig_crash): every reservation boundary of five workloads --
// fleet steady state, session connect storm, capture-replay fan-out,
// tracker ghost burst, shard checkpoint save -- gets an injected
// allocation failure (deny / burst / cliff / poison, cycled), and after
// every injected run the no-crash / no-leak / isolation / budget /
// full-recovery invariants are checked.  A zero-injection parity gate
// proves the accounting seam itself costs nothing (bit-identical fix
// digests), a sustained-pressure arm proves the fleet keeps its fix rate
// while trimming inside an ~80%-utilization shard budget, and a planted
// release-without-reserve cache is swept, caught, and its failing
// schedule shrunk to a minimal replayable artifact.
//
// Usage: fig_oom [--seed=N] [--out=DIR] [--json[=PATH]] [pointsPerWorkload]
//                [scheduleRounds] [outPrefix]
// Writes DIR/<outPrefix>.json (default DIR "bench/out").  --json
// additionally writes the shared-schema sidecar (default PATH
// "BENCH_oom.json").
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "eval/oom.hpp"
#include "eval/report.hpp"

using namespace tagspin;

int main(int argc, char** argv) {
  eval::OomExploreConfig cfg;
  std::string sidecarPath;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      cfg.seed = std::stoull(arg.substr(7));
    } else if (arg == "--json") {
      sidecarPath = "BENCH_oom.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      sidecarPath = arg.substr(7);
    } else {
      pos.push_back(arg);
    }
  }
  const std::string outDir = eval::consumeOutDir(pos);
  if (pos.size() > 0) {
    cfg.pointsPerWorkload = size_t(std::atoi(pos[0].c_str()));
  }
  if (pos.size() > 1) cfg.scheduleRounds = size_t(std::atoi(pos[1].c_str()));
  const std::string prefix =
      eval::outputPath(outDir, pos.size() > 2 ? pos[2] : "fig_oom");

  eval::printHeading(
      "Resource exhaustion: exhaustive allocation-failure exploration");
  std::printf("seed 0x%llX, %zu sessions x %zu shards, %zu points per "
              "workload, %zu schedule rounds, pressure budget factor %.2f\n",
              static_cast<unsigned long long>(cfg.seed), cfg.fleetSessions,
              cfg.fleetShards, cfg.pointsPerWorkload, cfg.scheduleRounds,
              cfg.pressureBudgetFactor);

  const eval::OomEvalResult r = eval::runOomEval(cfg);
  std::printf("\n%s", eval::oomReport(r).c_str());

  const std::string payload = eval::oomJson(r);
  std::ofstream json(prefix + ".json");
  json << payload;
  std::printf("\nwrote %s.json\n", prefix.c_str());

  bench::BenchRecord record;
  record.name = "oom";
  record.seed = cfg.seed;
  record.payload = payload;
  record.gate("oom_points_ge_500", r.totalPoints >= 500);
  record.gate("zero_violations", r.totalViolations == 0);
  record.gate("schedule_search_clean", r.scheduleViolations == 0);
  record.gate("parity_bit_identical", r.parityBitIdentical);
  record.gate("pressure_fix_rate_ge_99",
              r.pressureFixRate >= cfg.pressureMinFixRate);
  record.gate("pressure_recovered", r.pressureRecovered);
  record.gate("broken_cache_caught", r.brokenCaught);
  record.gate("broken_cache_shrunk", r.brokenShrunk());
  record.metric("total_boundaries", double(r.totalBoundaries));
  record.metric("total_points", double(r.totalPoints));
  record.metric("total_violations", double(r.totalViolations));
  record.metric("schedule_runs", double(r.scheduleRuns));
  record.metric("pressure_fix_rate", r.pressureFixRate);
  record.metric("pressure_utilization", r.pressureUtilization);
  record.metric("pressure_trims", double(r.pressureTrims));
  record.metric("broken_shrunk_faults", double(r.brokenShrunkFaults));
  if (!sidecarPath.empty()) {
    bench::writeBenchSidecar(sidecarPath, record);
  }

  std::printf("[acceptance: >= 500 allocation-failure points (%llu), zero "
              "invariant violations (%llu), fix rate %.4f under sustained "
              "pressure, parity %s, planted accounting bug caught and "
              "shrunk to %llu fault(s)]\n",
              static_cast<unsigned long long>(r.totalPoints),
              static_cast<unsigned long long>(r.totalViolations),
              r.pressureFixRate,
              r.parityBitIdentical ? "bit-identical" : "DIVERGED",
              static_cast<unsigned long long>(r.brokenShrunkFaults));

  return record.allGatesPass() ? 0 : 1;
}
