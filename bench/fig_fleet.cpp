// Fleet benchmark (no paper counterpart -- the production benchmark this
// reproduction adds): hundreds of flaky sessions multiplexed over the
// FleetManager's fault domains, with a correlated outage dropping 20% of
// the fleet mid-spin and a tail of persistent flappers.  Paired against an
// all-healthy baseline arm on the very same pre-encoded stream, it measures
// the fault-isolation claim: healthy sessions' p99 fix latency during the
// outage stays within 2x the baseline's, every session eventually holds a
// fix, and the recovery storm is paced by the shard retry budgets.
//
// Usage: fig_fleet [--seed=N] [--json[=PATH]] [--out=DIR]
//                  [sessions] [shards] [outPrefix]
// Writes DIR/<outPrefix>.json and the shard checkpoints under DIR (default
// DIR "bench/out").  --json additionally writes the shared-schema sidecar
// (default PATH "BENCH_fleet.json").
#include <cstdio>

#include "bench_json.hpp"
#include "eval/fleet.hpp"
#include "eval/report.hpp"

using namespace tagspin;

constexpr char kUsage[] =
    "fig_fleet [--seed=N] [--json[=PATH]] [--out=DIR] [sessions] [shards] "
    "[outPrefix]";

int main(int argc, char** argv) {
  eval::FleetEvalConfig fc;
  fc.scenario.seed = 41;
  fc.scenario.fixedChannel = true;
  bench::Main m(argc, argv,
                {.usage = kUsage, .name = "fleet", .seed = &fc.seed,
                 .out = true});
  fc.sessions = m.number(0, fc.sessions);
  fc.shards = m.number(1, fc.shards);
  m.prefix = m.text(2, m.prefix);
  fc.checkpointDir = m.dir();

  eval::printHeading("Fleet: correlated outage vs isolated baseline");
  std::printf("%zu sessions over %zu shards, %.0f%% correlated outage + "
              "%.0f%% flappers, seed 0x%llX\n",
              fc.sessions, fc.shards, fc.chaos.outageFraction * 100,
              fc.chaos.flapFraction * 100,
              static_cast<unsigned long long>(fc.seed));

  const eval::FleetEvalResult r = eval::runFleetEval(fc);

  std::printf("\nspan %.1fs | outage [%.1fs, %.1fs] | throughput %.0f "
              "session-ticks/s (%.1fs wall chaos arm)\n",
              r.spanS, r.outageStartS, r.outageEndS, r.sessionTicksPerSec,
              r.chaos.wallSeconds);
  std::printf("healthy fix latency in outage window: baseline p50 %.2fs "
              "p99 %.2fs | chaos p50 %.2fs p99 %.2fs | isolation %.2fx\n",
              r.baselineP50S, r.baselineP99S, r.chaosP50S, r.chaosP99S,
              r.isolationRatio);
  std::printf("fix rate: baseline %.1f%% | chaos %.1f%% (%zu/%zu sessions)\n",
              r.baseline.fixRate * 100, r.chaos.fixRate * 100,
              r.chaos.sessionsWithFix, r.sessions);
  std::printf("outage cohort %zu | recovered %zu | recovery first +%.1fs "
              "last +%.1fs (spread %.1fs -- retry budgets pace the storm)\n",
              r.chaos.outageCohort, r.chaos.recovered, r.chaos.firstRecoveryS,
              r.chaos.lastRecoveryS, r.chaos.recoverySpreadS);
  const runtime::FleetStats& s = r.chaos.stats;
  std::printf("containment: budget-denied %llu | deferred session-ticks "
              "%llu | ejected %llu -> readmitted %llu (quarantined at end "
              "%zu)\n",
              static_cast<unsigned long long>(s.budgetDenied),
              static_cast<unsigned long long>(s.sessionsDeferred),
              static_cast<unsigned long long>(s.ejections),
              static_cast<unsigned long long>(s.readmissions),
              s.quarantinedNow);
  std::printf("shedding: degraded ticks %llu, critical ticks %llu, fixes "
              "skipped %llu | checkpoint writes %llu (failures %llu)\n",
              static_cast<unsigned long long>(s.shedDegradedTicks),
              static_cast<unsigned long long>(s.shedCriticalTicks),
              static_cast<unsigned long long>(s.fixesSkippedShed),
              static_cast<unsigned long long>(s.checkpointWrites),
              static_cast<unsigned long long>(s.checkpointFailures));

  bench::BenchRecord& record = m.record;
  record.payload = eval::fleetJson(r);
  record.gate("enough_sessions", r.sessions >= 500);
  record.gate("all_fixed", r.chaos.fixRate >= 1.0 - 1e-12);
  record.gate("isolated_within_2x",
              r.isolationRatio > 0.0 && r.isolationRatio <= 2.0);
  record.metric("sessions", double(r.sessions));
  record.metric("isolation_ratio", r.isolationRatio);
  record.metric("chaos_fix_rate", r.chaos.fixRate);
  record.metric("session_ticks_per_sec", r.sessionTicksPerSec);
  std::printf("[acceptance: >=500 concurrent flaky sessions (%zu), eventual "
              "100%% fix rate (%.1f%%), healthy p99 during 20%% outage "
              "<= 2x isolated baseline (%.2fx)]\n",
              r.sessions, r.chaos.fixRate * 100, r.isolationRatio);

  return m.finish();
}
