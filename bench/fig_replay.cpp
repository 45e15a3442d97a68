// Record/replay benchmark (no paper counterpart -- the production benchmark
// this reproduction adds): a chaotic live session is recorded through the
// crash-safe capture writer, then the capture is replayed to prove it is a
// faithful, deterministic stand-in for the live run -- twice for the
// bit-identical-digest gate, once through a seeded 1%-chunk corruption pass
// for the recovery gate, and fanned across a fleet of sessions for load
// generation.
//
// Usage: fig_replay [--seed=N] [--out=DIR] [--json[=PATH]] [revolutions]
//                   [fleetSessions] [outPrefix]
// Writes DIR/<outPrefix>.json and DIR/<outPrefix>.tspc (the capture;
// default DIR "bench/out").  --json additionally writes the shared-schema
// sidecar (default PATH "BENCH_replay.json").
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "capture/digest.hpp"
#include "eval/replay.hpp"
#include "eval/report.hpp"

using namespace tagspin;

constexpr char kUsage[] =
    "fig_replay [--seed=N] [--out=DIR] [--json[=PATH]] [revolutions] "
    "[fleetSessions] [outPrefix]";

int main(int argc, char** argv) {
  eval::ReplayEvalConfig rc;
  rc.scenario.seed = 57;
  rc.scenario.fixedChannel = true;
  std::string sidecarPath;
  std::vector<std::string> pos;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      rc.seed = std::stoull(arg.substr(7));
    } else if (arg == "--json") {
      sidecarPath = "BENCH_replay.json";
    } else if (arg.rfind("--json=", 0) == 0) {
      sidecarPath = arg.substr(7);
    } else {
      pos.push_back(arg);
    }
  }
  const std::string outDir = eval::consumeOutDir(pos);
  rc.revolutions = bench::numberArg(pos, 0, 10.0, kUsage);
  rc.fleetSessions = bench::numberArg<size_t>(pos, 1, 64, kUsage);
  const std::string prefix =
      eval::outputPath(outDir, pos.size() > 2 ? pos[2] : "fig_replay");
  rc.capturePath = prefix + ".tspc";

  eval::printHeading("Replay: record -> capture -> deterministic replay");
  std::printf("%g revolutions under the standard outage script, seed 0x%llX, "
              "fleet fan-out %zu sessions @ %gx\n",
              rc.revolutions, static_cast<unsigned long long>(rc.seed),
              rc.fleetSessions, rc.fleetSpeed);

  const eval::ReplayEvalResult r = eval::runReplayEval(rc);

  std::printf("\ncapture: %zu reports in %zu chunks, %llu bytes "
              "(%.1f B/report vs 40 B LLRP), intact %s\n",
              r.reportsCaptured, r.chunksCaptured,
              static_cast<unsigned long long>(r.captureBytes),
              r.bytesPerReport, r.captureIntact ? "yes" : "NO");
  std::printf("live fix: %s, %.2f cm, digest %s\n",
              r.liveOk ? r.liveGrade.c_str() : "FAILED", r.liveErrorCm,
              capture::digestHex(r.liveFixDigest).c_str());
  std::printf("replay fix: %s, %.2f cm, digests %s / %s -> deterministic "
              "%s\n",
              r.replay1.ok ? r.replay1.grade.c_str() : "FAILED",
              r.replay1.errorCm,
              capture::digestHex(r.replay1.fixDigest).c_str(),
              capture::digestHex(r.replay2.fixDigest).c_str(),
              r.replayDeterministic ? "yes" : "NO");
  std::printf("live-vs-replay parity: %.4f cm (bit-identical %s)\n",
              r.fixParityCm, r.fixParityExact ? "yes" : "no");
  std::printf("throughput: %.0f reports/s through decode+re-encode+drain "
              "(%.3fs wall)\n",
              r.replayThroughputRps, r.replayWallS);
  std::printf("corruption: %zu/%zu chunks hit -> %zu skipped, recovery "
              "%.2f%%, recovered replay %s (%.2f cm)\n",
              r.chunksCorrupted, r.chunksCaptured,
              r.corruptStats.chunksSkipped, r.recoveryRate * 100,
              r.corruptReplay.ok ? "ok" : "FAILED", r.corruptReplay.errorCm);
  std::printf("fleet load-gen: %zu sessions / %zu shards, fix rate %.1f%%, "
              "%llu reports ingested, %.0f reports/s (%.1fs wall)\n",
              r.fleetSessions, r.fleetShards, r.fleetFixRate * 100,
              static_cast<unsigned long long>(r.fleetReportsIngested),
              r.fleetThroughputRps, r.fleetWallS);

  const std::string payload = eval::replayJson(r);
  std::ofstream json(prefix + ".json");
  json << payload;
  std::printf("\nwrote %s.json and %s.tspc\n", prefix.c_str(),
              prefix.c_str());

  bench::BenchRecord record;
  record.name = "replay";
  record.seed = rc.seed;
  record.payload = payload;
  record.gate("capture_intact", r.captureIntact);
  record.gate("replay_deterministic", r.replayDeterministic);
  record.gate("fix_parity_le_0_5cm",
              r.liveOk && r.replay1.ok && r.fixParityCm <= 0.5);
  record.gate("recovery_ge_99pct", r.recoveryRate >= 0.99);
  record.gate("corrupt_replay_ok", r.corruptReplay.ok);
  record.gate("fleet_all_fixed",
              r.fleetSessions > 0 && r.fleetFixRate >= 1.0 - 1e-12);
  record.metric("reports_captured", double(r.reportsCaptured));
  record.metric("bytes_per_report", r.bytesPerReport);
  record.metric("fix_parity_cm", r.fixParityCm);
  record.metric("recovery_rate", r.recoveryRate);
  record.metric("replay_throughput_rps", r.replayThroughputRps);
  record.metric("fleet_throughput_rps", r.fleetThroughputRps);
  if (!sidecarPath.empty()) {
    bench::writeBenchSidecar(sidecarPath, record);
  }

  std::printf("[acceptance: replay-twice digests bit-identical (%s), "
              "1%%-corrupted capture recovery >= 99%% (%.2f%%), replay fix "
              "within 0.5 cm of live (%.4f cm)]\n",
              r.replayDeterministic ? "yes" : "NO", r.recoveryRate * 100,
              r.fixParityCm);

  return record.allGatesPass() ? 0 : 1;
}
