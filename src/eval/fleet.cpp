#include "eval/fleet.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numbers>
#include <unordered_set>

#include "dsp/stats.hpp"
#include "obs/json.hpp"
#include "sim/rng.hpp"

namespace tagspin::eval {
namespace {

std::string sessionName(size_t index) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "s%04zu", index);
  return buf;
}

/// One arm of the paired experiment.  Everything that could differ between
/// arms (outage scripts, persistence) is parameterized; the stream, world,
/// deployment and seeds are shared so latency deltas are attributable to
/// the faults alone.
FleetArmResult runArm(const FleetEvalConfig& config,
                      std::shared_ptr<const sim::SharedStream> stream,
                      const core::DeploymentFile& deployment,
                      const sim::FleetScenarioConfig& chaos, bool withOutage,
                      double endS) {
  FleetArmResult arm;

  runtime::FleetConfig fc = config.fleet;
  fc.shards = config.shards;
  fc.maxSessions = config.sessions;
  fc.workerThreads = config.workerThreads;
  fc.checkpointDir = withOutage ? config.checkpointDir : "";

  // Roles are fixed by index; resolve them once for the latency filter and
  // the recovery tracker.
  std::vector<sim::FleetRole> roles(config.sessions);
  std::vector<std::string> names(config.sessions);
  std::unordered_map<std::string, size_t> indexOf;
  for (size_t i = 0; i < config.sessions; ++i) {
    roles[i] = sim::fleetRole(chaos, i, config.sessions);
    names[i] = sessionName(i);
    indexOf[names[i]] = i;
  }

  const double windowStartS = chaos.outageAtS;
  const double windowEndS = chaos.outageAtS + chaos.outageDurationS;
  fc.onFix = [&](const runtime::FleetFixEvent& ev) {
    if (!ev.ok) return;
    if (ev.nowS < windowStartS || ev.nowS > windowEndS) return;
    const auto it = indexOf.find(ev.name);
    if (it == indexOf.end() || roles[it->second] != sim::FleetRole::kHealthy) {
      return;
    }
    arm.healthyWindowLatenciesS.push_back(ev.nowS - ev.dueS);
  };

  runtime::FleetManager fleet(fc, deployment);
  for (size_t i = 0; i < config.sessions; ++i) {
    sim::FlakyTransportConfig tc;
    tc.connectDelayS = config.connectDelayS;
    tc.seed = sim::deriveSeed(config.seed, 100 + i);
    if (withOutage) {
      tc.events = sim::fleetOutageScript(chaos, i, config.sessions);
    }
    fleet.registerSession(names[i], [stream, tc] {
      return std::make_unique<sim::FlakyTransport>(stream, tc);
    });
  }

  std::vector<size_t> cohort;
  for (size_t i = 0; i < config.sessions; ++i) {
    if (roles[i] == sim::FleetRole::kOutage) cohort.push_back(i);
  }
  arm.outageCohort = cohort.size();
  std::unordered_set<size_t> pendingRecovery(cohort.begin(), cohort.end());

  const auto wallStart = std::chrono::steady_clock::now();
  for (double t = 0.0; t <= endS + 1e-9; t += config.tickS) {
    fleet.tick(t);
    if (withOutage && t > windowEndS && !pendingRecovery.empty()) {
      for (auto it = pendingRecovery.begin(); it != pendingRecovery.end();) {
        const runtime::Supervisor* sup = fleet.supervisor(names[*it]);
        if (sup != nullptr &&
            sup->session(0).state() == runtime::SessionState::kStreaming) {
          const double sinceEndS = t - windowEndS;
          if (arm.firstRecoveryS < 0.0) arm.firstRecoveryS = sinceEndS;
          arm.lastRecoveryS = sinceEndS;
          ++arm.recovered;
          it = pendingRecovery.erase(it);
        } else {
          ++it;
        }
      }
    }
  }
  fleet.shutdown(endS);
  const auto wallEnd = std::chrono::steady_clock::now();
  arm.wallSeconds =
      std::chrono::duration<double>(wallEnd - wallStart).count();

  if (arm.recovered > 0) {
    arm.recoverySpreadS = arm.lastRecoveryS - arm.firstRecoveryS;
  }

  arm.stats = fleet.stats();
  const auto views = fleet.sessions();
  for (const auto& v : views) {
    if (v.hasFix) ++arm.sessionsWithFix;
  }
  arm.fixRate = views.empty()
                    ? 0.0
                    : static_cast<double>(arm.sessionsWithFix) /
                          static_cast<double>(views.size());
  const uint64_t ticks =
      static_cast<uint64_t>(std::floor(endS / config.tickS)) + 1;
  const uint64_t attempted = ticks * config.sessions;
  arm.supervisorTicks = attempted > arm.stats.sessionsDeferred
                            ? attempted - arm.stats.sessionsDeferred
                            : 0;
  return arm;
}

}  // namespace

runtime::FleetConfig FleetEvalConfig::defaultFleetConfig() {
  runtime::FleetConfig fc;
  fc.supervisor.session.queueCapacity = 2048;
  fc.supervisor.session.backpressure = runtime::BackpressurePolicy::kDropOldest;
  // Bound the per-fix cost at fleet scale: a fleet-serving fix budget is
  // per-session latency, not survey-grade precision.  Decimation keeps the
  // full spin arc at reduced density; a coarser azimuth grid with fewer
  // refine rounds still converges to centimetres; the angle spectrum and
  // spin diagnostics are luxuries a 500-session box can't afford per fix.
  // The rig-health check follows the search grid (one 180-point sweep per
  // rig, which the bearing search then only refines), so the fix
  // confidence is read from that 180-point spectrum.
  fc.supervisor.maxSnapshotsPerTag = 400;
  fc.supervisor.checkpointSpectrumPoints = 0;
  fc.supervisor.locator.search.azimuthGridPoints = 180;
  fc.supervisor.locator.search.refineRounds = 4;
  fc.supervisor.locator.orientationIterations = 1;
  fc.supervisor.locator.robust.diagnostics = false;
  fc.supervisor.locator.robust.consensus = false;
  // Sized to the harness's shard width (~64 sessions each): a 20% outage
  // puts ~13 reconnects on a shard, and 4/s re-admits them over several
  // seconds -- visibly paced, but finished well before the stream ends.
  fc.retryBudget.tokensPerSecond = 4.0;
  fc.retryBudget.burst = 8.0;
  return fc;
}

FleetEvalResult runFleetEval(const FleetEvalConfig& config) {
  FleetEvalResult result;
  result.sessions = config.sessions;
  result.shards = config.shards;

  const double period =
      2.0 * std::numbers::pi / config.scenario.rigOmegaRadPerS;
  const double spanS = config.revolutions * period;
  const double endS = spanS + config.settleS;
  result.spanS = spanS;

  sim::FleetScenarioConfig chaos = config.chaos;
  chaos.spanS = spanS;
  chaos.revolutionPeriodS = period;
  if (chaos.outageAtS <= 0.0 || chaos.outageAtS >= spanS) {
    chaos.outageAtS = 0.45 * spanS;
  }
  if (chaos.outageAtS + chaos.outageDurationS > 0.9 * spanS) {
    chaos.outageDurationS = 0.9 * spanS - chaos.outageAtS;
  }
  result.outageStartS = chaos.outageAtS;
  result.outageEndS = chaos.outageAtS + chaos.outageDurationS;

  sim::World world = sim::makeRigRowWorld(config.scenario, config.rigCount);
  auto rng = sim::makeRng(sim::deriveSeed(config.seed, 1));
  sim::Region region;
  const geom::Vec3 truth = region.sample(rng, false);
  sim::placeReaderAntenna(world, 0, truth);

  // Interrogate + encode exactly once; every transport in both arms shares
  // the stream (the fleet-scale point of sim::SharedStream).
  const auto stream = sim::makeSharedStream(
      world, {spanS, 0, sim::deriveSeed(config.seed, 2)});

  core::DeploymentFile deployment;
  for (const sim::RigTag& rt : world.rigs) {
    core::RigSpec spec;
    spec.center = rt.rig.center;
    spec.kinematics = {rt.rig.radiusM, rt.rig.omegaRadPerS,
                       rt.rig.initialAngle, rt.rig.tagPlaneOffset};
    deployment.rigs[rt.tag.epc] = spec;
  }

  result.baseline = runArm(config, stream, deployment, chaos,
                           /*withOutage=*/false, endS);
  result.chaos = runArm(config, stream, deployment, chaos,
                        /*withOutage=*/true, endS);

  if (!result.baseline.healthyWindowLatenciesS.empty()) {
    result.baselineP50S =
        dsp::percentile(result.baseline.healthyWindowLatenciesS, 50.0);
    result.baselineP99S =
        dsp::percentile(result.baseline.healthyWindowLatenciesS, 99.0);
  }
  if (!result.chaos.healthyWindowLatenciesS.empty()) {
    result.chaosP50S =
        dsp::percentile(result.chaos.healthyWindowLatenciesS, 50.0);
    result.chaosP99S =
        dsp::percentile(result.chaos.healthyWindowLatenciesS, 99.0);
  }
  if (result.baselineP99S > 1e-12) {
    result.isolationRatio = result.chaosP99S / result.baselineP99S;
  }
  if (result.chaos.wallSeconds > 0.0) {
    result.sessionTicksPerSec =
        static_cast<double>(result.chaos.supervisorTicks) /
        result.chaos.wallSeconds;
  }
  return result;
}

std::string fleetJson(const FleetEvalResult& result) {
  const FleetArmResult& chaos = result.chaos;
  obs::JsonWriter w;
  w.beginObject();
  w.field("sessions", result.sessions).field("shards", result.shards);
  w.field("span_s", result.spanS);
  w.field("outage_start_s", result.outageStartS);
  w.field("outage_end_s", result.outageEndS);
  w.field("baseline_p50_s", result.baselineP50S);
  w.field("baseline_p99_s", result.baselineP99S);
  w.field("chaos_p50_s", result.chaosP50S);
  w.field("chaos_p99_s", result.chaosP99S);
  w.field("isolation_ratio", result.isolationRatio);
  w.field("session_ticks_per_sec", result.sessionTicksPerSec);
  w.field("baseline_fix_rate", result.baseline.fixRate);
  w.field("chaos_fix_rate", chaos.fixRate);
  w.field("chaos_window_samples", chaos.healthyWindowLatenciesS.size());
  w.field("baseline_window_samples",
          result.baseline.healthyWindowLatenciesS.size());
  w.field("outage_cohort", chaos.outageCohort);
  w.field("outage_recovered", chaos.recovered);
  w.field("recovery_first_s", chaos.firstRecoveryS);
  w.field("recovery_last_s", chaos.lastRecoveryS);
  w.field("recovery_spread_s", chaos.recoverySpreadS);
  w.field("ejections", chaos.stats.ejections);
  w.field("readmissions", chaos.stats.readmissions);
  w.field("quarantined_at_end", chaos.stats.quarantinedNow);
  w.field("budget_denied", chaos.stats.budgetDenied);
  w.field("sessions_deferred", chaos.stats.sessionsDeferred);
  w.field("fixes_computed", chaos.stats.fixesComputed);
  w.field("fixes_skipped_shed", chaos.stats.fixesSkippedShed);
  w.field("shed_degraded_ticks", chaos.stats.shedDegradedTicks);
  w.field("shed_critical_ticks", chaos.stats.shedCriticalTicks);
  w.field("checkpoint_writes", chaos.stats.checkpointWrites);
  w.field("wall_seconds_chaos", chaos.wallSeconds);
  w.field("wall_seconds_baseline", result.baseline.wallSeconds);
  return w.end().str();
}

}  // namespace tagspin::eval
