#include "eval/track.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "capture/digest.hpp"
#include "capture/replay.hpp"
#include "core/tagspin.hpp"
#include "eval/metrics.hpp"
#include "obs/json.hpp"
#include "sim/flaky_transport.hpp"
#include "sim/interrogator.hpp"
#include "sim/rng.hpp"
#include "track/fix_adapter.hpp"
#include "track/motion.hpp"

namespace tagspin::eval {

namespace {

/// What a window delivers to the tracker in a given arm.
enum class WindowAction { kFix, kGap, kGhost };

/// One window of the shared capture corpus: the reader's true (midpoint)
/// position and the interrogation streams from the truth and -- when the
/// schedule calls for it -- from the decoy position.
struct WindowCapture {
  double midS = 0.0;
  geom::Vec2 truth;
  geom::Vec2 ghostPos;
  rfid::ReportStream clean;
  rfid::ReportStream ghost;  // empty unless a schedule marks it kGhost
};

core::TagspinSystem makeServer(const sim::World& world,
                               const TrackEvalConfig& config) {
  core::TagspinSystem server(config.locator);
  for (const sim::RigTag& rt : world.rigs) {
    core::RigSpec spec;
    spec.center = rt.rig.center;
    spec.kinematics = {rt.rig.radiusM, rt.rig.omegaRadPerS,
                       rt.rig.initialAngle, rt.rig.tagPlaneOffset};
    server.registerRig(rt.tag.epc, spec);
  }
  server.setHealthThresholds(config.health);
  return server;
}

void foldEstimate(capture::Fnv1a& digest, const track::TrackEstimate& est) {
  digest.f64(est.timeS);
  digest.f64(est.position.x);
  digest.f64(est.position.y);
  digest.f64(est.velocity.x);
  digest.f64(est.velocity.y);
  digest.u64(static_cast<uint64_t>(est.state));
  digest.u64(static_cast<uint64_t>(est.model));
  digest.u64(est.usedMeasurement ? 1 : 0);
}

double rmseCm(const std::vector<double>& errorsCm) {
  if (errorsCm.empty()) return 0.0;
  double sq = 0.0;
  for (double e : errorsCm) sq += e * e;
  return std::sqrt(sq / static_cast<double>(errorsCm.size()));
}

/// Run one arm: the schedule decides what each corpus window delivers.
TrackArmResult runArm(const std::string& name, const TrackEvalConfig& config,
                      const core::TagspinSystem& server,
                      const std::vector<WindowCapture>& corpus,
                      const std::vector<WindowAction>& schedule) {
  TrackArmResult arm;
  arm.name = name;
  arm.windows = static_cast<int>(corpus.size());
  track::Tracker tracker(config.tracker);
  capture::Fnv1a digest;
  std::vector<double> fixErrorsCm;
  std::vector<double> trackErrorsCm;

  for (size_t i = 0; i < corpus.size(); ++i) {
    const WindowCapture& w = corpus[i];
    const WindowAction action = schedule[i];
    TrackWindowRow row;
    row.timeS = w.midS;
    row.truthX = w.truth.x;
    row.truthY = w.truth.y;

    if (action == WindowAction::kGap) {
      ++arm.gapWindows;
      tracker.onGap(w.midS);
    } else {
      const rfid::ReportStream& stream =
          action == WindowAction::kGhost ? w.ghost : w.clean;
      const core::Result<core::ResilientFix2D> fix =
          server.tryLocate2D(stream);
      if (!fix) {
        ++arm.gapWindows;
        tracker.onGap(w.midS);
      } else {
        ++arm.fixesProduced;
        row.hasFix = true;
        row.ghost = action == WindowAction::kGhost;
        if (row.ghost) ++arm.ghostWindows;
        row.fixX = fix->fix.position.x;
        row.fixY = fix->fix.position.y;
        tracker.onMeasurement(track::toMeasurement(*fix, w.midS));
        if (!row.ghost && static_cast<int>(i) >= config.warmupWindows) {
          fixErrorsCm.push_back(
              errorCm(fix->fix.position, w.truth).combined);
        }
      }
    }

    if (tracker.hasEstimate()) {
      const track::TrackEstimate& est = tracker.lastEstimate();
      foldEstimate(digest, est);
      row.hasTrack = true;
      row.trackX = est.position.x;
      row.trackY = est.position.y;
      row.state = track::trackStateName(est.state);
      row.model = track::motionModelName(est.model);
      row.nis = est.nis;
      if (static_cast<int>(i) >= config.warmupWindows) {
        const double errCm = errorCm(est.position, w.truth).combined;
        trackErrorsCm.push_back(errCm);
        if (!est.usedMeasurement) {
          arm.coastMaxErrorCm = std::max(arm.coastMaxErrorCm, errCm);
        }
      }
    } else {
      row.state = track::trackStateName(tracker.state());
    }
    arm.rows.push_back(std::move(row));
  }

  arm.fixRmseCm = rmseCm(fixErrorsCm);
  arm.trackRmseCm = rmseCm(trackErrorsCm);
  arm.stats = tracker.stats();
  arm.finalState = track::trackStateName(tracker.state());
  arm.trajectoryDigest = digest.value();
  return arm;
}

}  // namespace

sim::ScenarioConfig TrackEvalConfig::defaultScenario() {
  sim::ScenarioConfig scenario;
  // Fast spin: one full revolution per 2 s fix window, so the quasi-static
  // approximation holds against a ~0.2 m/s reader.
  scenario.rigOmegaRadPerS = 3.14159265358979323846;
  // The arms isolate the filter against fix noise; multipath stress has
  // its own bench (fig_adversarial).
  scenario.multipath = false;
  // A wide rig baseline keeps the ray-intersection angles healthy across
  // the whole patrol loop; a narrow row would give the far leg correlated
  // range errors no filter can average out.
  scenario.centerSpacingM = 0.9;
  return scenario;
}

core::LocatorConfig TrackEvalConfig::defaultLocator() {
  core::LocatorConfig config;
  config.robust.diagnostics = true;
  config.robust.consensus = true;
  config.robust.bootstrap = true;
  return config;
}

track::TrackerConfig TrackEvalConfig::defaultTracker() {
  track::TrackerConfig tracker;
  // The patrol profile is exactly piecewise CV/CT (constant speed,
  // straight legs, circular fillets), so the process noise only has to
  // absorb the leg/arc transitions: accelStd covers the centripetal
  // acceleration at patrol speed and turnRateStd lets the CT bank acquire
  // a corner's turn rate within a window or two.
  tracker.noise.accelStd = 0.004;
  tracker.noise.turnRateStd = 0.06;
  // Deliberately conservative innovation target: stronger smoothing, and
  // the unscaled-R gate still accepts every honest fix.
  tracker.rCalibrationTargetNis = 3.0;
  tracker.modelSwitchMargin = 1.6;
  return tracker;
}

TrackEvalResult runTrackEval(const TrackEvalConfig& config) {
  TrackEvalResult result;

  sim::World world = sim::makeRigRowWorld(config.scenario, config.rigCount);
  {
    rf::ChannelConfig channel = world.channel.config();
    channel.phaseNoiseStd = config.phaseNoiseStd;
    world.channel =
        rf::BackscatterChannel(channel, world.channel.scatterers());
  }
  const core::TagspinSystem server = makeServer(world, config);
  const sim::Trajectory trajectory(
      sim::patrolPath(config.region, config.speedMps, config.turnRadiusM));

  // DROPOUT schedule decided up front so the corpus knows which windows
  // need a decoy interrogation.
  const size_t n = static_cast<size_t>(config.windows);
  std::vector<WindowAction> cleanSchedule(n, WindowAction::kFix);
  std::vector<WindowAction> dropoutSchedule(n, WindowAction::kFix);
  {
    auto rng = sim::makeRng(sim::deriveSeed(config.seed, 0xD60ULL));
    std::uniform_real_distribution<double> unif(0.0, 1.0);
    for (size_t i = 0; i < n; ++i) {
      if (static_cast<int>(i) < config.warmupWindows) continue;
      const double roll = unif(rng);
      if (roll < config.dropoutFraction) {
        dropoutSchedule[i] = WindowAction::kGap;
      } else if (roll < config.dropoutFraction + config.ghostFraction) {
        dropoutSchedule[i] = WindowAction::kGhost;
      }
    }
  }

  // OUTAGE schedule: the standard soak script mapped onto windows -- a
  // window is lost when its midpoint falls inside a disconnect or stall.
  std::vector<WindowAction> outageSchedule(n, WindowAction::kFix);
  {
    const double spanS = config.windowS * static_cast<double>(n);
    const double periodS =
        2.0 * 3.14159265358979323846 / config.scenario.rigOmegaRadPerS;
    const auto events = sim::standardOutageScript(
        spanS, periodS, sim::deriveSeed(config.seed, 0x0D7ULL));
    for (size_t i = 0; i < n; ++i) {
      const double midS = (static_cast<double>(i) + 0.5) * config.windowS;
      for (const sim::OutageEvent& ev : events) {
        if (ev.kind == sim::OutageEvent::Kind::kFlood) continue;
        if (midS >= ev.atS && midS <= ev.atS + ev.durationS) {
          outageSchedule[i] = WindowAction::kGap;
          break;
        }
      }
    }
  }

  // Shared capture corpus: one interrogation per window from the true
  // (midpoint) position; a decoy interrogation for ghost windows.
  std::vector<WindowCapture> corpus;
  corpus.reserve(n);
  auto ghostRng = sim::makeRng(sim::deriveSeed(config.seed, 0x607ULL));
  for (size_t i = 0; i < n; ++i) {
    WindowCapture w;
    w.midS = (static_cast<double>(i) + 0.5) * config.windowS;
    w.truth = trajectory.positionAt(w.midS);

    sim::World placed = world;
    sim::placeReaderAntenna(placed, 0, {w.truth, 0.0});
    sim::InterrogateConfig ic;
    ic.durationS = config.windowS;
    ic.antennaPort = 0;
    ic.streamId = sim::deriveSeed(config.seed ^ 0x77AC4ULL, i);
    w.clean = sim::interrogate(placed, ic);

    if (dropoutSchedule[i] == WindowAction::kGhost) {
      geom::Vec3 decoy = config.region.sample(ghostRng, false);
      for (int attempt = 0;
           attempt < 64 && geom::distance(decoy.xy(), w.truth) < 1.0;
           ++attempt) {
        decoy = config.region.sample(ghostRng, false);
      }
      w.ghostPos = decoy.xy();
      sim::World ghostWorld = world;
      sim::placeReaderAntenna(ghostWorld, 0, decoy);
      sim::InterrogateConfig gic = ic;
      gic.streamId = sim::deriveSeed(config.seed ^ 0x6057ULL, i);
      w.ghost = sim::interrogate(ghostWorld, gic);
    }
    corpus.push_back(std::move(w));
  }

  result.clean = runArm("clean", config, server, corpus, cleanSchedule);
  result.dropout = runArm("dropout", config, server, corpus, dropoutSchedule);
  result.outage = runArm("outage", config, server, corpus, outageSchedule);

  // Determinism: the dropout arm replayed over the identical corpus must
  // reproduce the trajectory bit for bit.
  const TrackArmResult replay =
      runArm("dropout", config, server, corpus, dropoutSchedule);
  result.replayDigest1 = result.dropout.trajectoryDigest;
  result.replayDigest2 = replay.trajectoryDigest;
  result.replayDeterministic = result.replayDigest1 == result.replayDigest2;

  if (result.clean.fixRmseCm > 0.0) {
    result.rmseRatio = result.clean.trackRmseCm / result.clean.fixRmseCm;
  }
  result.outageSurvived = result.outage.stats.reinits == 0 &&
                          result.outage.stats.drops == 0 &&
                          result.outage.finalState != "dropped" &&
                          result.outage.finalState != "tentative";
  return result;
}

std::string trackArmCsv(const TrackArmResult& arm) {
  std::ostringstream out;
  out << "time_s,truth_x,truth_y,has_fix,ghost,fix_x,fix_y,track_x,track_y,"
         "state,model,nis\n";
  out << std::setprecision(10);
  for (const TrackWindowRow& r : arm.rows) {
    out << r.timeS << "," << r.truthX << "," << r.truthY << ","
        << (r.hasFix ? 1 : 0) << "," << (r.ghost ? 1 : 0) << "," << r.fixX
        << "," << r.fixY << "," << r.trackX << "," << r.trackY << ","
        << r.state << "," << r.model << "," << r.nis << "\n";
  }
  return out.str();
}

namespace {

void armJson(obs::JsonWriter& w, const char* key, const TrackArmResult& arm) {
  w.key(key).beginObject();
  w.field("name", arm.name).field("windows", arm.windows);
  w.field("fixes", arm.fixesProduced).field("gap_windows", arm.gapWindows);
  w.field("ghost_windows", arm.ghostWindows);
  w.field("fix_rmse_cm", arm.fixRmseCm);
  w.field("track_rmse_cm", arm.trackRmseCm);
  w.field("coast_max_error_cm", arm.coastMaxErrorCm);
  w.field("accepted", arm.stats.accepted);
  w.field("gate_rejects", arm.stats.gateRejects);
  w.field("verdict_rejects", arm.stats.verdictRejects);
  w.field("coasts", arm.stats.coasts);
  w.field("coast_fraction", arm.stats.coastFraction());
  w.field("model_switches", arm.stats.modelSwitches);
  w.field("reinits", arm.stats.reinits).field("drops", arm.stats.drops);
  w.field("final_state", arm.finalState);
  w.field("trajectory_digest", capture::digestHex(arm.trajectoryDigest));
  w.end();
}

}  // namespace

std::string trackJson(const TrackEvalResult& result) {
  obs::JsonWriter w;
  w.beginObject();
  armJson(w, "clean", result.clean);
  armJson(w, "dropout", result.dropout);
  armJson(w, "outage", result.outage);
  w.field("rmse_ratio", result.rmseRatio);
  w.field("outage_survived", result.outageSurvived);
  w.field("replay_digest1", capture::digestHex(result.replayDigest1));
  w.field("replay_digest2", capture::digestHex(result.replayDigest2));
  w.field("replay_deterministic", result.replayDeterministic);
  return w.end().str();
}

TrackReplayResult runTrackReplay(const std::string& capturePath,
                                 const core::DeploymentFile& deployment,
                                 runtime::SupervisorConfig supervisor,
                                 double fixIntervalS, double tickS) {
  TrackReplayResult result;
  const capture::TimedStream timed =
      capture::readCaptureFile(capturePath, /*tolerant=*/true);
  const auto stream = capture::makeReplayStream(timed);

  supervisor.trackFixes = true;
  runtime::Supervisor sup(supervisor, deployment, nullptr);
  auto transport =
      std::make_shared<capture::ReplayTransport>(stream, capture::ReplayTransportConfig{});
  sup.addSession("replay0", [transport] {
    return std::make_unique<runtime::SharedTransport>(transport);
  });

  const double spanS = stream->releaseS.empty() ? 0.0 : stream->releaseS.back();
  const double endS = spanS + 2.0;
  capture::Fnv1a digest;
  double nextFixS = fixIntervalS;
  for (double t = 0.0; t <= endS + 1e-9; t += tickS) {
    sup.tick(t);
    if (t + 1e-9 >= nextFixS) {
      nextFixS += fixIntervalS;
      const auto fix = sup.locateAndRecover2D(t);
      if (fix.hasValue()) ++result.fixes;
      if (sup.tracker() && sup.tracker()->hasEstimate()) {
        const track::TrackEstimate& est = sup.tracker()->lastEstimate();
        foldEstimate(digest, est);
        ++result.estimates;
        result.finalX = est.position.x;
        result.finalY = est.position.y;
      }
    }
  }
  sup.shutdown(endS);
  result.trajectoryDigest = digest.value();
  result.finalState = sup.tracker()
                          ? track::trackStateName(sup.tracker()->state())
                          : "disabled";
  return result;
}

}  // namespace tagspin::eval
