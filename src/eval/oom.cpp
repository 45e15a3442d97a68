#include "eval/oom.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <numbers>
#include <optional>

#include "capture/digest.hpp"
#include "capture/replay.hpp"
#include "capture/writer.hpp"
#include "rfid/llrp.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fleet.hpp"
#include "sim/fleet_scenario.hpp"
#include "sim/io_sim.hpp"
#include "sim/rng.hpp"
#include "sim/scenario.hpp"
#include "track/tracker.hpp"

namespace tagspin::eval {
namespace {

constexpr const char* kCheckpointDir = "ckpt";
constexpr const char* kCapturePath = "oom.tspc";

std::string sessionName(size_t index) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "m%04zu", index);
  return buf;
}

// ---------------------------------------------------------------------------
// Workloads.  One instance = one execution: run() drives the real
// components against the injected memory environment -- constructing and
// destroying everything inside, so the explorer's post-run leak check
// (env.usedBytes() == 0) covers teardown too.  Each workload disarms the
// injector and clears pressure before its recovery phase, the window the
// "full recovery after pressure clears" invariants are measured over.

class MemWorkloadRun {
 public:
  virtual ~MemWorkloadRun() = default;
  virtual void run(sim::SimMemEnv& env) = 0;
  /// Workload-specific invariants on the completed run; `env` is the
  /// post-teardown environment.
  virtual std::optional<std::string> check(
      const sim::SimMemEnv& env) const = 0;
  /// Deterministic digest of the run's outcome (the parity gate compares
  /// these bit-for-bit between accounting-off and accounting-on runs).
  virtual uint64_t digest() const { return 0; }
};

using MemWorkloadFactory = std::function<std::unique_ptr<MemWorkloadRun>()>;

// ---------------------------------------------------------------------------
// Fleet fixture: interrogate + encode exactly once; every fleet run in
// every arm shares the stream and deployment (the runs differ only in
// injection, outage scripts, and budgets).

struct FleetFixture {
  std::shared_ptr<const sim::SharedStream> stream;
  core::DeploymentFile deployment;
  double spanS = 0.0;
  double endS = 0.0;
  sim::FleetScenarioConfig storm;
};

FleetFixture makeFleetFixture(const OomExploreConfig& config) {
  FleetFixture fx;

  sim::ScenarioConfig scenario;
  scenario.seed = static_cast<uint32_t>(config.seed % 1000003);
  scenario.fixedChannel = true;

  const double period = 2.0 * std::numbers::pi / scenario.rigOmegaRadPerS;
  fx.spanS = config.fleetRevolutions * period;
  fx.endS = fx.spanS + config.settleS;

  // Connect storm: most of the fleet drops at the same instant mid-span
  // and reconnects together, with a flapper tail for the quarantine ring.
  fx.storm.spanS = fx.spanS;
  fx.storm.revolutionPeriodS = period;
  fx.storm.outageFraction = 0.6;
  fx.storm.outageAtS = 0.4 * fx.spanS;
  fx.storm.outageDurationS = std::min(3.0, 0.3 * fx.spanS);
  fx.storm.flapFraction = 0.2;
  fx.storm.seed = sim::deriveSeed(config.seed, 7);

  sim::World world = sim::makeRigRowWorld(scenario, 2);
  auto rng = sim::makeRng(sim::deriveSeed(config.seed, 1));
  sim::Region region;
  const geom::Vec3 truth = region.sample(rng, false);
  sim::placeReaderAntenna(world, 0, truth);

  fx.stream = sim::makeSharedStream(
      world, {fx.spanS, 0, sim::deriveSeed(config.seed, 2)});

  for (const sim::RigTag& rt : world.rigs) {
    core::RigSpec spec;
    spec.center = rt.rig.center;
    spec.kinematics = {rt.rig.radiusM, rt.rig.omegaRadPerS,
                       rt.rig.initialAngle, rt.rig.tagPlaneOffset};
    fx.deployment.rigs[rt.tag.epc] = spec;
  }
  return fx;
}

/// Fleet template shared by the fleet-driven workloads: the fleet-scale
/// locator economy of eval/fleet, trimmed further -- this harness measures
/// memory behavior, not localization accuracy, so fixes only need to
/// succeed, cheaply.
runtime::FleetConfig baseFleetConfig() {
  runtime::FleetConfig fc;
  fc.supervisor.session.queueCapacity = 1024;
  fc.supervisor.session.backpressure = runtime::BackpressurePolicy::kDropOldest;
  fc.supervisor.maxSnapshotsPerTag = 250;
  fc.supervisor.checkpointSpectrumPoints = 0;
  fc.supervisor.locator.search.azimuthGridPoints = 144;
  fc.supervisor.locator.search.refineRounds = 3;
  fc.supervisor.locator.orientationIterations = 1;
  fc.supervisor.locator.robust.diagnostics = false;
  fc.supervisor.locator.robust.consensus = false;
  fc.fixIntervalS = 5.0;
  fc.fixRetryS = 1.0;
  fc.retryBudget.tokensPerSecond = 4.0;
  fc.retryBudget.burst = 8.0;
  return fc;
}

enum class FleetMode { kSteady, kConnectStorm, kCheckpointSave };

/// The three fleet-driven workloads in one body: steady state (injection
/// lands on the per-session accounting path), connect storm (injection
/// lands while reconnect work and flap tracking churn the footprints),
/// and checkpoint save (SimIoEnv-backed shard checkpoints whose framed
/// image is reserved before every write).
class FleetMemWorkload final : public MemWorkloadRun {
 public:
  FleetMemWorkload(const OomExploreConfig& config, const FleetFixture& fx,
                   FleetMode mode, bool attachMem,
                   uint64_t shardBudgetBytes = 0)
      : config_(config),
        fx_(fx),
        mode_(mode),
        attachMem_(attachMem),
        shardBudget_(shardBudgetBytes) {}

  void run(sim::SimMemEnv& env) override {
    runtime::FleetConfig fc = baseFleetConfig();
    fc.shards = config_.fleetShards;
    fc.maxSessions = config_.fleetSessions;
    fc.workerThreads = 0;  // deterministic reservation indices
    if (attachMem_) {
      fc.mem = &env;
      fc.memBudgetPerShardBytes = shardBudget_;
    }
    if (mode_ == FleetMode::kCheckpointSave) {
      fc.checkpointDir = kCheckpointDir;
      fc.io = &io_;
      fc.checkpointIntervalS = 2.0;
      fc.maxCheckpointWritesPerTick = 2;
    }

    capture::Fnv1a digest;
    fc.onFix = [&digest](const runtime::FleetFixEvent& ev) {
      digest.bytes(ev.name.data(), ev.name.size());
      digest.u64(ev.shard);
      digest.f64(ev.dueS);
      digest.f64(ev.nowS);
      digest.u64(ev.ok ? 1 : 0);
    };

    runtime::FleetManager fleet(fc, fx_.deployment);
    for (size_t i = 0; i < config_.fleetSessions; ++i) {
      sim::FlakyTransportConfig tc;
      tc.connectDelayS = 0.05;
      tc.seed = sim::deriveSeed(config_.seed, 100 + i);
      if (mode_ == FleetMode::kConnectStorm) {
        tc.events =
            sim::fleetOutageScript(fx_.storm, i, config_.fleetSessions);
      }
      fleet.registerSession(sessionName(i),
                            [stream = fx_.stream, tc] {
                              return std::make_unique<sim::FlakyTransport>(
                                  stream, tc);
                            });
    }
    registered_ = fleet.sessionCount();

    for (double t = 0.0; t <= fx_.endS + 1e-9; t += config_.tickS) {
      fleet.tick(t);
    }

    // Pressure clears: disarm the injector and run the recovery window.
    env.setFailAt(-1);
    env.setFaults({});
    env.clearPressure();
    denialsAtClear_ = env.denials();
    const double recoverEndS = fx_.endS + config_.recoverS;
    for (double t = fx_.endS + config_.tickS; t <= recoverEndS + 1e-9;
         t += config_.tickS) {
      fleet.tick(t);
    }
    fleet.shutdown(recoverEndS);
    denialsAfterRecover_ = env.denials();

    stats_ = fleet.stats();
    const auto views = fleet.sessions();
    sessionsAtEnd_ = views.size();
    for (const auto& v : views) {
      if (v.hasFix) ++withFix_;
      digest.bytes(v.name.data(), v.name.size());
      digest.u64(v.fixes);
      digest.u64(v.hasFix ? 1 : 0);
    }
    digest_ = digest.value();

    if (mode_ == FleetMode::kCheckpointSave) {
      // shutdown() just wrote a final checkpoint for every shard with the
      // injector disarmed: every file must exist and unframe cleanly.
      finalCheckpointsOk_ = true;
      const sim::DiskImage image = io_.liveImage();
      for (size_t k = 0; k < config_.fleetShards; ++k) {
        const std::string path = std::string(kCheckpointDir) +
                                 "/fleet_shard" + std::to_string(k) +
                                 ".ckpt";
        const auto it = image.find(path);
        if (it == image.end() ||
            !runtime::CheckpointStore::unframe(it->second).hasValue()) {
          finalCheckpointsOk_ = false;
        }
      }
    }
  }

  std::optional<std::string> check(const sim::SimMemEnv& env) const override {
    if (registered_ != config_.fleetSessions) {
      return "only " + std::to_string(registered_) + " of " +
             std::to_string(config_.fleetSessions) + " sessions admitted";
    }
    if (sessionsAtEnd_ != registered_) {
      return "sessions lost: " + std::to_string(sessionsAtEnd_) + " of " +
             std::to_string(registered_) + " remain registered";
    }
    if (stats_.badAllocCaught != 0) {
      return "bad_alloc reached the fleet worker boundary " +
             std::to_string(stats_.badAllocCaught) + " times";
    }
    // Isolation: every memory quarantine must be attributable to an
    // injected denial -- pressure on one session can never cascade.
    if (stats_.memEjections > env.denials()) {
      return std::to_string(stats_.memEjections) +
             " sessions quarantined for memory with only " +
             std::to_string(env.denials()) + " denials injected";
    }
    if (denialsAfterRecover_ != denialsAtClear_) {
      return "reservations denied after pressure cleared";
    }
    if (mode_ == FleetMode::kCheckpointSave && !finalCheckpointsOk_) {
      return "final shard checkpoints missing or corrupt after recovery";
    }
    // A fault-free (or never-reached-fault) run must behave like the
    // baseline: every session ends holding a fix.
    if (env.denials() == 0 && withFix_ != registered_) {
      return "fault-free run left " +
             std::to_string(registered_ - withFix_) +
             " sessions without a fix";
    }
    return std::nullopt;
  }

  uint64_t digest() const override { return digest_; }

  const runtime::FleetStats& stats() const { return stats_; }
  double fixRate() const {
    return registered_ ? double(withFix_) / double(registered_) : 0.0;
  }

 private:
  const OomExploreConfig& config_;
  const FleetFixture& fx_;
  FleetMode mode_;
  bool attachMem_;
  uint64_t shardBudget_;
  sim::SimIoEnv io_;

  size_t registered_ = 0;
  size_t sessionsAtEnd_ = 0;
  size_t withFix_ = 0;
  uint64_t denialsAtClear_ = 0;
  uint64_t denialsAfterRecover_ = 0;
  bool finalCheckpointsOk_ = true;
  runtime::FleetStats stats_;
  uint64_t digest_ = 0;
};

// ---------------------------------------------------------------------------
// Replay fan-out: N sessions build budgeted replay streams from one
// capture while a budgeted CaptureWriter spills/refuses under the same
// arena.  A denial must cost exactly one stream (kOutOfMemory Result) or
// one report (refusal), never the process.

capture::TimedStream syntheticStream(size_t n) {
  capture::TimedStream out;
  for (size_t i = 0; i < n; ++i) {
    capture::TimedReport tr;
    tr.report.epc = rfid::Epc::forSimulatedTag(static_cast<uint32_t>(i % 3));
    tr.report.timestampS = 0.0025 * static_cast<double>(i);
    tr.report.phaseRad = static_cast<double>((i * 37) % 4096) / 4096.0 *
                         2.0 * std::numbers::pi;
    tr.report.rssiDbm = -60.0 - static_cast<double>(i % 20);
    tr.report.channelIndex = static_cast<int>(i % 16);
    tr.report.frequencyHz = 902.75e6 + 0.5e6 * static_cast<double>(i % 16);
    tr.report.antennaPort = static_cast<int>(i % 4);
    tr.deliveryS = tr.report.timestampS + 0.0008;
    out.push_back(tr);
  }
  return out;
}

class ReplayFanoutWorkload final : public MemWorkloadRun {
 public:
  explicit ReplayFanoutWorkload(const OomExploreConfig& config)
      : config_(config), stream_(syntheticStream(config.replayReports)) {}

  void run(sim::SimMemEnv& env) override {
    core::MemArena arena(&env, 0, "replay.fanout");
    {
      std::vector<std::shared_ptr<const capture::ReplayStream>> streams;
      for (size_t s = 0; s < config_.replaySessions; ++s) {
        auto r = capture::makeReplayStreamBudgeted(stream_, &arena);
        if (r.hasValue()) {
          ++built_;
          if ((*r)->wire.size() !=
              stream_.size() * rfid::llrp::kMessageSize) {
            streamBad_ = true;
          }
          streams.push_back(*r);
        } else {
          ++refused_;
          if (r.error().code != core::ErrorCode::kOutOfMemory) {
            wrongError_ = true;
          }
        }
      }

      // Budgeted capture writer on the same arena: spill-then-refuse.
      sim::SimIoEnv io;
      capture::CaptureWriterConfig wc;
      wc.chunkReports = 8;
      wc.fsyncEveryChunks = 2;
      wc.io = &io;
      wc.arena = &arena;
      capture::CaptureWriter writer(kCapturePath, wc);
      for (const capture::TimedReport& tr : stream_) {
        writer.append(tr.report, tr.deliveryS);
      }
      writer.close();
      writerStats_ = writer.stats();
    }
    // Recovery: with the injector disarmed and pressure cleared, a fresh
    // stream must build (and release on destruction).
    env.setFailAt(-1);
    env.setFaults({});
    env.clearPressure();
    {
      auto r = capture::makeReplayStreamBudgeted(stream_, &arena);
      recovered_ = r.hasValue();
    }
    arenaLeakBytes_ = arena.usedBytes();
  }

  std::optional<std::string> check(const sim::SimMemEnv& env) const override {
    if (built_ + refused_ != config_.replaySessions) {
      return "stream accounting lost a session";
    }
    if (wrongError_) {
      return "a refused stream reported an error other than out_of_memory";
    }
    if (streamBad_) {
      return "a granted stream has a truncated wire image";
    }
    // Isolation: each refusal costs exactly one stream and requires at
    // least one denial.
    if (refused_ > env.denials()) {
      return std::to_string(refused_) + " streams refused with only " +
             std::to_string(env.denials()) + " denials injected";
    }
    if (env.denials() == 0 && refused_ + writerStats_.reportsRefused > 0) {
      return "refusals with no denial injected";
    }
    if (writerStats_.reportsWritten + writerStats_.reportsRefused !=
        stream_.size()) {
      return "writer lost reports: " +
             std::to_string(writerStats_.reportsWritten) + " written + " +
             std::to_string(writerStats_.reportsRefused) + " refused != " +
             std::to_string(stream_.size());
    }
    if (!recovered_) {
      return "stream refused after pressure cleared";
    }
    if (arenaLeakBytes_ != 0) {
      return "arena retained " + std::to_string(arenaLeakBytes_) +
             " bytes after every stream and the writer were torn down";
    }
    return std::nullopt;
  }

 private:
  const OomExploreConfig& config_;
  capture::TimedStream stream_;

  size_t built_ = 0;
  size_t refused_ = 0;
  bool wrongError_ = false;
  bool streamBad_ = false;
  bool recovered_ = false;
  uint64_t arenaLeakBytes_ = 0;
  capture::CaptureWriterStats writerStats_;
};

// ---------------------------------------------------------------------------
// Tracker ghost burst: a confirmed track rides a stream of fixes salted
// with multipath ghosts (gate-rejected) and drop-out gaps (coasting) while
// its bounded history is charged to an injected arena.  Denials may evict
// or refuse history entries -- diagnostics -- but must never move the
// track, drop it, or lose the pinned anchor.

class TrackerGhostBurstWorkload final : public MemWorkloadRun {
 public:
  explicit TrackerGhostBurstWorkload(const OomExploreConfig& config)
      : config_(config) {}

  void run(sim::SimMemEnv& env) override {
    core::MemArena arena(&env, 0, "track.history");
    {
      track::TrackerConfig tc;
      tc.historyLimit = config_.trackerHistoryLimit;
      tc.historyArena = &arena;
      track::Tracker tracker(tc);

      const auto truth = [](double t) {
        return geom::Vec2{0.5 + 0.30 * t, -0.2 + 0.18 * t};
      };
      for (size_t i = 0; i < config_.trackerFixes; ++i) {
        const double t = 0.25 * static_cast<double>(i);
        if (i % 17 == 13) {
          tracker.onGap(t);  // drop-out window: the track coasts
          continue;
        }
        track::TrackMeasurement m;
        m.timeS = t;
        m.position = truth(t);
        if (i % 23 == 7) {
          // Multipath ghost: far off-track, the chi-square gate's job.
          m.position.x += 4.0;
          m.position.y -= 3.0;
        }
        tracker.onMeasurement(m);
      }
      stats_ = tracker.stats();
      state_ = tracker.state();
      hasAnchor_ = tracker.hasAnchor();
      anchorUsedMeasurement_ =
          tracker.hasAnchor() && tracker.anchor().usedMeasurement;
      historySize_ = tracker.history().size();
      memoryBytes_ = tracker.memoryBytes();

      // Recovery: pressure clears, then one more accepted fix must land a
      // history entry again.
      env.setFailAt(-1);
      env.setFaults({});
      env.clearPressure();
      const size_t before = tracker.history().size();
      const uint64_t refusedBefore = tracker.stats().historyRefused;
      track::TrackMeasurement m;
      m.timeS = 0.25 * static_cast<double>(config_.trackerFixes);
      m.position = truth(m.timeS);
      tracker.onMeasurement(m);
      recovered_ = tracker.history().size() >= before &&
                   tracker.stats().historyRefused == refusedBefore;
    }
    arenaLeakBytes_ = arena.usedBytes();
  }

  std::optional<std::string> check(const sim::SimMemEnv& env) const override {
    if (stats_.accepted == 0) {
      return "no fix was ever accepted";
    }
    if (state_ != track::TrackState::kConfirmed &&
        state_ != track::TrackState::kCoasting) {
      return std::string("track left the confirmed/coasting envelope: ") +
             track::trackStateName(state_);
    }
    if (!hasAnchor_ || !anchorUsedMeasurement_) {
      return "the measurement-backed anchor was lost under eviction";
    }
    if (historySize_ > config_.trackerHistoryLimit) {
      return "history grew past its bound: " + std::to_string(historySize_);
    }
    if (memoryBytes_ != historySize_ * sizeof(track::TrackEstimate)) {
      return "memoryBytes() diverged from the held history";
    }
    if (stats_.historyRefused > env.denials()) {
      return std::to_string(stats_.historyRefused) +
             " entries refused with only " + std::to_string(env.denials()) +
             " denials injected";
    }
    if (env.denials() == 0 &&
        (stats_.historyRefused > 0 ||
         historySize_ + 1 < std::min<size_t>(config_.trackerHistoryLimit,
                                             config_.trackerFixes))) {
      return "fault-free run evicted or refused history";
    }
    if (!recovered_) {
      return "history entry refused after pressure cleared";
    }
    if (arenaLeakBytes_ != 0) {
      return "arena retained " + std::to_string(arenaLeakBytes_) +
             " bytes after the tracker was destroyed";
    }
    return std::nullopt;
  }

 private:
  const OomExploreConfig& config_;

  track::TrackerStats stats_;
  track::TrackState state_ = track::TrackState::kDropped;
  bool hasAnchor_ = false;
  bool anchorUsedMeasurement_ = false;
  size_t historySize_ = 0;
  uint64_t memoryBytes_ = 0;
  bool recovered_ = false;
  uint64_t arenaLeakBytes_ = 0;
};

// ---------------------------------------------------------------------------
// The planted bug: a shed cache that, on a denied reservation, "sheds" an
// entry it never admitted -- release without reserve, the accounting
// analog of a double-close.  Invisible on any fault-free run (reserves and
// releases balance exactly); any schedule with one effective denial makes
// the books over-release and the environment's underflow oracle fire.

class BrokenShedCacheWorkload final : public MemWorkloadRun {
 public:
  explicit BrokenShedCacheWorkload(size_t ops) : ops_(ops) {}

  static constexpr uint64_t kBlockBytes = 1024;

  void run(sim::SimMemEnv& env) override {
    core::MemArena arena(&env, 0, "broken.cache");
    for (size_t i = 0; i < ops_; ++i) {
      if (!arena.tryReserve(kBlockBytes)) {
        // BUG: sheds a block that was never admitted.
        arena.release(kBlockBytes);
      }
    }
  }

  std::optional<std::string> check(const sim::SimMemEnv&) const override {
    return std::nullopt;  // the predicate is env.underflow(), inverted
  }

 private:
  size_t ops_;
};

// ---------------------------------------------------------------------------
// The environment the explorer drives: one allocation fault per sampled
// reservation boundary, each run checked by the environment oracles and
// the workload's own invariants.

/// Environment-level oracle checks every injected run must pass, plus the
/// recovery probe: with the injector disarmed and pressure cleared, a
/// reservation must succeed again.
std::optional<std::string> envOracles(sim::SimMemEnv& env) {
  if (env.underflow()) {
    return "accounting underflow: some caller released bytes it never "
           "reserved";
  }
  if (env.budgetExceeded()) {
    return "budget exceeded: some caller grew despite a denial";
  }
  if (env.usedBytes() != 0) {
    return "leak: " + std::to_string(env.usedBytes()) +
           " bytes still reserved after teardown";
  }
  env.setFailAt(-1);
  env.setFaults({});
  env.clearPressure();
  if (!env.tryReserve(4096)) {
    return "no recovery: a reservation was denied after pressure cleared";
  }
  env.release(4096);
  return std::nullopt;
}

constexpr sim::MemFaultKind kMemKinds[] = {
    sim::MemFaultKind::kDeny, sim::MemFaultKind::kBurst,
    sim::MemFaultKind::kCliff, sim::MemFaultKind::kPoison};

struct OomEnv {
  using Fault = sim::MemFault;
  using Outcome = RunOutcome<Fault>;
  struct Workload {
    std::string name;
    MemWorkloadFactory make;
  };

  static constexpr bool kCrashes = false;
  static constexpr const char* kPointsKey = "points";
  static constexpr const char* kOpKey = "fail_at_op";
  static constexpr const char* kPlantedKey = "broken_cache";

  static void drawFault(std::mt19937_64& rng, Fault& f) {
    f.kind = kMemKinds[rng() % std::size(kMemKinds)];
    f.param = f.kind == sim::MemFaultKind::kBurst ? 2 + rng() % 5 : 1;
  }
  static void faultJson(obs::JsonWriter& w, const Fault& f) {
    w.beginObject().field("op", f.opIndex);
    w.field("kind", sim::memFaultKindName(f.kind));
    w.field("param", f.param).end();
  }

  uint64_t seed;
  size_t pointsPerWorkload;

  /// Fault-free run: counts the reservation boundaries; the environment
  /// oracles and the workload's invariants must already hold.
  Outcome probe(const Workload& w, uint64_t& boundaries) const {
    Outcome out;
    const auto fail = [&](std::string detail) {
      out.violations.push_back({w.name, -1, {}, "", 0, std::move(detail)});
    };
    auto inst = w.make();
    sim::SimMemEnv env;
    try {
      inst->run(env);
    } catch (const std::exception& e) {
      fail(std::string("baseline threw: ") + e.what());
    }
    boundaries = env.opCount();
    if (auto bad = envOracles(env)) {
      fail("baseline: " + *bad);
    } else if (auto wbad = inst->check(env)) {
      fail("baseline: " + *wbad);
    }
    return out;
  }

  size_t sweepPoints(uint64_t) const { return pointsPerWorkload; }

  /// Point p: one fault at a stride-sampled reservation index, kinds cycled.
  Outcome inject(const Workload& w, size_t p, uint64_t boundaries) const {
    const uint64_t span = std::max<uint64_t>(boundaries, 1);
    sim::MemFault fault;
    fault.opIndex = (uint64_t(p) * span) / pointsPerWorkload;
    fault.kind = kMemKinds[p % std::size(kMemKinds)];
    fault.param = fault.kind == sim::MemFaultKind::kBurst ? 4 : 1;
    return runSchedule(w, {fault}, 0, int64_t(fault.opIndex));
  }

  /// SimMemEnv draws no randomness, so `faultSeed` is unused.
  Outcome runSchedule(const Workload& w, const sim::MemFaultSchedule& schedule,
                      uint64_t /*faultSeed*/, int64_t atOp = -1) const {
    Outcome out;
    out.checks = 1;
    auto inst = w.make();
    sim::SimMemEnv env;
    env.setFaults(schedule);
    std::optional<std::string> bad;
    try {
      inst->run(env);
    } catch (const std::exception& e) {
      bad = std::string("uncaught exception crossed the workload: ") +
            e.what();
    }
    out.denials = env.denials();
    if (!bad) bad = envOracles(env);
    if (!bad) bad = inst->check(env);
    if (bad) out.violations.push_back({w.name, atOp, schedule, "", 0, *bad});
    return out;
  }
};

}  // namespace

OomEvalResult runOomEval(const OomExploreConfig& config) {
  OomEvalResult result;
  const FleetFixture fx = makeFleetFixture(config);
  const OomEnv env{config.seed, config.pointsPerWorkload};

  const auto fleet = [&config, &fx](FleetMode mode) {
    return [&config, &fx, mode] {
      return std::make_unique<FleetMemWorkload>(config, fx, mode,
                                                /*attachMem=*/true);
    };
  };
  const std::vector<OomEnv::Workload> workloads = {
      {"fleet_steady", fleet(FleetMode::kSteady)},
      {"connect_storm", fleet(FleetMode::kConnectStorm)},
      {"replay_fanout",
       [&config] { return std::make_unique<ReplayFanoutWorkload>(config); }},
      {"tracker_ghost_burst",
       [&config] {
         return std::make_unique<TrackerGhostBurstWorkload>(config);
       }},
      {"checkpoint_save", fleet(FleetMode::kCheckpointSave)},
  };
  exploreWorkloads(env, workloads, result);
  // Multi-fault schedules against the fleet steady-state path (the
  // workload with the richest shedding ladder).
  searchSchedules(env, workloads, "fleet_steady", 0x5EA,
                  config.scheduleRounds, config.maxScheduleFaults, result);

  // Parity gate: the seam itself must cost nothing.  Accounting off vs a
  // fault-free SimMemEnv attached -- fix streams bit-identical.
  {
    FleetMemWorkload off(config, fx, FleetMode::kSteady,
                         /*attachMem=*/false);
    sim::SimMemEnv offEnv;
    off.run(offEnv);
    FleetMemWorkload on(config, fx, FleetMode::kSteady, /*attachMem=*/true);
    sim::SimMemEnv onEnv;
    on.run(onEnv);
    result.parityBaselineDigest = capture::digestHex(off.digest());
    result.paritySeamDigest = capture::digestHex(on.digest());
    result.parityBitIdentical = off.digest() == on.digest();
  }

  // Pressure arm: shard budgets from a probe run's per-shard peak, scaled
  // so the fleet ends around 1/factor (~80%) utilization -- inside the
  // mem-degraded band, trimming but never losing sessions.
  {
    FleetMemWorkload probe(config, fx, FleetMode::kSteady,
                           /*attachMem=*/true);
    sim::SimMemEnv probeEnv;
    probe.run(probeEnv);
    const uint64_t perShardPeak = std::max<uint64_t>(
        probe.stats().memPeakBytes / std::max<size_t>(config.fleetShards, 1),
        1);
    const uint64_t budget = uint64_t(
        config.pressureBudgetFactor * static_cast<double>(perShardPeak));
    result.pressureShardBudgetBytes = budget;

    FleetMemWorkload pressured(config, fx, FleetMode::kSteady,
                               /*attachMem=*/true, budget);
    sim::SimMemEnv memEnv;
    pressured.run(memEnv);
    result.pressureFixRate = pressured.fixRate();
    result.pressureTrims = pressured.stats().memTrims;
    result.pressureEjections = pressured.stats().memEjections;
    result.pressureDeniedReserves = pressured.stats().memDeniedReserves;
    result.pressureUtilization =
        static_cast<double>(pressured.stats().memPeakBytes) /
        static_cast<double>(budget * config.fleetShards);
    result.pressureRecovered = memEnv.usedBytes() == 0 &&
                               !memEnv.underflow() && !memEnv.budgetExceeded();
  }

  // Falsification arm.  Exploration must catch the planted bug: a single
  // deny anywhere in range makes the cache over-release and the underflow
  // oracle fire at teardown.
  const auto runBroken = [&config](auto arm) {
    BrokenShedCacheWorkload inst(config.brokenCacheOps);
    sim::SimMemEnv memEnv;
    arm(memEnv);
    inst.run(memEnv);
    return memEnv.underflow();
  };
  for (size_t k = 0; k < config.brokenCacheOps && !result.brokenCaught;
       k += std::max<size_t>(config.brokenCacheOps / 16, 1)) {
    result.brokenCaught =
        runBroken([k](sim::SimMemEnv& e) { e.setFailAt(int64_t(k)); });
  }
  const auto fails = [&runBroken](const sim::MemFaultSchedule& schedule) {
    return runBroken([&schedule](sim::SimMemEnv& e) { e.setFaults(schedule); });
  };
  shrinkPlantedBug(
      env, "broken_shed_cache", "ops", config.brokenCacheOps, 0xB0B,
      config.brokenSearchRounds, config.brokenCacheOps,
      config.maxScheduleFaults, fails,
      [](obs::JsonWriter& w, const sim::MemFaultSchedule&) {
        w.field("detail", "accounting underflow: release without reserve");
      },
      result);

  const bool pressureOk = result.pressureFixRate >= config.pressureMinFixRate &&
                          result.pressureRecovered;
  result.pass = result.totalViolations == 0 && result.brokenCaught &&
                result.brokenShrunk() && result.parityBitIdentical &&
                pressureOk;
  return result;
}

std::string oomJson(const OomEvalResult& r) {
  return exploreJson<OomEnv>(r, [&r](obs::JsonWriter& w) {
    // "checked" stays in the payload schema; both gates always run.
    w.key("parity").beginObject().field("checked", true);
    w.field("bit_identical", r.parityBitIdentical);
    w.field("baseline_digest", r.parityBaselineDigest);
    w.field("seam_digest", r.paritySeamDigest).end();
    w.key("pressure").beginObject().field("checked", true);
    w.field("fix_rate", r.pressureFixRate);
    w.field("utilization", r.pressureUtilization);
    w.field("shard_budget_bytes", r.pressureShardBudgetBytes);
    w.field("trims", r.pressureTrims).field("ejections", r.pressureEjections);
    w.field("denied_reserves", r.pressureDeniedReserves);
    w.field("recovered", r.pressureRecovered).end();
  });
}

std::string oomReport(const OomEvalResult& r) {
  char arms[512];
  std::snprintf(
      arms, sizeof(arms),
      "parity: %s (baseline %s, seam %s)\n"
      "pressure: fix rate %.4f at %.1f%% utilization (budget %llu B/shard), "
      "%llu trims, %llu ejections, %llu denied reserves, recovered %s\n",
      r.parityBitIdentical ? "bit-identical" : "DIVERGED",
      r.parityBaselineDigest.c_str(), r.paritySeamDigest.c_str(),
      r.pressureFixRate, 100.0 * r.pressureUtilization,
      static_cast<unsigned long long>(r.pressureShardBudgetBytes),
      static_cast<unsigned long long>(r.pressureTrims),
      static_cast<unsigned long long>(r.pressureEjections),
      static_cast<unsigned long long>(r.pressureDeniedReserves),
      r.pressureRecovered ? "yes" : "NO");
  return exploreReport<OomEnv>(r, arms);
}

}  // namespace tagspin::eval
