// fleet_serve / fleet_pool: a runtime::FleetManager serving many reader
// sessions, a closed loop with one coordinator that advances the simulated
// clock as fast as the host allows.
//
// Every session replays its own 3-rig capture (own reader position, own
// noise seed) through a capture::ReplayTransport.  The fleet runs the
// default fleet config (eval::FleetEvalConfig::defaultFleetConfig) with
// fix tracking and batched shard checkpoints in a scratch directory.
//
// The run is a sequence of epochs.  An epoch is one fleet lifetime over
// freshly generated captures: sessions connect, stream, fix every few
// simulated seconds, and the epoch ends a second after the captures do.
// A request is one fix; its latency is the host time of the tick that
// serviced it.
// Epoch 0 always completes; its final fixes are gated against the
// simulator's truth and digested, and the digest must not depend on the
// worker count.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numbers>

#include "capture/digest.hpp"
#include "capture/format.hpp"
#include "capture/replay.hpp"
#include "core/preprocess.hpp"
#include "decompose.hpp"
#include "eval/fleet.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/fleet.hpp"
#include "sim/interrogator.hpp"
#include "sim/rng.hpp"
#include "sim/scenario.hpp"
#include "track/fix_adapter.hpp"
#include "track/tracker.hpp"

namespace perfbench {

using namespace tagspin;

namespace {

struct FleetSizes {
  size_t sessions = 64;
  size_t shards = 8;
  double revolutions = 1.5;  // capture length per session and epoch
  double tickS = 0.1;
};

FleetSizes fleetSizes(bool tiny) {
  FleetSizes s;
  if (tiny) {
    s.sessions = 16;
    s.shards = 4;
  }
  return s;
}

/// Run-out after the captures end, so the last due fixes land.
constexpr double kSettleS = 1.0;

/// Accuracy gate on the fixes each session holds at the end of an epoch.
/// The fleet config runs without the robust stack, so a session caught by
/// a multipath ghost can be off by a metre; the gate bounds the median and
/// p90, and counts as failed only a fix outside any plausible position.
constexpr double kMedianErrorCm = 40.0;
constexpr double kP90ErrorCm = 150.0;
constexpr double kMaxErrorCm = 500.0;

std::string sessionName(size_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "s%04zu", i);
  return buf;
}

struct SessionInput {
  std::shared_ptr<const capture::ReplayStream> stream;
  geom::Vec3 truth;
};

/// The rig deployment every session shares (the fleet's registry).
struct FleetScene {
  sim::World world;
  core::DeploymentFile deployment;
  double spanS = 0.0;
};

FleetScene makeScene(uint64_t seed, const FleetSizes& sizes) {
  FleetScene scene;
  sim::ScenarioConfig sc;
  sc.seed = sim::deriveSeed(seed, 0xF1);
  scene.world = sim::makeRigRowWorld(sc, 3);
  for (const sim::RigTag& rt : scene.world.rigs) {
    scene.deployment.rigs[rt.tag.epc] = rigSpecOf(rt);
  }
  scene.spanS =
      sizes.revolutions * 2.0 * std::numbers::pi / sc.rigOmegaRadPerS;
  return scene;
}

std::vector<SessionInput> makeEpochInputs(const FleetScene& scene,
                                          uint64_t seed, uint64_t epoch,
                                          const FleetSizes& sizes) {
  std::vector<SessionInput> inputs(sizes.sessions);
  sim::Region region;
  for (size_t i = 0; i < sizes.sessions; ++i) {
    const uint64_t key = (epoch << 24) + i;
    auto rng = sim::makeRng(sim::deriveSeed(seed, 0x100000000ULL + key));
    inputs[i].truth = region.sample(rng, /*threeD=*/false);
    sim::World w = scene.world;
    sim::placeReaderAntenna(w, 0, inputs[i].truth);
    const rfid::ReportStream reports = sim::interrogate(
        w, {scene.spanS, 0, sim::deriveSeed(seed, 0x200000000ULL + key)});
    inputs[i].stream =
        capture::makeReplayStream(capture::withReaderTiming(reports));
  }
  return inputs;
}

runtime::FleetConfig fleetConfig(const FleetSizes& sizes, size_t workers,
                                 const std::string& checkpointDir) {
  runtime::FleetConfig fc = eval::FleetEvalConfig::defaultFleetConfig();
  fc.shards = sizes.shards;
  fc.maxSessions = sizes.sessions;
  fc.workerThreads = workers;
  fc.supervisor.trackFixes = true;
  fc.checkpointDir = checkpointDir;
  return fc;
}

/// One epoch: a FleetManager over one set of session inputs.
class EpochRun {
 public:
  EpochRun(runtime::FleetConfig config, const FleetScene& scene,
           const std::vector<SessionInput>& inputs, double tickS,
           obs::MetricsRegistry* registry)
      : inputs_(inputs),
        tickS_(tickS),
        endS_(scene.spanS + kSettleS),
        hadFix_(inputs.size(), false) {
    config.metrics = registry;
    config.onFix = [this](const runtime::FleetFixEvent& ev) { onFix(ev); };
    fleet_ = std::make_unique<runtime::FleetManager>(config, scene.deployment);
    for (size_t i = 0; i < inputs.size(); ++i) {
      auto transport =
          std::make_shared<capture::ReplayTransport>(inputs[i].stream);
      transports_.push_back(transport);
      fleet_->registerSession(sessionName(i), [transport] {
        return std::make_unique<runtime::SharedTransport>(transport);
      });
    }
  }
  EpochRun(const EpochRun&) = delete;
  EpochRun& operator=(const EpochRun&) = delete;

  bool done() const { return nowS_ > endS_ + 1e-9; }
  double nowS() const { return nowS_; }

  /// Advance one tick; returns its host seconds.
  double tick() {
    fixedThisTick_.clear();
    eventsThisTick_ = 0;
    const auto start = Clock::now();
    fleet_->tick(nowS_);
    const double s = secondsSince(start);
    nowS_ += tickS_;
    ++ticks_;
    return s;
  }

  /// Stop the fleet (final checkpoints) and judge every session's last fix.
  struct Verdict {
    std::vector<double> errorsCm;
    size_t withoutFix = 0;
    uint64_t digest = 0;
  };
  Verdict finish(double plantErrorM) {
    fleet_->shutdown(nowS_);
    Verdict v;
    capture::Fnv1a h;
    h.u64(attempts_);
    h.u64(eventDigest_.value());
    for (size_t i = 0; i < inputs_.size(); ++i) {
      const runtime::Supervisor* sup = fleet_->supervisor(sessionName(i));
      const core::FixRecord fix = sup->makeCheckpoint(nowS_).lastFix;
      h.u64(fix.valid ? 1 : 0);
      h.f64(fix.x);
      h.f64(fix.y);
      h.f64(fix.confidence);
      if (!fix.valid) {
        ++v.withoutFix;
        continue;
      }
      const double dx = fix.x + plantErrorM - inputs_[i].truth.x;
      const double dy = fix.y - inputs_[i].truth.y;
      v.errorsCm.push_back(std::hypot(dx, dy) * 100.0);
    }
    v.digest = h.value();
    return v;
  }

  uint64_t reportsDelivered() const {
    uint64_t n = 0;
    for (const auto& t : transports_) n += t->framesDelivered();
    return n;
  }

  runtime::FleetManager& fleet() { return *fleet_; }
  const std::vector<size_t>& fixedThisTick() const { return fixedThisTick_; }
  size_t eventsThisTick() const { return eventsThisTick_; }
  uint64_t attempts() const { return attempts_; }
  uint64_t failures() const { return failures_; }
  uint64_t notReady() const { return notReady_; }
  uint64_t ticks() const { return ticks_; }
  uint64_t eventDigest() const { return eventDigest_.value(); }

 private:
  void onFix(const runtime::FleetFixEvent& ev) {
    const size_t i = std::stoul(ev.name.substr(1));
    ++attempts_;
    ++eventsThisTick_;
    eventDigest_.u64(i);
    eventDigest_.f64(ev.dueS);
    eventDigest_.f64(ev.nowS);
    eventDigest_.u64(ev.ok ? 1 : 0);
    if (ev.ok) {
      hadFix_[i] = true;
      fixedThisTick_.push_back(i);
    } else if (hadFix_[i]) {
      ++failures_;  // a session that could fix no longer can
    } else {
      ++notReady_;  // still acquiring its first spin
    }
  }

  const std::vector<SessionInput>& inputs_;
  double tickS_;
  double endS_;
  double nowS_ = 0.0;
  uint64_t ticks_ = 0;
  std::vector<bool> hadFix_;
  std::vector<std::shared_ptr<capture::ReplayTransport>> transports_;
  std::unique_ptr<runtime::FleetManager> fleet_;
  std::vector<size_t> fixedThisTick_;
  size_t eventsThisTick_ = 0;
  uint64_t attempts_ = 0;
  uint64_t failures_ = 0;
  uint64_t notReady_ = 0;
  capture::Fnv1a eventDigest_;
};

/// A fleet fix captured for the decomposed pass: the session's calibration
/// state right after the fleet fixed from it, and what the fleet answered.
struct FixSample {
  size_t session = 0;
  double timeS = 0.0;
  core::CalibrationCheckpoint checkpoint;
};

/// Epoch-0 digests are written per workload and seed; the other fleet
/// workload's digest, when present, must match (pool/inline parity).
std::string digestPath(const Options& o, const std::string& workload) {
  return o.outDir + "/digests/" + workload + "-seed" +
         std::to_string(o.seed) + (o.tiny ? "-tiny" : "") + ".txt";
}

}  // namespace

RunResult runFleet(const Options& options, size_t workerThreads) {
  const FleetSizes sizes = fleetSizes(options.tiny);
  RunResult result;
  MetricSheet sheet;
  const std::string scratch = options.outDir + "/tmp-" + options.workload +
                              "-" + std::to_string(::getpid());
  std::filesystem::create_directories(scratch + "/ckpt");
  const runtime::FleetConfig baseConfig =
      fleetConfig(sizes, workerThreads, scratch + "/ckpt");

  // Set-up: scene, epoch-0 captures, fleet construction and registration.
  // Repeated; the median is reported.
  std::vector<double> setupTimes;
  FleetScene scene;
  std::vector<SessionInput> inputs;
  std::unique_ptr<EpochRun> run;
  for (int rep = 0; rep < 3; ++rep) {
    run.reset();
    const auto start = Clock::now();
    FleetScene s = makeScene(options.seed, sizes);
    std::vector<SessionInput> in =
        makeEpochInputs(s, options.seed, 0, sizes);
    scene = std::move(s);
    inputs = std::move(in);
    run = std::make_unique<EpochRun>(baseConfig, scene, inputs, sizes.tickS,
                                     nullptr);
    setupTimes.push_back(secondsSince(start));
  }
  sheet.set("setup_s", median(setupTimes));

  // A request is a fix: its host latency is the duration of the tick that
  // serviced it (the coordinator has the fix when tick() returns).  Ticks
  // that service no fix count in the throughput, not in the latency.
  std::vector<double> fixLatencyMs;
  std::vector<double> tickMs;
  std::vector<double> idleTickMs;
  std::vector<double> fixTickMs;
  double tickSeconds = 0.0;
  const auto recordTick = [&](const EpochRun& r, double s) {
    tickSeconds += s;
    tickMs.push_back(s * 1e3);
    (r.eventsThisTick() == 0 ? idleTickMs : fixTickMs).push_back(s * 1e3);
    fixLatencyMs.insert(fixLatencyMs.end(), r.eventsThisTick(), s * 1e3);
  };
  std::vector<double> epochReportsPerS;  // one throughput per whole epoch
  double epochStartTickS = 0.0;
  const auto countReports = [&](const EpochRun& r) {
    epochReportsPerS.push_back(static_cast<double>(r.reportsDelivered()) /
                               (tickSeconds - epochStartTickS));
    epochStartTickS = tickSeconds;
  };
  uint64_t epoch0Digest = 0;
  const auto judgeEpoch = [&](EpochRun& r, uint64_t epoch) {
    const EpochRun::Verdict v = r.finish(options.plantErrorM);
    size_t far = 0;
    for (double e : v.errorsCm) far += e > kMaxErrorCm ? 1 : 0;
    const double p50 = median(v.errorsCm);
    const double p90 = percentile(v.errorsCm, 90.0);
    // A failed distribution gate fails every fix the epoch ended with.
    const bool spreadOk = p50 <= kMedianErrorCm && p90 <= kP90ErrorCm;
    result.failed += (spreadOk ? far : v.errorsCm.size()) + v.withoutFix;
    const std::string tag = "epoch" + std::to_string(epoch);
    result.gate(tag + ".every_session_fixed", v.withoutFix == 0,
                std::to_string(v.withoutFix) + " sessions without a fix");
    result.gate(tag + ".fix_error_median", p50 <= kMedianErrorCm,
                "median fix error " + std::to_string(p50) + " cm");
    result.gate(tag + ".fix_error_p90", p90 <= kP90ErrorCm,
                "p90 fix error " + std::to_string(p90) + " cm");
    result.gate(tag + ".fix_error_max", far == 0,
                std::to_string(far) + " fixes beyond " +
                    std::to_string(kMaxErrorCm) + " cm");
    if (epoch == 0) {
      epoch0Digest = v.digest;
      sheet.set("accuracy.error_cm_p50", p50);
      sheet.set("accuracy.error_cm_p90", p90);
      result.detail("fix_error_cm_p50", p50);
      result.detail("fix_error_cm_p90", p90);
    }
  };
  uint64_t notReady = 0;
  const auto countFixes = [&](const EpochRun& r) {
    result.attempted += r.attempts();
    result.failed += r.failures();
    notReady += r.notReady();
  };

  // Epoch 0, untraced, to completion (phase A of a traced run).
  const auto measureStart = Clock::now();
  uint64_t deferred = 0;
  uint64_t fixAttemptsA = 0;
  uint64_t ticksA = 0;
  while (!run->done()) recordTick(*run, run->tick());
  countReports(*run);
  deferred = run->fleet().stats().sessionsDeferred;
  fixAttemptsA = run->attempts();
  ticksA = run->ticks();
  const uint64_t eventDigestA = run->eventDigest();
  const double wallA = tickSeconds;
  countFixes(*run);
  judgeEpoch(*run, 0);
  run.reset();

  if (!options.trace) {
    // Further whole epochs while the next one is expected to fit the
    // budget.  The budget is wall time with input generation included, so
    // a faster fleet runs more epochs in the same time, and every run is
    // made of complete epochs (the same mix of idle and fix ticks).
    uint64_t epoch = 1;
    for (;; ++epoch) {
      const double elapsed = secondsSince(measureStart);
      if (elapsed + elapsed / static_cast<double>(epoch) > options.seconds) {
        break;
      }
      inputs = makeEpochInputs(scene, options.seed, epoch, sizes);
      run = std::make_unique<EpochRun>(baseConfig, scene, inputs, sizes.tickS,
                                       nullptr);
      while (!run->done()) recordTick(*run, run->tick());
      countReports(*run);
      countFixes(*run);
      judgeEpoch(*run, epoch);
      run.reset();
    }
    result.detail("epochs", static_cast<double>(epoch));
    sheet.set("request_p50_ms", median(fixLatencyMs));
    sheet.set("request_p90_ms", percentile(fixLatencyMs, 90.0));
    sheet.set("reports_per_s", median(epochReportsPerS));
    std::string perEpoch;
    for (double v : epochReportsPerS) {
      perEpoch += (perEpoch.empty() ? "" : " ") + std::to_string(v);
    }
    result.detail("epoch_reports_per_s", perEpoch);
    result.detail("request_samples", static_cast<double>(fixLatencyMs.size()));
    result.detail("ticks", static_cast<double>(tickMs.size()));
    result.detail("tick_p50_ms", median(tickMs));
    result.detail("tick_p95_ms", percentile(tickMs, 95.0));
    result.detail("fixes_per_s",
                  static_cast<double>(result.attempted) / tickSeconds);
  } else {
    sheet.set("runtime.idle_tick_ms", median(idleTickMs));
    sheet.set("runtime.fix_tick_ms", median(fixTickMs));
    sheet.set("runtime.fixes_per_tick",
              fixTickMs.empty() ? 0.0
                                : static_cast<double>(fixAttemptsA) /
                                      static_cast<double>(fixTickMs.size()));
    sheet.set("runtime.sessions_deferred",
              static_cast<double>(deferred) / static_cast<double>(ticksA));
    sheet.set("runtime.session_ticks_per_s",
              static_cast<double>(ticksA * sizes.sessions - deferred) / wallA);
    sheet.set("runtime.fixes_per_s",
              static_cast<double>(fixAttemptsA) / wallA);

    // B: epoch 0 again, over the same inputs, with the registry attached
    // and a span per tick; fleet fixes are captured (untimed) for the
    // decomposed pass.
    Tracer tracer(true);
    obs::MetricsRegistry registry;
    std::filesystem::remove_all(scratch + "/ckpt");
    std::filesystem::create_directories(scratch + "/ckpt");
    run = std::make_unique<EpochRun>(baseConfig, scene, inputs, sizes.tickS,
                                     &registry);
    std::vector<FixSample> samples;
    double wallB = 0.0;
    uint64_t request = 0;
    while (!run->done()) {
      ScopedSpan span(tracer, "runtime.tick", request++);
      wallB += run->tick();
      span.close();
      for (size_t i : run->fixedThisTick()) {
        const runtime::Supervisor* sup = run->fleet().supervisor(sessionName(i));
        samples.push_back({i, run->nowS(), sup->makeCheckpoint(run->nowS())});
      }
    }
    result.gate("traced_fix_events", run->eventDigest() == eventDigestA,
                "traced epoch's fix events differ from the untraced epoch's");
    sheet.set("obs.trace_overhead_ratio", wallB / wallA);
    const runtime::FleetStats stats = run->fleet().stats();
    sheet.set("checkpoint.writes", static_cast<double>(stats.checkpointWrites) /
                                       static_cast<double>(run->ticks()));
    double shardBytes = 0.0;
    double shardFiles = 0.0;
    for (const auto& entry :
         std::filesystem::directory_iterator(scratch + "/ckpt")) {
      if (entry.path().extension() == ".ckpt") {
        shardBytes += static_cast<double>(entry.file_size());
        shardFiles += 1.0;
      }
    }
    sheet.set("checkpoint.bytes_per_write",
              shardFiles > 0.0 ? shardBytes / shardFiles : 0.0);
    const obs::MetricsSnapshot snap = registry.snapshot();
    if (const obs::HistogramView* h = snap.histogram("span.fix2d")) {
      result.detail("registry.span_fix2d_count", static_cast<double>(h->count));
      result.detail("registry.span_fix2d_sum_s", h->sum);
    }
    result.detail("registry.supervisor_reports_ingested",
                  static_cast<double>(
                      snap.counterValue("supervisor.reports_ingested")));
    run.reset();

    // C: the decomposed pass over the captured fleet fixes, in order, for a
    // third of the budget: preprocess (sort + Hampel, as the supervisor
    // builds observations), the real locator call, its decomposition, the
    // tracker update and a checkpoint save.
    const runtime::SupervisorConfig& sup = baseConfig.supervisor;
    const core::Locator locator(sup.locator);
    const runtime::CheckpointStore store(scratch + "/decomposed.ckpt");
    std::map<size_t, track::Tracker> trackers;
    DecompositionTally tally;
    double preprocessS = 0.0;
    double preprocessRigs = 0.0;
    double kept = 0.0;
    double offered = 0.0;
    double spent = 0.0;
    size_t fleetMatches = 0;
    capture::Fnv1a fixDigests;  // capture::fixDigest of each decomposed fix
    for (size_t k = 0; k < samples.size() && (k == 0 || spent < options.seconds / 3.0);
         ++k) {
      const auto start = Clock::now();
      const FixSample& sample = samples[k];
      const uint64_t req = 1000000 + k;
      ScopedSpan root(tracer, "fleet.fix_decomposed", req);
      std::vector<core::RigObservation> obs;
      for (const auto& [epc, rig] : scene.deployment.rigs) {
        const auto it = sample.checkpoint.tags.find(epc);
        if (it == sample.checkpoint.tags.end() || it->second.snapshots.empty()) {
          continue;
        }
        core::RigObservation o;
        o.rig = rig;
        const auto t0 = Clock::now();
        {
          ScopedSpan span(tracer, "preprocess.hampel_filter", req);
          o.snapshots = it->second.snapshots;
          std::sort(o.snapshots.begin(), o.snapshots.end(),
                    [](const core::Snapshot& a, const core::Snapshot& b) {
                      return a.timeS < b.timeS;
                    });
          if (sup.preprocess.hampelFilter) {
            o.snapshots = core::hampelFilterPhases(
                o.snapshots, sup.preprocess.hampelWindow,
                sup.preprocess.hampelThreshold, sup.preprocess.hampelFloorRad);
          }
        }
        preprocessS += secondsSince(t0);
        preprocessRigs += 1.0;
        offered += static_cast<double>(it->second.snapshots.size());
        kept += static_cast<double>(o.snapshots.size());
        obs.push_back(std::move(o));
      }
      double locatorS = 0.0;
      const core::Result<core::ResilientFix2D> fix = [&] {
        ScopedSpan span(tracer, "locator.try_locate_2d", req);
        const auto t0 = Clock::now();
        auto r = locator.tryLocate2D(obs, sup.health);
        locatorS = secondsSince(t0);
        return r;
      }();
      ScopedSpan decomposed(tracer, "locator.decomposed", req);
      const DecomposedFix parts = decomposeFix(sup.locator, sup.health, obs,
                                               /*threeD=*/false, tracer, req);
      const double childS = tracer.childSeconds(decomposed.id());
      decomposed.close();
      const bool match = fix.hasValue() && parts.ok &&
                         parts.position.x == fix->fix.position.x &&
                         parts.position.y == fix->fix.position.y;
      tally.add(parts, locatorS, childS, match);
      if (fix.hasValue()) {
        fixDigests.u64(capture::fixDigest(*fix));
        const core::FixRecord& fleetFix = sample.checkpoint.lastFix;
        if (fleetFix.x == fix->fix.position.x &&
            fleetFix.y == fix->fix.position.y) {
          ++fleetMatches;
        }
        track::Tracker& tracker =
            trackers.try_emplace(sample.session, sup.tracker).first->second;
        ScopedSpan span(tracer, "track.on_measurement", req);
        tracker.onMeasurement(track::toMeasurement(*fix, sample.timeS));
      }
      {
        ScopedSpan span(tracer, "checkpoint.save", req);
        store.save(sample.checkpoint);
      }
      root.close();
      spent += secondsSince(start);
    }
    const auto totals = tracer.totals();
    tally.fill(sheet, totals);
    sheet.set("preprocess.us_per_rig",
              preprocessRigs > 0.0 ? preprocessS * 1e6 / preprocessRigs : 0.0);
    sheet.set("preprocess.kept_ratio", offered > 0.0 ? kept / offered : 0.0);
    sheet.set("track.update_us", perCall(totals, "track.on_measurement", 1e6));
    sheet.set("checkpoint.save_us", perCall(totals, "checkpoint.save", 1e6));
    result.detail("decomposed_fixes", static_cast<double>(tally.fixes));
    result.detail("decomposed_equals_fleet_fix",
                  static_cast<double>(fleetMatches));
    result.detail("decomposed_fix_digest", hex(fixDigests.value()));
    tracer.write(options.outDir + "/" + options.workload + "-seed" +
                 std::to_string(options.seed) + "-spans.json");
  }

  sheet.set("accuracy.fix_fail_ratio",
            result.attempted == 0
                ? 0.0
                : static_cast<double>(result.failed) /
                      static_cast<double>(result.attempted));

  // Pool/inline parity: the epoch-0 digest must not depend on the worker
  // count, so it must equal the other fleet workload's for this seed.
  std::filesystem::create_directories(options.outDir + "/digests");
  {
    std::ofstream out(digestPath(options, options.workload));
    out << hex(epoch0Digest) << "\n";
  }
  const std::string other =
      options.workload == "fleet_pool" ? "fleet_serve" : "fleet_pool";
  std::ifstream otherIn(digestPath(options, other));
  std::string otherDigest;
  if (otherIn >> otherDigest) {
    result.gate("digest_matches_" + other, otherDigest == hex(epoch0Digest),
                other + " digest " + otherDigest + " != " + hex(epoch0Digest));
  } else {
    result.detail("digest_parity", "unchecked: no " + other + " run yet");
  }
  result.detail("fix_digest", hex(epoch0Digest));
  result.detail("loop", "closed, 1 coordinator");
  result.detail("worker_threads", static_cast<double>(workerThreads));
  result.detail("sessions", static_cast<double>(sizes.sessions));
  result.detail("shards", static_cast<double>(sizes.shards));
  result.detail("fix_attempts_not_ready", static_cast<double>(notReady));
  std::filesystem::remove_all(scratch);
  sheet.set("peak_rss_mb", peakRssMb());
  sheet.emit(result, options.trace);
  return result;
}

}  // namespace perfbench
