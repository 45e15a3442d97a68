// FleetManager containment tests: retry-budget pacing, quarantine
// eject/readmit, admission control, and multi-shard kill -9 + restore.
// The worker-pool parity test runs the same fleet with 0 and 2 worker
// threads and demands identical results -- under `ctest -L tsan` that is
// also the ThreadSanitizer's view of the shard/pool handoff.
#include "runtime/fleet.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/power_profile.hpp"
#include "geom/angles.hpp"
#include "obs/metrics.hpp"
#include "rfid/llrp.hpp"

namespace tagspin::runtime {
namespace {

const rfid::Epc kTag0 = rfid::Epc::forSimulatedTag(0);
const rfid::Epc kTag1 = rfid::Epc::forSimulatedTag(1);

core::DeploymentFile twoRigDeployment() {
  core::DeploymentFile d;
  core::RigSpec rig;
  rig.center = {-0.2, 0.0, 0.0};
  rig.kinematics = {0.10, 0.5, 0.0, geom::kPi / 2.0};
  d.rigs[kTag0] = rig;
  rig.center = {0.2, 0.0, 0.0};
  d.rigs[kTag1] = rig;
  return d;
}

rfid::TagReport report(const rfid::Epc& epc, double t, double phase) {
  rfid::TagReport r;
  r.epc = epc;
  r.timestampS = t;
  r.phaseRad = phase;
  r.rssiDbm = -60.0;
  r.channelIndex = 3;
  r.frequencyHz = 920e6;
  r.antennaPort = 0;
  return r;
}

std::vector<uint8_t> frameWith(int reports, double baseT) {
  rfid::ReportStream batch;
  for (int i = 0; i < reports; ++i) {
    batch.push_back(report(kTag0, baseT + 0.01 * i,
                           geom::wrapTwoPi(0.1 * i)));
  }
  return rfid::llrp::encodeStream(batch);
}

/// Connects instantly, then closes the connection on every poll until
/// healAtS; after healing, delivers `frame` once per (re)connect and idles.
struct FlapTransport final : Transport {
  double healAtS = 1e18;
  std::vector<uint8_t> frame;
  bool connected = false;
  bool delivered = false;

  bool connect(double) override {
    connected = true;
    delivered = false;
    return true;
  }
  TransportRead poll(double nowS) override {
    if (!connected) return {TransportStatus::kClosed, {}};
    if (nowS < healAtS) {
      connected = false;
      return {TransportStatus::kClosed, {}};
    }
    if (!delivered && !frame.empty()) {
      delivered = true;
      return {TransportStatus::kOk, frame};
    }
    return {TransportStatus::kIdle, {}};
  }
  void close() override { connected = false; }
};

/// Every connect attempt fails (a reader that is simply gone).
struct DeadTransport final : Transport {
  bool connect(double) override { return false; }
  TransportRead poll(double) override {
    return {TransportStatus::kClosed, {}};
  }
  void close() override {}
};

/// Delivers one prebuilt frame after a healthy connect, then idles.
struct OneShotTransport final : Transport {
  std::vector<uint8_t> frame;
  bool connected = false;
  bool delivered = false;

  bool connect(double) override {
    connected = true;
    return true;
  }
  TransportRead poll(double) override {
    if (!connected) return {TransportStatus::kClosed, {}};
    if (!delivered && !frame.empty()) {
      delivered = true;
      return {TransportStatus::kOk, frame};
    }
    return {TransportStatus::kIdle, {}};
  }
  void close() override { connected = false; }
};

FleetConfig testFleetConfig() {
  FleetConfig c;
  c.shards = 2;
  c.supervisor.checkpointIntervalS = 0.0;
  c.supervisor.session.noReportTimeoutS = 1e9;  // idle transports are fine
  c.fixIntervalS = 1e9;  // these tests exercise containment, not fixes
  c.checkpointIntervalS = 0.0;
  return c;
}

std::string tempDir(const char* name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(TokenBucket, BurstThenRefillRatePacesAcquisition) {
  TokenBucket bucket(2.0, 4.0);
  int granted = 0;
  for (int i = 0; i < 10; ++i) {
    if (bucket.tryAcquire(0.0)) ++granted;
  }
  EXPECT_EQ(granted, 4);  // the burst, nothing more at t=0

  // Over the next 3 seconds the refill rate is the only supply.
  granted = 0;
  for (double t = 0.1; t <= 3.0 + 1e-9; t += 0.1) {
    if (bucket.tryAcquire(t)) ++granted;
  }
  EXPECT_GE(granted, 5);  // ~2/s * 3s
  EXPECT_LE(granted, 7);
}

TEST(Fleet, AdmissionControlCapsFleetAndRejectsDuplicates) {
  FleetConfig config = testFleetConfig();
  config.maxSessions = 4;  // 2 shards -> 2 sessions per shard
  FleetManager fleet(config, twoRigDeployment());

  const auto factory = [] { return std::make_unique<OneShotTransport>(); };
  EXPECT_TRUE(fleet.registerSession("a", factory));
  EXPECT_TRUE(fleet.registerSession("b", factory));
  EXPECT_FALSE(fleet.registerSession("a", factory));  // duplicate name
  EXPECT_TRUE(fleet.registerSession("c", factory));
  EXPECT_TRUE(fleet.registerSession("d", factory));
  EXPECT_FALSE(fleet.registerSession("e", factory));  // fleet full

  EXPECT_EQ(fleet.sessionCount(), 4u);
  EXPECT_EQ(fleet.stats().admitted, 4u);
  EXPECT_EQ(fleet.stats().admissionRejected, 2u);

  // Placement is least-loaded: both shards got two sessions.
  const auto views = fleet.sessions();
  size_t shard0 = 0;
  for (const auto& v : views) {
    if (v.shard == 0) ++shard0;
  }
  EXPECT_EQ(shard0, 2u);
}

TEST(Fleet, RetryBudgetPacesConnectStormAcrossShard) {
  FleetConfig config = testFleetConfig();
  config.shards = 1;
  config.maxSessions = 8;
  config.retryBudget.tokensPerSecond = 2.0;
  config.retryBudget.burst = 6.0;
  config.supervisor.session.connectTimeoutS = 0.1;
  config.supervisor.session.backoff.baseDelayS = 0.1;
  config.supervisor.session.backoff.maxDelayS = 0.2;
  config.supervisor.session.breaker.failuresToOpen = 1000000;
  FleetManager fleet(config, twoRigDeployment());
  for (int i = 0; i < 8; ++i) {
    fleet.registerSession("dead" + std::to_string(i),
                          [] { return std::make_unique<DeadTransport>(); });
  }

  const double spanS = 10.0;
  for (double t = 0.0; t <= spanS + 1e-9; t += 0.1) fleet.tick(t);

  uint64_t attempts = 0;
  for (size_t i = 0; i < 8; ++i) {
    const Supervisor* sup =
        fleet.supervisor("dead" + std::to_string(i));
    ASSERT_NE(sup, nullptr);
    attempts += sup->session(0).stats().connectAttempts;
  }
  // Supply over the run is one free first attempt per session plus the
  // bucket's burst and refill; every attempt beyond it must have been
  // denied by the gate, not queued up as connect work.
  const double supply =
      8.0 + config.retryBudget.burst +
      config.retryBudget.tokensPerSecond * spanS;
  EXPECT_GT(attempts, 8u);  // the storm did keep retrying
  EXPECT_LE(static_cast<double>(attempts), supply + 1.0);
  EXPECT_GT(fleet.stats().budgetDenied, 0u);
}

TEST(Fleet, QuarantineEjectsFlapperAndReadmitsAfterProbe) {
  FleetConfig config = testFleetConfig();
  config.shards = 1;
  config.maxSessions = 2;
  config.retryBudget.tokensPerSecond = 100.0;  // decouple budget from flaps
  config.retryBudget.burst = 100.0;
  config.supervisor.session.backoff.baseDelayS = 0.1;
  config.supervisor.session.backoff.maxDelayS = 0.3;
  config.supervisor.session.breaker.failuresToOpen = 1000000;
  config.quarantine.flapThreshold = 6;
  config.quarantine.flapWindowS = 30.0;
  config.quarantine.probeBaseS = 2.0;
  config.quarantine.probeWindowS = 1.0;
  FleetManager fleet(config, twoRigDeployment());

  FlapTransport* flappy = nullptr;
  fleet.registerSession("flappy", [&flappy] {
    auto t = std::make_unique<FlapTransport>();
    t->healAtS = 8.0;
    t->frame = frameWith(4, 0.0);
    flappy = t.get();
    return t;
  });
  fleet.registerSession("steady", [] {
    auto t = std::make_unique<OneShotTransport>();
    t->frame = frameWith(4, 10.0);
    return t;
  });

  double ejectedAtS = -1.0;
  double readmittedAtS = -1.0;
  for (double t = 0.0; t <= 30.0 + 1e-9; t += 0.1) {
    fleet.tick(t);
    const auto views = fleet.sessions();
    for (const auto& v : views) {
      if (v.name != "flappy") continue;
      if (v.quarantined && ejectedAtS < 0.0) ejectedAtS = t;
      if (!v.quarantined && ejectedAtS >= 0.0 && readmittedAtS < 0.0) {
        readmittedAtS = t;
      }
    }
  }

  EXPECT_GT(fleet.stats().ejections, 0u);
  EXPECT_GT(fleet.stats().readmissions, 0u);
  EXPECT_GT(fleet.stats().probes, 0u);
  ASSERT_GE(ejectedAtS, 0.0);
  ASSERT_GE(readmittedAtS, 0.0);
  EXPECT_LT(ejectedAtS, 8.0);        // ejected while still flapping
  EXPECT_GT(readmittedAtS, 8.0);     // readmitted only after healing
  EXPECT_EQ(fleet.stats().quarantinedNow, 0u);

  // The readmitted session is live again and its frame was ingested.
  const Supervisor* sup = fleet.supervisor("flappy");
  ASSERT_NE(sup, nullptr);
  EXPECT_EQ(sup->session(0).state(), SessionState::kStreaming);
  EXPECT_EQ(sup->tagSnapshotCount(kTag0), 4u);

  // The healthy neighbor never noticed: no flaps, stream intact.
  const Supervisor* steady = fleet.supervisor("steady");
  ASSERT_NE(steady, nullptr);
  EXPECT_EQ(steady->session(0).stats().disconnects, 0u);
  EXPECT_EQ(steady->tagSnapshotCount(kTag0), 4u);
}

TEST(Fleet, MultiShardKillAndRestoreRecoversEverySession) {
  const std::string dir = tempDir("tagspin_fleet_restore");
  FleetConfig config = testFleetConfig();
  config.shards = 2;
  config.maxSessions = 4;
  config.checkpointDir = dir;

  const auto makeFactory = [](int reports, double baseT) {
    return [reports, baseT] {
      auto t = std::make_unique<OneShotTransport>();
      t->frame = frameWith(reports, baseT);
      return t;
    };
  };

  {
    FleetManager fleet(config, twoRigDeployment());
    for (int i = 0; i < 4; ++i) {
      fleet.registerSession("s" + std::to_string(i),
                            makeFactory(i + 1, 10.0 * i));
    }
    fleet.tick(0.0);
    fleet.tick(0.1);
    for (int i = 0; i < 4; ++i) {
      const Supervisor* sup = fleet.supervisor("s" + std::to_string(i));
      ASSERT_NE(sup, nullptr);
      ASSERT_EQ(sup->tagSnapshotCount(kTag0), static_cast<size_t>(i + 1));
    }
    fleet.shutdown(0.2);  // writes one batched checkpoint per shard
  }  // "kill -9": the whole fleet object is gone

  ASSERT_TRUE(std::filesystem::exists(dir + "/fleet_shard0.ckpt"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/fleet_shard1.ckpt"));

  FleetManager resumed(config, twoRigDeployment());
  for (int i = 0; i < 4; ++i) {
    // Fresh, empty transports: restored state must come from the files.
    resumed.registerSession("s" + std::to_string(i), makeFactory(0, 0.0));
  }
  EXPECT_EQ(resumed.restore(), 4u);
  for (int i = 0; i < 4; ++i) {
    const Supervisor* sup = resumed.supervisor("s" + std::to_string(i));
    ASSERT_NE(sup, nullptr);
    EXPECT_EQ(sup->tagSnapshotCount(kTag0), static_cast<size_t>(i + 1))
        << "session s" << i << " lost state across the restart";
  }
  EXPECT_EQ(resumed.stats().checkpointFailures, 0u);

  std::filesystem::remove_all(dir);
}

TEST(Fleet, ShardCheckpointWritesAreTimedUnderCheckpointSpan) {
  // In fleet mode the shard writes the checkpoints, not the supervisors;
  // every write must still land in span.checkpoint_write.
  const std::string dir = tempDir("tagspin_fleet_checkpoint_span");
  obs::MetricsRegistry registry;
  FleetConfig config = testFleetConfig();
  config.shards = 2;
  config.maxSessions = 4;
  config.checkpointDir = dir;
  config.checkpointIntervalS = 0.5;
  config.metrics = &registry;
  {
    FleetManager fleet(config, twoRigDeployment());
    for (int i = 0; i < 4; ++i) {
      fleet.registerSession("s" + std::to_string(i), [i] {
        auto t = std::make_unique<OneShotTransport>();
        t->frame = frameWith(i + 1, 10.0 * i);
        return t;
      });
    }
    for (int tick = 0; tick <= 30; ++tick) fleet.tick(0.1 * tick);
    fleet.shutdown(3.1);
  }
  const uint64_t writes = registry.counter("fleet.checkpoint_writes")->value();
  EXPECT_GE(writes, 8u);  // ~5 per shard on the interval, +1 at shutdown
  EXPECT_EQ(registry.histogram("span.checkpoint_write")->count(), writes);
  std::filesystem::remove_all(dir);
}

TEST(Fleet, EveryTickIsTimedUnderTickSpan) {
  obs::MetricsRegistry registry;
  FleetConfig config = testFleetConfig();
  config.shards = 2;
  config.maxSessions = 4;
  config.metrics = &registry;
  FleetManager fleet(config, twoRigDeployment());
  for (int i = 0; i < 4; ++i) {
    fleet.registerSession("s" + std::to_string(i), [i] {
      auto t = std::make_unique<OneShotTransport>();
      t->frame = frameWith(i + 1, 10.0 * i);
      return t;
    });
  }
  constexpr int kTicks = 25;
  for (int tick = 0; tick < kTicks; ++tick) fleet.tick(0.1 * tick);
  const obs::Histogram* span = registry.histogram("span.tick");
  EXPECT_EQ(span->count(), static_cast<uint64_t>(kTicks));
  EXPECT_GT(span->sum(), 0.0);
}

/// Connects instantly, idles until deliverAtS, then delivers one prebuilt
/// frame and idles forever.  Lets a test measure the fleet's pre-growth
/// memory footprint before the frame lands.
struct DelayedTransport final : Transport {
  double deliverAtS = 0.0;
  std::vector<uint8_t> frame;
  bool connected = false;
  bool delivered = false;

  bool connect(double) override {
    connected = true;
    return true;
  }
  TransportRead poll(double nowS) override {
    if (!connected) return {TransportStatus::kClosed, {}};
    if (!delivered && nowS >= deliverAtS && !frame.empty()) {
      delivered = true;
      return {TransportStatus::kOk, frame};
    }
    return {TransportStatus::kIdle, {}};
  }
  void close() override { connected = false; }
};

/// One shard, two sessions: a "grower" whose frame lands at t=1.0 and blows
/// up its snapshot store, and a small "steady" neighbor.  Shared topology
/// for the memory-budget tests below.
FleetConfig memFleetConfig() {
  FleetConfig config = testFleetConfig();
  config.shards = 1;
  config.maxSessions = 2;
  // Small ingest queues so the footprint is dominated by snapshot growth,
  // not by fixed ring capacity.
  config.supervisor.session.queueCapacity = 32;
  return config;
}

void registerMemFleetSessions(FleetManager& fleet) {
  fleet.registerSession("grower", [] {
    auto t = std::make_unique<DelayedTransport>();
    t->deliverAtS = 1.0;
    t->frame = frameWith(600, 0.0);
    return t;
  });
  fleet.registerSession("steady", [] {
    auto t = std::make_unique<OneShotTransport>();
    t->frame = frameWith(4, 10.0);
    return t;
  });
}

TEST(Fleet, MemoryBudgetTrimsUnderPressureWithoutLosingSessions) {
  core::PosixMemEnv env;

  // Calibration pass: same fleet, unlimited budget.  Measure the footprint
  // before and after the grower's frame lands so the budget for the real
  // pass can be pinned strictly between the two.
  uint64_t baseUsed = 0;
  uint64_t peakUsed = 0;
  {
    FleetConfig config = memFleetConfig();
    config.mem = &env;
    FleetManager fleet(config, twoRigDeployment());
    registerMemFleetSessions(fleet);
    for (double t = 0.0; t <= 0.5 + 1e-9; t += 0.1) fleet.tick(t);
    baseUsed = fleet.stats().memUsedBytes;
    for (double t = 0.6; t <= 3.0 + 1e-9; t += 0.1) fleet.tick(t);
    peakUsed = fleet.stats().memUsedBytes;
    // Accounting is on, and fault-free: bytes tracked, nothing denied.
    EXPECT_GT(baseUsed, 0u);
    EXPECT_EQ(fleet.stats().memDeniedReserves, 0u);
    EXPECT_EQ(fleet.stats().memTrims, 0u);
  }
  ASSERT_GT(peakUsed, baseUsed) << "the grower's frame never grew anything";

  // Budgeted pass: room for the base footprint plus half the growth.  The
  // grower's reservation must be denied at some point; the fleet's answer
  // is decimation (trim), never a crash and never collateral damage.
  const uint64_t budget = baseUsed + (peakUsed - baseUsed) / 2;
  FleetConfig config = memFleetConfig();
  config.mem = &env;
  config.memBudgetPerShardBytes = budget;
  FleetManager fleet(config, twoRigDeployment());
  registerMemFleetSessions(fleet);
  for (double t = 0.0; t <= 3.0 + 1e-9; t += 0.1) {
    fleet.tick(t);
    // Hard invariant, every tick: the arena never exceeds its budget.
    ASSERT_LE(fleet.stats().memUsedBytes, budget) << "at t=" << t;
  }

  const FleetStats stats = fleet.stats();
  EXPECT_GT(stats.memDeniedReserves, 0u);
  EXPECT_GT(stats.memTrims, 0u);
  EXPECT_EQ(stats.badAllocCaught, 0u);
  EXPECT_LE(stats.memPeakBytes, budget);
  EXPECT_GE(stats.memPeakBytes, stats.memUsedBytes);

  // No session was lost, and the pressure stayed contained to the grower:
  // the steady neighbor keeps its stream and is never quarantined.
  EXPECT_EQ(fleet.sessionCount(), 2u);
  for (const auto& v : fleet.sessions()) {
    if (v.name == "steady") EXPECT_FALSE(v.quarantined);
  }
  const Supervisor* steady = fleet.supervisor("steady");
  ASSERT_NE(steady, nullptr);
  EXPECT_EQ(steady->tagSnapshotCount(kTag0), 4u);
  EXPECT_EQ(steady->session(0).state(), SessionState::kStreaming);

  // The trims landed on the grower: its snapshot store was decimated below
  // what the unlimited run kept.
  const Supervisor* grower = fleet.supervisor("grower");
  ASSERT_NE(grower, nullptr);
  EXPECT_LT(grower->tagSnapshotCount(kTag0), 600u);
  EXPECT_GT(grower->tagSnapshotCount(kTag0), 0u);
}

TEST(Fleet, MemoryAccountingOffAndUnlimitedEnvBehaveIdentically) {
  // Three fleets over the same schedule: accounting off (mem = nullptr,
  // budgets 0 -- the pre-seam configuration), and accounting on with an
  // unlimited PosixMemEnv.  The seam must be a pure observer: identical
  // session outcomes, and the off-fleet reports all-zero memory counters.
  const auto run = [](core::MemEnv* mem) {
    FleetConfig config = memFleetConfig();
    config.mem = mem;
    auto fleet = std::make_unique<FleetManager>(config, twoRigDeployment());
    registerMemFleetSessions(*fleet);
    for (double t = 0.0; t <= 3.0 + 1e-9; t += 0.1) fleet->tick(t);
    return fleet;
  };

  core::PosixMemEnv env;
  const auto off = run(nullptr);
  const auto on = run(&env);

  const FleetStats offStats = off->stats();
  EXPECT_EQ(offStats.memUsedBytes, 0u);
  EXPECT_EQ(offStats.memPeakBytes, 0u);
  EXPECT_EQ(offStats.memDeniedReserves, 0u);
  EXPECT_EQ(offStats.memTrims, 0u);
  EXPECT_EQ(offStats.memEjections, 0u);
  EXPECT_EQ(off->memShedLevel(), ShedLevel::kNone);

  const FleetStats onStats = on->stats();
  EXPECT_GT(onStats.memUsedBytes, 0u);
  EXPECT_EQ(onStats.memDeniedReserves, 0u);
  EXPECT_EQ(on->memShedLevel(), ShedLevel::kNone);

  const auto offViews = off->sessions();
  const auto onViews = on->sessions();
  ASSERT_EQ(offViews.size(), onViews.size());
  for (size_t i = 0; i < offViews.size(); ++i) {
    EXPECT_EQ(offViews[i].name, onViews[i].name);
    EXPECT_EQ(offViews[i].state, onViews[i].state) << i;
    EXPECT_EQ(offViews[i].quarantined, onViews[i].quarantined) << i;
    EXPECT_EQ(offViews[i].fixes, onViews[i].fixes) << i;
  }
  for (const char* name : {"grower", "steady"}) {
    const Supervisor* a = off->supervisor(name);
    const Supervisor* b = on->supervisor(name);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->tagSnapshotCount(kTag0), b->tagSnapshotCount(kTag0)) << name;
  }
}

/// Run a small mixed fleet (healthy + dead + flapping) and return the
/// per-session views plus aggregate stats.
std::pair<std::vector<FleetManager::SessionView>, FleetStats> runMixedFleet(
    size_t workerThreads) {
  FleetConfig config = testFleetConfig();
  config.shards = 4;
  config.maxSessions = 12;
  config.workerThreads = workerThreads;
  config.supervisor.session.connectTimeoutS = 0.1;
  config.supervisor.session.backoff.baseDelayS = 0.1;
  config.supervisor.session.backoff.maxDelayS = 0.3;
  config.supervisor.session.breaker.failuresToOpen = 1000000;
  FleetManager fleet(config, twoRigDeployment());
  for (int i = 0; i < 12; ++i) {
    const std::string name = "m" + std::to_string(i);
    if (i % 3 == 0) {
      fleet.registerSession(name, [] {
        return std::make_unique<DeadTransport>();
      });
    } else if (i % 3 == 1) {
      fleet.registerSession(name, [i] {
        auto t = std::make_unique<FlapTransport>();
        t->healAtS = 4.0;
        t->frame = frameWith(3, 5.0 * i);
        return t;
      });
    } else {
      fleet.registerSession(name, [i] {
        auto t = std::make_unique<OneShotTransport>();
        t->frame = frameWith(5, 5.0 * i);
        return t;
      });
    }
  }
  for (double t = 0.0; t <= 12.0 + 1e-9; t += 0.1) fleet.tick(t);
  return {fleet.sessions(), fleet.stats()};
}

TEST(Fleet, ConcurrentProfileEvaluationMatchesSerial) {
  // Pool workers evaluate power profiles concurrently (one profile per fix,
  // or one shared profile); the evaluation's scratch buffers must not be
  // shared between threads.  Under `ctest -L tsan` this is the race check.
  std::vector<core::Snapshot> snaps;
  for (int i = 0; i < 300; ++i) {
    core::Snapshot s;
    s.timeS = 0.05 * i;
    s.phaseRad = geom::wrapTwoPi(0.37 * i + 0.01 * i * i);
    s.lambdaM = 0.32 + 0.001 * (i % 3);
    s.channel = i % 3;
    snaps.push_back(s);
  }
  const core::RigKinematics kin{0.1, 0.5, 0.0, geom::kPi / 2.0};
  const core::PowerProfile shared(snaps, kin, {});
  const std::vector<double> serial = shared.sampleAzimuth(360);
  std::vector<std::vector<double>> results(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      const core::PowerProfile own(snaps, kin, {});
      std::vector<double> mine(serial.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        const double phi = geom::kTwoPi * static_cast<double>(i) / 360.0;
        mine[i] = (i + t) % 2 == 0 ? shared.evaluate(phi) : own.evaluate(phi);
        (void)own.weightStats(phi);
      }
      results[t] = std::move(mine);
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::vector<double>& r : results) {
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(r[i], shared.evaluate(geom::kTwoPi *
                                      static_cast<double>(i) / 360.0));
    }
  }
}

TEST(Fleet, WorkerPoolMatchesInlineExecutionExactly) {
  const auto [inlineViews, inlineStats] = runMixedFleet(0);
  const auto [pooledViews, pooledStats] = runMixedFleet(2);

  ASSERT_EQ(inlineViews.size(), pooledViews.size());
  for (size_t i = 0; i < inlineViews.size(); ++i) {
    EXPECT_EQ(inlineViews[i].name, pooledViews[i].name);
    EXPECT_EQ(inlineViews[i].shard, pooledViews[i].shard);
    EXPECT_EQ(inlineViews[i].state, pooledViews[i].state) << i;
    EXPECT_EQ(inlineViews[i].quarantined, pooledViews[i].quarantined) << i;
    EXPECT_EQ(inlineViews[i].flapEvents, pooledViews[i].flapEvents) << i;
  }
  EXPECT_EQ(inlineStats.ejections, pooledStats.ejections);
  EXPECT_EQ(inlineStats.readmissions, pooledStats.readmissions);
  EXPECT_EQ(inlineStats.budgetDenied, pooledStats.budgetDenied);
  EXPECT_EQ(inlineStats.sessionsDeferred, pooledStats.sessionsDeferred);
}

}  // namespace
}  // namespace tagspin::runtime
