#include "eval/crash.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <numbers>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>

#include "capture/digest.hpp"
#include "capture/format.hpp"
#include "capture/writer.hpp"
#include "core/io_env.hpp"
#include "core/serialization.hpp"
#include "runtime/checkpoint.hpp"
#include "sim/rng.hpp"

namespace tagspin::eval {
namespace {

// All workload paths are bare names: their shared parent is "." and one
// syncDir(".") seals every directory mutation, exactly like a checkpoint
// directory on a rig.
constexpr const char* kCheckpointPath = "calib.ckpt";
constexpr const char* kCapturePath = "session.tspc";

std::string fleetPath(size_t shard) {
  return "fleet_shard" + std::to_string(shard) + ".ckpt";
}

// ---------------------------------------------------------------------------
// Workload inputs

core::CalibrationCheckpoint makeCheckpoint(uint64_t sequence) {
  core::CalibrationCheckpoint ckpt;
  ckpt.sequence = sequence;
  ckpt.wallTimeS = 10.0 * static_cast<double>(sequence);
  ckpt.lastReportTimestampS = ckpt.wallTimeS - 0.5;
  core::TagCalibrationProgress progress;
  for (uint64_t i = 0; i < sequence % 3 + 2; ++i) {
    core::Snapshot s;
    s.timeS = 0.5 * static_cast<double>(i);
    s.phaseRad = 0.25 * static_cast<double>(i + sequence);
    s.lambdaM = 0.328;
    s.channel = static_cast<int>(i % 3);
    s.rssiDbm = -60.0 - static_cast<double>(i);
    progress.snapshots.push_back(s);
  }
  ckpt.tags[rfid::Epc::forSimulatedTag(0)] = progress;
  return ckpt;
}

/// Quantization-exact reports (every field on the wire grid), so strict
/// decode equality is byte-for-byte, not epsilon.
capture::TimedStream quantizedStream(size_t n, int64_t startUs) {
  capture::TimedStream out;
  for (size_t i = 0; i < n; ++i) {
    capture::TimedReport tr;
    tr.report.epc = rfid::Epc::forSimulatedTag(static_cast<uint32_t>(i % 3));
    const int64_t us = startUs + static_cast<int64_t>(i) * 2500;
    tr.report.timestampS = static_cast<double>(us) / 1e6;
    tr.report.phaseRad = static_cast<double>((i * 37) % 4096) / 4096.0 * 2.0 *
                         std::numbers::pi;
    tr.report.rssiDbm =
        static_cast<double>(-6000 - static_cast<int>(i)) / 100.0;
    tr.report.channelIndex = static_cast<int>(i % 16);
    tr.report.frequencyHz = static_cast<double>(902750 + 500 * (i % 16)) * 1e3;
    tr.report.antennaPort = static_cast<int>(i % 4);
    tr.deliveryS = static_cast<double>(us + 800) / 1e6;
    out.push_back(tr);
  }
  return out;
}

/// `got` must be exactly the first got.size() reports of `want`.
std::optional<std::string> comparePrefix(const capture::TimedStream& want,
                                         const capture::TimedStream& got) {
  if (got.size() > want.size()) {
    return "decoded " + std::to_string(got.size()) + " reports, only " +
           std::to_string(want.size()) + " were ever appended";
  }
  const capture::TimedStream head(want.begin(), want.begin() + got.size());
  if (capture::streamDigest(capture::stripTiming(head)) !=
      capture::streamDigest(capture::stripTiming(got))) {
    return "decoded reports diverge from the appended stream";
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].deliveryS != head[i].deliveryS) {
      return "delivery timing diverges at report " + std::to_string(i);
    }
  }
  return std::nullopt;
}

/// Strictly-valid prefix of a capture image, decoded (empty on a file whose
/// header never survived).
capture::TimedStream decodeStrictPrefix(const std::string& bytesStr) {
  const std::vector<uint8_t> bytes(bytesStr.begin(), bytesStr.end());
  const capture::PrefixScan scan = capture::scanValidPrefix(bytes);
  if (!scan.headerValid) return {};
  return capture::decodeCapture(std::span(bytes.data(), scan.validBytes));
}

// ---------------------------------------------------------------------------
// The old-or-new oracle for durably-replaced files.
//
// The acceptable set holds the last acked contents plus every in-flight
// candidate whose save was started but never acknowledged (a crash can land
// before or after the rename, so both are legal).  An acked save collapses
// the set to exactly the new contents; until the first ack the file may
// also be missing entirely.

class DurableFileOracle {
 public:
  void beginSave(const std::string& framed) {
    acceptable_.insert(framed);
    lastAcked_ = false;
  }
  void ackSave(const std::string& framed) {
    acceptable_.clear();
    acceptable_.insert(framed);
    missingOk_ = false;
    lastAcked_ = true;
  }
  bool lastAcked() const { return lastAcked_; }

  std::optional<std::string> checkBytes(const sim::DiskImage& image,
                                        const std::string& path) const {
    const auto it = image.find(path);
    if (it == image.end()) {
      if (!missingOk_) return path + ": durably acked file is missing";
      return std::nullopt;
    }
    if (acceptable_.count(it->second) == 0) {
      return path + ": contents (" + std::to_string(it->second.size()) +
             " bytes) are bit-identical to neither the old checkpoint nor "
             "any in-flight new one";
    }
    return std::nullopt;
  }

  /// Only meaningful on a live (non-crashed) image: after an acked save the
  /// tmp was consumed by the rename, whatever faults earlier saves hit.
  std::optional<std::string> checkNoTmpLitter(const sim::DiskImage& image,
                                              const std::string& path) const {
    if (lastAcked_ && image.count(path + ".tmp") > 0) {
      return path + ".tmp: litter left behind after an acked save";
    }
    return std::nullopt;
  }

 private:
  std::set<std::string> acceptable_;
  bool missingOk_ = true;
  bool lastAcked_ = false;
};

// ---------------------------------------------------------------------------
// Workloads.  One instance = one execution: run() drives the real writers
// against the injected environment while the oracle tracks what was acked;
// check() mounts a post-crash image and runs *real* recovery against it.
// check() must be idempotent -- the explorer calls it once per persistence
// variant of the same crash.

class WorkloadRun {
 public:
  virtual ~WorkloadRun() = default;
  virtual void run(sim::SimIoEnv& env) = 0;
  virtual std::optional<std::string> check(
      const sim::DiskImage& image) const = 0;
  /// Stronger check for runs that completed without a power cut.
  virtual std::optional<std::string> checkLive(
      const sim::DiskImage& image) const {
    return check(image);
  }
};

using WorkloadFactory = std::function<std::unique_ptr<WorkloadRun>()>;

class CheckpointWorkload final : public WorkloadRun {
 public:
  explicit CheckpointWorkload(size_t saves) : saves_(saves) {}

  void run(sim::SimIoEnv& env) override {
    runtime::CheckpointStore store(kCheckpointPath, &env);
    for (size_t i = 0; i < saves_; ++i) {
      const core::CalibrationCheckpoint ckpt = makeCheckpoint(i + 1);
      const std::string framed =
          runtime::CheckpointStore::frame(core::checkpointToString(ckpt));
      oracle_.beginSave(framed);
      try {
        store.save(ckpt);
      } catch (const std::exception&) {
        continue;  // injected fault; the supervisor retries next interval
      }
      oracle_.ackSave(framed);
    }
  }

  std::optional<std::string> check(const sim::DiskImage& image) const override {
    if (auto bad = oracle_.checkBytes(image, kCheckpointPath)) return bad;
    if (image.count(kCheckpointPath) > 0) {
      sim::SimIoEnv recovery(image);
      const runtime::CheckpointStore store(kCheckpointPath, &recovery);
      if (!store.load().hasValue()) {
        return std::string(kCheckpointPath) +
               ": recovery load failed on an old-or-new image";
      }
    }
    return std::nullopt;
  }

  std::optional<std::string> checkLive(
      const sim::DiskImage& image) const override {
    if (auto bad = check(image)) return bad;
    return oracle_.checkNoTmpLitter(image, kCheckpointPath);
  }

 private:
  size_t saves_;
  DurableFileOracle oracle_;
};

class CaptureWorkload final : public WorkloadRun {
 public:
  /// `base` is the strictly-valid decoded prefix of the starting image
  /// (empty for a fresh file); `fileAlreadyDurable` says the directory
  /// entry predates this run.
  CaptureWorkload(const CrashExploreConfig& config,
                  capture::TimedStream toAppend, capture::TimedStream base,
                  bool fileAlreadyDurable)
      : config_(config),
        toAppend_(std::move(toAppend)),
        base_(std::move(base)),
        fileDurable_(fileAlreadyDurable),
        ackedReports_(base_.size()) {}

  void run(sim::SimIoEnv& env) override {
    capture::CaptureWriterConfig wc;
    wc.chunkReports = config_.chunkReports;
    wc.fsyncEveryChunks = config_.fsyncEveryChunks;
    wc.io = &env;
    // Local on purpose: if a power cut unwinds out of here, the writer's
    // destructor must run while `env` is still alive.
    capture::CaptureWriter writer(kCapturePath, wc);
    fileDurable_ = true;  // ctor sealed the entry (header fsync + dirsync)
    uint64_t lastFsyncs = writer.stats().fsyncs;
    for (const capture::TimedReport& tr : toAppend_) {
      appended_.push_back(tr);
      writer.append(tr.report, tr.deliveryS);
      // An fsync inside append covers every report framed before it.
      if (writer.stats().fsyncs > lastFsyncs) {
        lastFsyncs = writer.stats().fsyncs;
        ackedReports_ = base_.size() + writer.stats().reportsWritten;
      }
    }
    writer.close();
    ackedReports_ = base_.size() + writer.stats().reportsWritten;
  }

  std::optional<std::string> check(const sim::DiskImage& image) const override {
    capture::TimedStream expected = base_;
    expected.insert(expected.end(), appended_.begin(), appended_.end());

    const auto it = image.find(kCapturePath);
    if (it == image.end()) {
      if (fileDurable_ || ackedReports_ > 0) {
        return std::string(kCapturePath) +
               ": capture vanished after its creation was dirsynced";
      }
      return std::nullopt;
    }
    const std::vector<uint8_t> bytes(it->second.begin(), it->second.end());

    capture::TimedStream prefix;
    try {
      capture::CaptureStats stats;
      (void)capture::decodeCaptureTolerant(bytes, &stats);  // must not throw
      prefix = decodeStrictPrefix(it->second);
    } catch (const std::exception& e) {
      return std::string("recovery decode failed: ") + e.what();
    }
    if (prefix.size() < ackedReports_) {
      return "fsync-acked reports lost: decoded " +
             std::to_string(prefix.size()) + " < acked " +
             std::to_string(ackedReports_);
    }
    if (auto bad = comparePrefix(expected, prefix)) return bad;

    // Reopen on the crashed disk, append, close: the real recovery path
    // must resume without corrupting the chunks that survived.
    const capture::TimedStream extra =
        quantizedStream(config_.reopenExtraReports, 900'000'000);
    sim::SimIoEnv recovery(image);
    try {
      capture::CaptureWriterConfig wc;
      wc.chunkReports = config_.chunkReports;
      wc.fsyncEveryChunks = 1;
      wc.io = &recovery;
      capture::CaptureWriter writer(kCapturePath, wc);
      for (const capture::TimedReport& tr : extra) {
        writer.append(tr.report, tr.deliveryS);
      }
      writer.close();
    } catch (const std::exception& e) {
      return std::string("reopen on crashed image failed: ") + e.what();
    }
    const sim::DiskImage after = recovery.liveImage();
    capture::TimedStream expect2 = prefix;
    expect2.insert(expect2.end(), extra.begin(), extra.end());
    try {
      const std::vector<uint8_t> finalBytes(after.at(kCapturePath).begin(),
                                            after.at(kCapturePath).end());
      const capture::TimedStream finalStream =
          capture::decodeCapture(finalBytes);
      if (finalStream.size() != expect2.size()) {
        return "reopen+extend kept " + std::to_string(finalStream.size()) +
               " reports, want " + std::to_string(expect2.size());
      }
      if (auto bad = comparePrefix(expect2, finalStream)) {
        return "after reopen+extend: " + *bad;
      }
    } catch (const std::exception& e) {
      return std::string("reopen-extended capture failed strict decode: ") +
             e.what();
    }
    return std::nullopt;
  }

 private:
  const CrashExploreConfig& config_;
  capture::TimedStream toAppend_;
  capture::TimedStream base_;
  capture::TimedStream appended_;
  bool fileDurable_;
  size_t ackedReports_;
};

/// The durable-replace recipe under test in the fleet fan-out workload; the
/// broken variant (below) is the planted bug the harness must catch.
using DurableWriteFn = void (*)(core::IoEnv&, const std::string&,
                                const std::string&);

void correctDurableWrite(core::IoEnv& io, const std::string& path,
                         const std::string& contents) {
  core::writeFileDurable(io, path, contents);
}

/// The classic ordering bug: tmp + rename + dirsync but NO data fsync.
/// Survives every process-kill test (the page cache hides it) and loses the
/// file's contents when power dies with the pages still dirty.
void brokenDurableWrite(core::IoEnv& io, const std::string& path,
                        const std::string& contents) {
  const std::string tmp = path + ".tmp";
  const core::IoStatus fd = core::openRetry(io, tmp, core::OpenMode::kTruncate);
  if (!fd.ok()) throw std::runtime_error("broken write: open failed");
  const int handle = static_cast<int>(fd.value);
  core::IoStatus st =
      core::writeAllRetry(io, handle, contents.data(), contents.size());
  if (!st.ok()) {
    io.close(handle);
    io.remove(tmp);
    throw std::runtime_error("broken write: write failed");
  }
  st = io.close(handle);
  if (!st.ok()) {
    io.remove(tmp);
    throw std::runtime_error("broken write: close failed");
  }
  st = io.rename(tmp, path);
  if (!st.ok()) {
    io.remove(tmp);
    throw std::runtime_error("broken write: rename failed");
  }
  st = core::syncDirRetry(io, core::parentDir(path));
  if (!st.ok()) throw std::runtime_error("broken write: dirsync failed");
}

/// Shards x rounds of framed durable writes with the per-shard
/// std::exception catch FleetManager::writeShardCheckpoint uses (disk
/// trouble must not kill the tick).  SimCrash is deliberately not a
/// std::exception, so a power cut is never absorbed by that handler.
class FleetFanoutWorkload final : public WorkloadRun {
 public:
  FleetFanoutWorkload(size_t shards, size_t rounds, DurableWriteFn write)
      : shards_(shards), rounds_(rounds), write_(write), oracles_(shards) {}

  void run(sim::SimIoEnv& env) override {
    for (size_t r = 0; r < rounds_; ++r) {
      for (size_t k = 0; k < shards_; ++k) {
        const std::string payload = "fleet-shard v1\nshard " +
                                    std::to_string(k) + "\nround " +
                                    std::to_string(r) + "\nsessions 0\n";
        const std::string framed = runtime::CheckpointStore::frame(payload);
        oracles_[k].beginSave(framed);
        try {
          write_(env, fleetPath(k), framed);
        } catch (const std::exception&) {
          continue;
        }
        oracles_[k].ackSave(framed);
      }
    }
  }

  std::optional<std::string> check(const sim::DiskImage& image) const override {
    for (size_t k = 0; k < shards_; ++k) {
      const std::string path = fleetPath(k);
      if (auto bad = oracles_[k].checkBytes(image, path)) return bad;
      const auto it = image.find(path);
      if (it != image.end() &&
          !runtime::CheckpointStore::unframe(it->second).hasValue()) {
        return path + ": recovery unframe failed on an old-or-new image";
      }
    }
    return std::nullopt;
  }

  std::optional<std::string> checkLive(
      const sim::DiskImage& image) const override {
    if (auto bad = check(image)) return bad;
    for (size_t k = 0; k < shards_; ++k) {
      if (auto bad = oracles_[k].checkNoTmpLitter(image, fleetPath(k))) {
        return bad;
      }
    }
    return std::nullopt;
  }

 private:
  size_t shards_;
  size_t rounds_;
  DurableWriteFn write_;
  std::vector<DurableFileOracle> oracles_;
};

// ---------------------------------------------------------------------------
// The environment the explorer drives: a power cut at every syscall
// boundary, each post-crash disk checked under every persistence variant.

std::vector<sim::CrashPersist> persistVariants(const CrashExploreConfig& cfg) {
  using M = sim::CrashPersist::Mode;
  std::vector<sim::CrashPersist> v = {
      {M::kNone, 0}, {M::kAll, 0}, {M::kMetaOnly, 0}};
  for (size_t i = 0; i < cfg.persistSeeds; ++i) {
    v.push_back({M::kPrefix, sim::deriveSeed(cfg.seed, 0x700 + i)});
    v.push_back({M::kSubset, sim::deriveSeed(cfg.seed, 0x800 + i)});
  }
  return v;
}

struct CrashEnv {
  using Fault = sim::Fault;
  using Outcome = RunOutcome<Fault>;
  struct Workload {
    std::string name;
    WorkloadFactory make;
    sim::DiskImage initial;
  };

  static constexpr bool kCrashes = true;
  static constexpr const char* kPointsKey = "crash_points";
  static constexpr const char* kOpKey = "crash_at_op";
  static constexpr const char* kPlantedKey = "broken_writer";

  static void drawFault(std::mt19937_64& rng, Fault& f) {
    static constexpr sim::FaultKind kKinds[] = {
        sim::FaultKind::kEio,        sim::FaultKind::kEnospc,
        sim::FaultKind::kEintr,      sim::FaultKind::kShortWrite,
        sim::FaultKind::kFsyncFailPartial, sim::FaultKind::kCrash};
    f.kind = kKinds[rng() % std::size(kKinds)];
  }
  static void faultJson(std::ostream& out, const Fault& f) {
    out << "{\"op\": " << f.opIndex << ", \"kind\": \""
        << sim::faultKindName(f.kind) << "\"}";
  }

  uint64_t seed;
  std::vector<sim::CrashPersist> variants;

  /// Fault-free run: counts the boundaries and sanity-checks the
  /// workload's own oracle against the live state.
  Outcome probe(const Workload& w, uint64_t& boundaries) const {
    auto inst = w.make();
    sim::SimIoEnv io(w.initial);
    inst->run(io);
    boundaries = io.opCount();
    Outcome out;
    if (auto bad = inst->checkLive(io.liveImage())) {
      out.violations.push_back(
          {w.name, -1, {}, "live", 0, "baseline: " + *bad});
    }
    return out;
  }

  size_t sweepPoints(uint64_t boundaries) const { return boundaries; }

  /// Power cut at syscall `k`.
  Outcome inject(const Workload& w, size_t k, uint64_t) const {
    sim::SimIoEnv io(w.initial);
    io.setFaultSeed(sim::deriveSeed(seed, k));
    io.setCrashAtOp(static_cast<int64_t>(k));
    return runAndCheck(w, io, static_cast<int64_t>(k), {});
  }

  Outcome runSchedule(const Workload& w, const sim::FaultSchedule& schedule,
                      uint64_t faultSeed) const {
    sim::SimIoEnv io(w.initial);
    io.setFaultSeed(faultSeed);
    io.setFaults(schedule);
    return runAndCheck(w, io, -1, schedule);
  }

  /// Run once against `io`; a crashed run is recovered under every
  /// persistence variant, a surviving one checked live.
  Outcome runAndCheck(const Workload& w, sim::SimIoEnv& io, int64_t atOp,
                      const sim::FaultSchedule& schedule) const {
    auto inst = w.make();
    try {
      inst->run(io);
    } catch (const sim::SimCrash&) {
    }
    Outcome out;
    const auto check = [&](std::optional<std::string> bad, std::string mode,
                           uint64_t persistSeed) {
      ++out.checks;
      if (bad) {
        out.violations.push_back(
            {w.name, atOp, schedule, std::move(mode), persistSeed, *bad});
      }
    };
    // A destructor may have swallowed the SimCrash (CaptureWriter's dtor
    // catches everything); io.crashed() is the ground truth.
    out.crashed = io.crashed();
    if (!out.crashed) {
      check(inst->checkLive(io.liveImage()), "live", 0);
      return out;
    }
    for (const sim::CrashPersist& p : variants) {
      check(inst->check(io.crashImage(p)), sim::persistModeName(p.mode),
            p.seed);
    }
    return out;
  }
};

}  // namespace

CrashEvalResult runCrashEval(const CrashExploreConfig& config) {
  CrashEvalResult result;
  const CrashEnv env{config.seed, persistVariants(config)};

  const capture::TimedStream mainStream =
      quantizedStream(config.captureReports, 1'000'000);
  const capture::TimedStream reopenStream =
      quantizedStream(std::max<size_t>(config.captureReports / 2, 1),
                      400'000'000);
  const WorkloadFactory captureFreshF = [&config, &mainStream] {
    return std::make_unique<CaptureWorkload>(config, mainStream,
                                             capture::TimedStream{}, false);
  };

  // Starting images for the reopen workloads: a clean capture, and the same
  // capture with a deterministic torn tail (a cut inside the last chunk --
  // what a mid-write power cut leaves).
  sim::DiskImage cleanImage;
  {
    auto inst = captureFreshF();
    sim::SimIoEnv io;
    inst->run(io);
    cleanImage = io.liveImage();
  }
  sim::DiskImage tornImage = cleanImage;
  {
    std::string& bytes = tornImage[kCapturePath];
    bytes.resize(bytes.size() - std::min<size_t>(bytes.size() / 2, 10));
  }
  const capture::TimedStream cleanBase =
      decodeStrictPrefix(cleanImage.at(kCapturePath));
  const capture::TimedStream tornBase =
      decodeStrictPrefix(tornImage.at(kCapturePath));
  const auto reopen = [&](const capture::TimedStream& base) {
    return [&config, &reopenStream, &base] {
      return std::make_unique<CaptureWorkload>(config, reopenStream, base,
                                               true);
    };
  };

  const std::vector<CrashEnv::Workload> workloads = {
      {"checkpoint",
       [&config] {
         return std::make_unique<CheckpointWorkload>(config.checkpointSaves);
       },
       {}},
      {"capture_append", captureFreshF, {}},
      {"capture_reopen_clean", reopen(cleanBase), cleanImage},
      {"capture_reopen_torn", reopen(tornBase), tornImage},
      {"fleet_fanout",
       [&config] {
         return std::make_unique<FleetFanoutWorkload>(
             config.fleetShards, config.fleetRounds, &correctDurableWrite);
       },
       {}},
  };
  exploreWorkloads(env, workloads, result);
  searchSchedules(env, workloads, "fleet_fanout", 0x5C4ED,
                  config.scheduleRounds, config.maxScheduleFaults, result);

  // Falsification arm: the harness must catch the planted ordering bug and
  // shrink a failing schedule to a minimal replayable artifact.
  const CrashEnv::Workload broken{
      "broken_writer",
      [] {
        return std::make_unique<FleetFanoutWorkload>(1, 2,
                                                     &brokenDurableWrite);
      },
      {}};
  std::vector<CrashViolation> brokenDetails;
  const WorkloadStats brokenStats =
      exploreWorkload(env, broken, brokenDetails, 1);
  result.brokenCaught = brokenStats.violations > 0;

  const uint64_t faultSeed = sim::deriveSeed(config.seed, 0xFA11);
  const auto fails = [&](const sim::FaultSchedule& schedule) {
    return !env.runSchedule(broken, schedule, faultSeed).violations.empty();
  };
  const auto tail = [&](const sim::FaultSchedule& shrunk) {
    const CrashEnv::Outcome replay = env.runSchedule(broken, shrunk, faultSeed);
    if (replay.violations.empty()) return std::string();
    const CrashViolation& v = replay.violations.front();
    return ", \"persist\": {\"mode\": \"" + v.persistMode +
           "\", \"seed\": " + std::to_string(v.persistSeed) +
           "}, \"detail\": \"" + obs::jsonEscape(v.detail) + "\"";
  };
  shrinkPlantedBug(env, "broken_writer",
                   "\"fault_seed\": " + std::to_string(faultSeed), 0xB40C,
                   config.brokenSearchRounds, brokenStats.boundaries,
                   config.maxScheduleFaults, fails, tail, result);

  result.pass = result.totalViolations == 0 && result.brokenCaught &&
                result.brokenShrunk();
  return result;
}

std::string crashJson(const CrashEvalResult& result) {
  return exploreJson<CrashEnv>(result);
}

std::string crashReport(const CrashEvalResult& result) {
  return exploreReport<CrashEnv>(result);
}

}  // namespace tagspin::eval
