#include "eval/chaos.hpp"

#include <algorithm>
#include <sstream>

#include "core/tagspin.hpp"
#include "dsp/stats.hpp"
#include "eval/estimators.hpp"
#include "eval/metrics.hpp"
#include "obs/json.hpp"
#include "sim/interrogator.hpp"
#include "sim/rng.hpp"

namespace tagspin::eval {

core::RigHealthThresholds ChaosConfig::defaultHealthThresholds() {
  core::RigHealthThresholds t;
  // A contiguous 30%-of-spin dropout on a ~1.2-revolution interrogation
  // leaves ~0.64 arc coverage; demand 0.75 so such a rig is dropped while
  // mildly thinned rigs (random losses spread over the whole arc) survive.
  t.minArcCoverage = 0.75;
  return t;
}

sim::FaultConfig ChaosConfig::defaultFaultTemplate() {
  sim::FaultConfig f;
  f.frameBitFlipProb = 0.05;
  f.frameTruncateProb = 0.02;
  f.duplicateProb = 0.10;
  f.reorderProb = 0.05;
  f.timestampGlitchProb = 0.01;
  f.timestampGlitchMaxS = 0.5;
  f.clockDriftPpm = 20.0;
  f.epcBitErrorProb = 0.005;
  return f;
}

ChaosResult runChaosSweep(const ChaosConfig& config) {
  ChaosResult result;
  const sim::World baseWorld =
      sim::makeRigRowWorld(config.scenario, config.rigCount);
  core::TagspinSystem server =
      buildTagspinServer(baseWorld, {}, config.locator);
  server.setHealthThresholds(config.health);

  for (size_t pi = 0; pi < config.intensities.size(); ++pi) {
    const double intensity = config.intensities[pi];
    ChaosPoint point;
    point.intensity = intensity;
    point.trials = config.trialsPerPoint;
    std::vector<double> errors;

    // Per-point telemetry: a fresh registry per intensity keeps the curve's
    // granularity while routing every counter through the same machinery a
    // deployment scrapes (decode, fault and locator accounting included).
    obs::MetricsRegistry pointReg;
    server.setMetrics(&pointReg);

    for (int trial = 0; trial < config.trialsPerPoint; ++trial) {
      // Trial seeds depend on the trial alone, not on the intensity point:
      // every point sees the *same* reader positions and clean streams, so
      // the breakdown curve isolates the faults instead of re-rolling the
      // geometry (paired trials).
      sim::World world = baseWorld;
      std::mt19937_64 placeRng =
          sim::makeRng(sim::deriveSeed(config.seed, trial));
      const geom::Vec3 truth = config.region.sample(placeRng, false);
      sim::placeReaderAntenna(world, 0, truth);

      sim::InterrogateConfig ic;
      ic.durationS = config.durationS;
      ic.antennaPort = 0;
      ic.streamId = sim::deriveSeed(config.seed ^ 0x7121A1ULL, trial);
      const rfid::ReportStream clean = sim::interrogate(world, ic);

      sim::FaultConfig fc = config.faultsAtFull.scaled(intensity);
      fc.seed = sim::deriveSeed(config.seed ^ 0xFA017ULL,
                                pi * 100003ULL + trial);
      if (config.dropoutRig >= 0 &&
          config.dropoutRig < static_cast<int>(world.rigs.size()) &&
          config.dropoutFraction * intensity > 0.0) {
        sim::TagDropout d;
        d.epc = world.rigs[static_cast<size_t>(config.dropoutRig)].tag.epc;
        d.startFraction = 0.35;
        d.endFraction = 0.35 + config.dropoutFraction * intensity;
        fc.dropouts.push_back(d);
      }
      sim::FaultInjector injector(fc);

      const rfid::ReportStream faulted = injector.corruptReports(clean);
      const std::vector<uint8_t> wire = rfid::llrp::encodeStream(faulted);
      const std::vector<uint8_t> dirty = injector.corruptBytes(wire);

      rfid::llrp::DecodeStats ds;
      const rfid::ReportStream recovered =
          rfid::llrp::decodeStreamTolerant(dirty, &ds);
      rfid::llrp::publishDecodeStats(ds, pointReg);
      sim::publishFaultStats(injector.stats(), pointReg);

      const core::Result<core::ResilientFix2D> fix =
          server.tryLocate2D(recovered);
      if (fix) {
        ++point.fixes;
        if (fix->report.grade != core::FixGrade::kFull) ++point.degradedFixes;
        errors.push_back(
            errorCm(fix->fix.position, truth.xy()).combined);
      } else {
        ++point.failures[core::errorCodeName(fix.error().code)];
      }
    }

    // Read the point's accounting back from the registry so the CSV/JSON
    // columns come from the exact counters a live scrape would report.
    const obs::MetricsSnapshot snap = pointReg.snapshot();
    point.decode.framesDecoded = snap.counterValue("llrp.frames_decoded");
    point.decode.framesSkipped = snap.counterValue("llrp.frames_skipped");
    point.decode.framesRejected = snap.counterValue("llrp.frames_rejected");
    point.decode.bytesResynced = snap.counterValue("llrp.bytes_resynced");
    point.decode.bytesTotal = snap.counterValue("llrp.bytes_total");
    point.faults.duplicatesInserted =
        snap.counterValue("faults.duplicates_inserted");
    point.faults.reordersApplied = snap.counterValue("faults.reorders_applied");
    point.faults.timestampGlitches =
        snap.counterValue("faults.timestamp_glitches");
    point.faults.epcBitErrors = snap.counterValue("faults.epc_bit_errors");
    point.faults.reportsDropped = snap.counterValue("faults.reports_dropped");
    point.faults.framesBitFlipped =
        snap.counterValue("faults.frames_bit_flipped");
    point.faults.framesTruncated =
        snap.counterValue("faults.frames_truncated");
    point.faults.bitsFlipped = snap.counterValue("faults.bits_flipped");
    if (const obs::HistogramView* h = snap.histogram("span.fix2d")) {
      point.medianFixLatencyMs = h->p50 * 1e3;
    }
    server.setMetrics(nullptr);  // pointReg dies with this scope

    point.fixRate = point.trials > 0
                        ? static_cast<double>(point.fixes) / point.trials
                        : 0.0;
    if (!errors.empty()) {
      point.meanErrorCm = dsp::mean(errors);
      point.medianErrorCm = dsp::median(errors);
      point.p90ErrorCm = dsp::percentile(errors, 90.0);
    }
    if (intensity == 0.0) result.cleanMedianErrorCm = point.medianErrorCm;
    result.points.push_back(std::move(point));
  }
  return result;
}

std::string chaosCsv(const ChaosResult& result) {
  std::ostringstream out;
  out << "intensity,trials,fixes,fix_rate,mean_error_cm,median_error_cm,"
         "p90_error_cm,degraded_fixes,frames_decoded,frames_skipped,"
         "frames_rejected,bytes_resynced,bytes_total,duplicates,reorders,"
         "reports_dropped,frames_bit_flipped,frames_truncated,"
         "median_fix_latency_ms\n";
  for (const ChaosPoint& p : result.points) {
    out << p.intensity << ',' << p.trials << ',' << p.fixes << ','
        << p.fixRate << ',' << p.meanErrorCm << ',' << p.medianErrorCm << ','
        << p.p90ErrorCm << ',' << p.degradedFixes << ','
        << p.decode.framesDecoded << ',' << p.decode.framesSkipped << ','
        << p.decode.framesRejected << ',' << p.decode.bytesResynced << ','
        << p.decode.bytesTotal << ','
        << p.faults.duplicatesInserted << ',' << p.faults.reordersApplied
        << ',' << p.faults.reportsDropped << ',' << p.faults.framesBitFlipped
        << ',' << p.faults.framesTruncated << ','
        << p.medianFixLatencyMs << '\n';
  }
  return out.str();
}

std::string chaosJson(const ChaosResult& result) {
  obs::JsonWriter w;
  w.beginObject().field("clean_median_error_cm", result.cleanMedianErrorCm);
  w.key("points").beginArray();
  for (const ChaosPoint& p : result.points) {
    w.beginObject().field("intensity", p.intensity);
    w.field("trials", p.trials).field("fixes", p.fixes);
    w.field("fix_rate", p.fixRate).field("mean_error_cm", p.meanErrorCm);
    w.field("median_error_cm", p.medianErrorCm);
    w.field("p90_error_cm", p.p90ErrorCm);
    w.field("degraded_fixes", p.degradedFixes);
    w.field("frames_decoded", p.decode.framesDecoded);
    w.field("frames_skipped", p.decode.framesSkipped);
    w.field("frames_rejected", p.decode.framesRejected);
    w.field("bytes_resynced", p.decode.bytesResynced);
    w.field("median_fix_latency_ms", p.medianFixLatencyMs);
    w.key("failures").beginObject();
    for (const auto& [name, count] : p.failures) w.field(name, count);
    w.end().end();
  }
  return w.end().end().str();
}

}  // namespace tagspin::eval
