// survey3d: one-shot 3D calibration, a closed loop with one caller.
//
// Each request is a fresh deployment reading -- its own reader position
// and noise seed over the same three rigs, one revolution long -- handed
// over as LLRP bytes.  The timed path is what a survey user waits for:
// rfid::llrp::decodeStreamTolerant then core::TagspinSystem::tryLocate3D,
// on the paper's 720 x 61 grid with orientation models from the
// calibration prelude and diagnostics, consensus and bootstrap on.
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <numbers>

#include "capture/digest.hpp"
#include "core/preprocess.hpp"
#include "core/tagspin.hpp"
#include "decompose.hpp"
#include "eval/estimators.hpp"
#include "eval/runner.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "rfid/llrp.hpp"
#include "sim/interrogator.hpp"
#include "sim/rng.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

using namespace tagspin;

namespace {

/// Set-up is repeated and its median reported; it takes well under a
/// second, so five repetitions are cheap.
constexpr int kSetupReps = 5;

struct SurveySizes {
  int rigs = 3;
  double revolutions = 1.0;
  size_t snapshotCap = 512;
  size_t azimuthGridPoints = 720;
  size_t polarGridPoints = 61;
  double preludeS = 60.0;
};

SurveySizes surveySizes(bool tiny) {
  SurveySizes s;
  if (tiny) {
    s.snapshotCap = 192;
    s.azimuthGridPoints = 360;
    s.polarGridPoints = 31;
    s.preludeS = 20.0;
  }
  return s;
}

/// Accuracy gate: every fix within kMaxErrorCm of the simulator's truth,
/// and the median within kMedianErrorCm.
constexpr double kMaxErrorCm = 150.0;
constexpr double kMedianErrorCm = 20.0;

struct SurveyInput {
  std::vector<uint8_t> llrp;
  geom::Vec3 truth;
};

/// The calibrated server and everything a request needs besides its bytes.
struct SurveyFixture {
  sim::World world;
  std::map<rfid::Epc, core::RigSpec> rigs;
  std::map<rfid::Epc, core::OrientationModel> models;
  std::unique_ptr<core::TagspinSystem> system;
  core::PreprocessConfig preprocess;
  double preludeS = 0.0;
};

SurveyFixture makeFixture(uint64_t seed, const SurveySizes& sizes) {
  SurveyFixture f;
  sim::ScenarioConfig sc;
  sc.seed = sim::deriveSeed(seed, 0x5E);
  sc.rigPlaneZ = 0.095;  // disks on a desk
  f.world = sim::makeRigRowWorld(sc, sizes.rigs);

  const auto preludeStart = Clock::now();
  f.models = eval::runCalibrationPrelude(f.world, sizes.preludeS);
  f.preludeS = secondsSince(preludeStart);

  core::LocatorConfig lc;
  lc.search.azimuthGridPoints = sizes.azimuthGridPoints;
  lc.search.polarGridPoints = sizes.polarGridPoints;
  lc.robust.diagnostics = true;
  lc.robust.consensus = true;
  lc.robust.bootstrap = true;
  f.system = std::make_unique<core::TagspinSystem>(
      eval::buildTagspinServer(f.world, f.models, lc));
  f.preprocess.maxSnapshots = sizes.snapshotCap;
  f.system->setPreprocessConfig(f.preprocess);
  for (const sim::RigTag& rt : f.world.rigs) f.rigs[rt.tag.epc] = rigSpecOf(rt);
  return f;
}

SurveyInput makeInput(const SurveyFixture& f, uint64_t seed, uint64_t index,
                      const SurveySizes& sizes) {
  auto rng = sim::makeRng(sim::deriveSeed(seed, 0x10000 + index));
  sim::Region region;
  SurveyInput in;
  in.truth = region.sample(rng, /*threeD=*/true);
  in.truth.z += f.world.rigs.front().rig.center.z;
  sim::World w = f.world;
  sim::placeReaderAntenna(w, 0, in.truth);
  const double period =
      2.0 * std::numbers::pi / f.world.rigs.front().rig.omegaRadPerS;
  const rfid::ReportStream reports = sim::interrogate(
      w, {sizes.revolutions * period, 0, sim::deriveSeed(seed, 0x20000 + index)});
  in.llrp = rfid::llrp::encodeStream(reports);
  return in;
}

/// The doubles a 3D fix is judged by, for the digest.
std::vector<double> fixDoubles(const core::ResilientFix3D& fix) {
  std::vector<double> v = {fix.fix.position.x, fix.fix.position.y,
                           fix.fix.position.z, fix.fix.residualM,
                           fix.report.confidence};
  for (const core::RigDirection& d : fix.fix.directions) {
    v.push_back(d.azimuth);
    v.push_back(d.polar);
    v.push_back(d.peakValue);
  }
  return v;
}

struct Outcome {
  double seconds = 0.0;
  size_t reports = 0;
  bool ok = false;
  double errorCm = 0.0;
};

/// The timed request: bytes in, fix out.
Outcome locateOnce(const SurveyFixture& f, const SurveyInput& in,
                   double plantErrorM, capture::Fnv1a& digest,
                   Tracer& tracer, uint64_t request) {
  Outcome o;
  ScopedSpan fixSpan(tracer, "survey.fix", request);
  const auto start = Clock::now();
  rfid::ReportStream reports;
  {
    ScopedSpan span(tracer, "rfid.decode_stream_tolerant", request);
    reports = rfid::llrp::decodeStreamTolerant(in.llrp);
  }
  core::Result<core::ResilientFix3D> fix = [&] {
    ScopedSpan span(tracer, "core.try_locate_3d", request);
    return f.system->tryLocate3D(reports);
  }();
  o.seconds = secondsSince(start);
  fixSpan.close();
  o.reports = reports.size();
  o.ok = fix.hasValue();
  if (o.ok) {
    for (double v : fixDoubles(*fix)) digest.f64(v);
    geom::Vec3 p = fix->fix.position;
    p.x += plantErrorM;
    o.errorCm = geom::distance(p, in.truth) * 100.0;
  } else {
    digest.u64(static_cast<uint64_t>(fix.code()));
  }
  return o;
}

}  // namespace

RunResult runSurvey3d(const Options& options) {
  const SurveySizes sizes = surveySizes(options.tiny);
  RunResult result;
  MetricSheet sheet;

  // Set-up: scenario, calibration prelude, server registration, the first
  // input and a warm-up decode + preprocess.  Repeated; median reported.
  std::vector<double> setupTimes;
  SurveyFixture fixture;
  std::vector<SurveyInput> inputs;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto start = Clock::now();
    SurveyFixture f = makeFixture(options.seed, sizes);
    std::vector<SurveyInput> first = {makeInput(f, options.seed, 0, sizes)};
    const rfid::ReportStream warm =
        rfid::llrp::decodeStreamTolerant(first.front().llrp);
    (void)f.system->collectObservationsRobust(warm);
    setupTimes.push_back(secondsSince(start));
    fixture = std::move(f);
    inputs = std::move(first);
  }
  sheet.set("setup_s", median(setupTimes));
  sheet.set("orientation.prelude_ms", fixture.preludeS * 1e3);

  const auto inputAt = [&](size_t i) -> const SurveyInput& {
    while (inputs.size() <= i) {
      inputs.push_back(makeInput(fixture, options.seed, inputs.size(), sizes));
    }
    return inputs[i];
  };

  // Runs fixes over inputs [0, n) -- or, when n == 0, until `budgetS` of
  // wall time (input generation included) -- and returns the outcomes.
  Tracer off(false);
  capture::Fnv1a digest;
  const auto runFixes = [&](size_t n, double budgetS, Tracer& tracer,
                            capture::Fnv1a& dig) {
    std::vector<Outcome> out;
    const auto start = Clock::now();
    for (size_t i = 0;
         n == 0 ? (out.empty() || secondsSince(start) < budgetS) : i < n;
         ++i) {
      const SurveyInput& in = inputAt(i);
      out.push_back(locateOnce(fixture, in, options.plantErrorM, dig, tracer,
                               i));
    }
    return out;
  };

  const auto judge = [&](const std::vector<Outcome>& outcomes) {
    std::vector<double> errors;
    uint64_t far = 0;
    for (const Outcome& o : outcomes) {
      if (!o.ok || o.errorCm > kMaxErrorCm) ++far;
      if (o.ok) errors.push_back(o.errorCm);
    }
    const double p50 = median(errors);
    result.attempted += outcomes.size();
    // A failed median gate fails every fix of the run.
    result.failed += p50 <= kMedianErrorCm ? far : outcomes.size();
    result.gate("fixes_ok", errors.size() == outcomes.size(),
                "a fix failed or was refused");
    result.gate("fix_error_max", far == 0,
                "a fix is farther than " + std::to_string(kMaxErrorCm) +
                    " cm from truth");
    result.gate("fix_error_median", p50 <= kMedianErrorCm,
                "median fix error " + std::to_string(p50) + " cm > " +
                    std::to_string(kMedianErrorCm) + " cm");
    sheet.set("accuracy.error_cm_p50", p50);
    sheet.set("accuracy.error_cm_p90", percentile(errors, 90.0));
    sheet.set("accuracy.fix_fail_ratio",
              static_cast<double>(result.failed) /
                  static_cast<double>(result.attempted));
    result.detail("fixes", static_cast<double>(outcomes.size()));
    result.detail("fix_error_cm_p50", p50);
    result.detail("fix_error_cm_p90", percentile(errors, 90.0));
  };

  if (!options.trace) {
    const std::vector<Outcome> outcomes =
        runFixes(0, options.seconds, off, digest);
    std::vector<double> ms;
    std::vector<double> reportsPerS;
    for (const Outcome& o : outcomes) {
      ms.push_back(o.seconds * 1e3);
      reportsPerS.push_back(static_cast<double>(o.reports) / o.seconds);
    }
    judge(outcomes);
    sheet.set("request_p50_ms", median(ms));
    sheet.set("request_p90_ms", percentile(ms, 90.0));
    sheet.set("reports_per_s", median(reportsPerS));
    result.detail("request_samples", static_cast<double>(ms.size()));
  } else {
    // A: untraced fixes for a third of the budget.  B: the same fixes with
    // the metrics registry attached and benchmark spans on.  C: the
    // decomposed pass over the same inputs for the last third.
    const std::vector<Outcome> a =
        runFixes(0, options.seconds / 3.0, off, digest);
    Tracer tracer(true);
    obs::MetricsRegistry registry;
    fixture.system->setMetrics(&registry);
    capture::Fnv1a digestB;
    const std::vector<Outcome> b = runFixes(a.size(), 0.0, tracer, digestB);
    fixture.system->setMetrics(nullptr);
    double wallA = 0.0;
    double wallB = 0.0;
    for (const Outcome& o : a) wallA += o.seconds;
    for (const Outcome& o : b) wallB += o.seconds;
    judge(a);
    result.gate("traced_digest", digest.value() == digestB.value(),
                "traced fixes differ from untraced fixes");
    sheet.set("obs.trace_overhead_ratio", wallB / wallA);
    const obs::MetricsSnapshot snap = registry.snapshot();
    if (const obs::HistogramView* h = snap.histogram("span.fix3d")) {
      result.detail("registry.span_fix3d_count", static_cast<double>(h->count));
      result.detail("registry.span_fix3d_sum_s", h->sum);
    }

    DecompositionTally tally;
    double decodeS = 0.0;
    double decodedReports = 0.0;
    double rejected = 0.0;
    double frames = 0.0;
    double preprocessS = 0.0;
    double preprocessRigs = 0.0;
    double kept = 0.0;
    double offered = 0.0;
    double spent = 0.0;
    for (size_t i = 0; i == 0 || spent < options.seconds / 3.0; ++i) {
      const auto start = Clock::now();
      const SurveyInput& in = inputAt(i);
      const uint64_t request = 1000000 + i;
      ScopedSpan root(tracer, "survey.fix_decomposed", request);
      rfid::llrp::DecodeStats stats;
      rfid::ReportStream reports;
      {
        ScopedSpan span(tracer, "rfid.decode_stream_tolerant", request);
        const auto t0 = Clock::now();
        reports = rfid::llrp::decodeStreamTolerant(in.llrp, &stats);
        decodeS += secondsSince(t0);
      }
      decodedReports += static_cast<double>(reports.size());
      rejected += static_cast<double>(stats.framesRejected);
      frames += static_cast<double>(stats.framesDecoded + stats.framesRejected);
      std::vector<core::RigObservation> obs;
      for (const auto& [epc, rig] : fixture.rigs) {
        const auto t0 = Clock::now();
        core::Result<std::vector<core::Snapshot>> snaps = [&] {
          ScopedSpan span(tracer, "preprocess.extract_snapshots_robust",
                          request);
          return core::extractSnapshotsRobust(reports, epc,
                                              fixture.preprocess);
        }();
        preprocessS += secondsSince(t0);
        preprocessRigs += 1.0;
        offered += static_cast<double>(
            rfid::filterByEpc(reports, epc).size());
        if (!snaps || snaps->size() < 2) continue;
        kept += static_cast<double>(snaps->size());
        core::RigObservation o;
        o.rig = rig;
        o.snapshots = std::move(*snaps);
        if (const auto it = fixture.models.find(epc);
            it != fixture.models.end()) {
          o.orientation = it->second;
        }
        obs.push_back(std::move(o));
      }
      const core::Locator& locator = fixture.system->locator();
      const auto thresholds = fixture.system->healthThresholds();
      double locatorS = 0.0;
      core::Result<core::ResilientFix3D> fix = [&] {
        ScopedSpan span(tracer, "locator.try_locate_3d", request);
        const auto t0 = Clock::now();
        auto r = locator.tryLocate3D(obs, thresholds);
        locatorS = secondsSince(t0);
        return r;
      }();
      ScopedSpan decomposed(tracer, "locator.decomposed", request);
      const DecomposedFix parts = decomposeFix(
          locator.config(), thresholds, obs, /*threeD=*/true, tracer, request);
      const double childS = tracer.childSeconds(decomposed.id());
      decomposed.close();
      const bool match = fix.hasValue() && parts.ok &&
                         parts.position.x == fix->fix.position.x &&
                         parts.position.y == fix->fix.position.y &&
                         parts.position.z == fix->fix.position.z;
      tally.add(parts, locatorS, childS, match);
      root.close();
      spent += secondsSince(start);
    }
    const auto totals = tracer.totals();
    tally.fill(sheet, totals);
    sheet.set("rfid.decode_ns_per_report", decodeS * 1e9 / decodedReports);
    sheet.set("rfid.frames_rejected_ratio", frames > 0.0 ? rejected / frames : 0.0);
    sheet.set("preprocess.us_per_rig", preprocessS * 1e6 / preprocessRigs);
    sheet.set("preprocess.kept_ratio", offered > 0.0 ? kept / offered : 0.0);
    result.detail("decomposed_fixes", static_cast<double>(tally.fixes));
    tracer.write(options.outDir + "/survey3d-seed" +
                 std::to_string(options.seed) + "-spans.json");
  }
  sheet.set("peak_rss_mb", peakRssMb());
  result.detail("fix_digest", hex(digest.value()));
  result.detail("loop", "closed, 1 caller");
  result.detail("worker_threads", 0.0);
  sheet.emit(result, options.trace);
  return result;
}

}  // namespace perfbench
