// Observability overhead: the cost of the wired metrics/span
// instrumentation on the hot end-to-end path.
//
// Runs the identical tryLocate2D workload (robust preprocess -> per-rig
// profile + spectrum search -> resilient fix) twice over the same stream:
// once with the locator wired to a live MetricsRegistry (counters, four
// span histograms firing per fix) and once unwired (null handles -- the
// runtime null sink every component pays when no registry is configured).
// Iterations of the two arms are interleaved so thermal/frequency drift
// hits both equally; the comparison is median-vs-median.
//
// The compile-time TAGSPIN_OBS_NOOP configuration is by construction at or
// below the unwired arm (the helpers and TAGSPIN_SPAN vanish entirely), so
// the unwired arm is the conservative baseline.
//
// Usage: fig_obs_overhead [--json[=PATH]] [--out=DIR] [repsPerArm]
//                         [durationS]
// Writes DIR/fig_obs_overhead.{csv,json} (default DIR "bench/out");
// --json additionally emits the BENCH_obs_overhead.json sidecar (shared
// schema: bench/bench_json.hpp).  The exit code is 0 iff every gate passes:
// median overhead below 3% and spans recorded.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/tagspin.hpp"
#include "eval/estimators.hpp"
#include "eval/report.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/interrogator.hpp"
#include "sim/rng.hpp"
#include "sim/scenario.hpp"

using namespace tagspin;

constexpr char kUsage[] =
    "fig_obs_overhead [--json[=PATH]] [--out=DIR] [repsPerArm] [durationS]";

namespace {

double medianOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bench::Main m(argc, argv,
                {.usage = kUsage, .name = "obs_overhead", .out = true});
  const int reps = m.number(0, 30);
  const double durationS = m.number(1, 15.0);

  sim::ScenarioConfig scenario;
  scenario.seed = 47;
  scenario.fixedChannel = true;
  sim::World world = sim::makeRigRowWorld(scenario, 3);
  sim::Region region;
  auto rng = sim::makeRng(sim::deriveSeed(scenario.seed, 9));
  sim::placeReaderAntenna(world, 0, region.sample(rng, false));

  sim::InterrogateConfig ic;
  ic.durationS = durationS;
  ic.antennaPort = 0;
  ic.streamId = 0x0B5;
  const rfid::ReportStream reports = sim::interrogate(world, ic);

  core::TagspinSystem server = eval::buildTagspinServer(world, {}, {});
  obs::MetricsRegistry registry;

  eval::printHeading("Observability overhead: instrumented vs null sink");
  std::printf("%d reps/arm over %zu reports (%.0fs interrogation), "
              "interleaved\n", reps, reports.size(), durationS);

  const auto timeFix = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    const auto fix = server.tryLocate2D(reports);
    const auto t1 = std::chrono::steady_clock::now();
    if (!fix) {
      std::fprintf(stderr, "fix failed; overhead numbers are meaningless\n");
      std::exit(2);
    }
    return std::chrono::duration<double>(t1 - t0).count();
  };

  // Warm both arms (page-in, allocator steady state) before measuring.
  server.setMetrics(nullptr);
  timeFix();
  server.setMetrics(&registry);
  timeFix();

  std::vector<double> nullSink, instrumented;
  nullSink.reserve(reps);
  instrumented.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    server.setMetrics(nullptr);
    nullSink.push_back(timeFix());
    server.setMetrics(&registry);
    instrumented.push_back(timeFix());
  }
  server.setMetrics(nullptr);

  const double medNull = medianOf(nullSink);
  const double medInstr = medianOf(instrumented);
  const double overhead = medNull > 0.0 ? medInstr / medNull - 1.0 : 0.0;

  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::HistogramView* spanFix = snap.histogram("span.fix2d");
  const obs::HistogramView* spanSearch = snap.histogram("span.spectrum_search");
  const uint64_t spanObservations =
      (spanFix ? spanFix->count : 0) + (spanSearch ? spanSearch->count : 0);

  std::printf("\n%14s %12s %12s\n", "arm", "median_ms", "mean_ms");
  const auto meanOf = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / double(v.size());
  };
  std::printf("%14s %12.3f %12.3f\n", "null-sink", medNull * 1e3,
              meanOf(nullSink) * 1e3);
  std::printf("%14s %12.3f %12.3f\n", "instrumented", medInstr * 1e3,
              meanOf(instrumented) * 1e3);
  std::printf("median overhead: %+.2f%%  (span observations recorded: %llu, "
              "metrics registered: %zu)\n", overhead * 100,
              static_cast<unsigned long long>(spanObservations),
              snap.counters.size() + snap.gauges.size() +
                  snap.histograms.size());
  if (spanFix) {
    std::printf("span.fix2d: n=%llu p50=%.3fms p99=%.3fms\n",
                static_cast<unsigned long long>(spanFix->count),
                spanFix->p50 * 1e3, spanFix->p99 * 1e3);
  }

  const std::string csv = m.path() + ".csv";
  std::ofstream(csv) << "arm,median_ms,mean_ms\n"
                     << "null_sink," << medNull * 1e3 << ','
                     << meanOf(nullSink) * 1e3 << '\n'
                     << "instrumented," << medInstr * 1e3 << ','
                     << meanOf(instrumented) * 1e3 << '\n';
  std::printf("wrote %s\n", csv.c_str());

  obs::JsonWriter payload;
  payload.beginObject().field("reps_per_arm", reps);
  payload.field("reports", reports.size());
  payload.field("null_sink_median_ms", medNull * 1e3);
  payload.field("instrumented_median_ms", medInstr * 1e3);
  payload.field("median_overhead_fraction", overhead);
  payload.field("span_observations", spanObservations);
  bench::BenchRecord& record = m.record;
  record.payload = payload.end().str();
  record.gate("median_overhead_below_3pct", overhead < 0.03);
  record.gate("spans_recorded", spanObservations > 0);
  record.metric("median_overhead_pct", overhead * 100.0);
  record.metric("null_sink_median_ms", medNull * 1e3);
  record.metric("instrumented_median_ms", medInstr * 1e3);
  record.metric("span_observations", double(spanObservations));

  std::printf("[acceptance: median overhead %.2f%% (want < 3%%)]\n",
              overhead * 100);
  return m.finish();
}
