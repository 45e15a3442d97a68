// The benchmark's metric catalogue.  Every run prints every metric of its
// mode, on every workload, in this order; a per-layer metric a workload
// does not exercise reads 0.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics (measured with tracing off).
inline const std::vector<MetricSpec>& endToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"request_p50_ms", "ms"},
      {"request_p90_ms", "ms"},
      {"reports_per_s", "1/s"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

/// Per-layer metrics (the traced run).
inline const std::vector<MetricSpec>& perLayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"rfid.decode_ns_per_report", "ns"},
      {"rfid.frames_rejected_ratio", "ratio"},
      {"capture.decode_ns_per_report", "ns"},
      {"capture.recovered_ratio", "ratio"},
      {"preprocess.us_per_rig", "us"},
      {"preprocess.kept_ratio", "ratio"},
      {"quality.health_us_per_rig", "us"},
      {"quality.health_evals_per_fix", "count"},
      {"quality.health_eval_share", "ratio"},
      {"profile.build_us_per_rig", "us"},
      {"profile.ns_per_snapshot_eval", "ns"},
      {"profile.ns_per_snapshot_eval_3d", "ns"},
      {"spectrum.azimuth_us_per_rig", "us"},
      {"spectrum.spatial_ms_per_rig", "ms"},
      {"spectrum.search_evals_per_fix", "count"},
      {"orientation.apply_us_per_rig", "us"},
      {"orientation.prelude_ms", "ms"},
      {"robust.diagnose_us_per_rig", "us"},
      {"robust.diag_evals_per_fix", "count"},
      {"robust.consensus_us_per_fix", "us"},
      {"robust.bootstrap_ms_per_fix", "ms"},
      {"robust.bootstrap_evals_per_fix", "count"},
      {"locator.fix_ms", "ms"},
      {"locator.fix_self_ms", "ms"},
      {"locator.attributed_ratio", "ratio"},
      {"locator.decomposition_match_ratio", "ratio"},
      {"track.update_us", "us"},
      {"runtime.idle_tick_ms", "ms"},
      {"runtime.fix_tick_ms", "ms"},
      {"runtime.fixes_per_tick", "count"},
      {"runtime.sessions_deferred", "1/tick"},
      {"runtime.session_ticks_per_s", "1/s"},
      {"runtime.fixes_per_s", "1/s"},
      {"checkpoint.save_us", "us"},
      {"checkpoint.writes", "1/tick"},
      {"checkpoint.bytes_per_write", "B"},
      {"accuracy.error_cm_p50", "cm"},
      {"accuracy.error_cm_p90", "cm"},
      {"accuracy.fix_fail_ratio", "ratio"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return specs;
}

/// Collects metric values by name, then emits the whole catalogue of one
/// mode in catalogue order (unset metrics read 0).
class MetricSheet {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }

  void emit(RunResult& result, bool trace) const {
    for (const MetricSpec& spec : trace ? perLayerSpecs() : endToEndSpecs()) {
      const auto it = values_.find(spec.name);
      result.add(spec.name, it == values_.end() ? 0.0 : it->second,
                 spec.unit);
    }
  }

 private:
  std::map<std::string, double> values_;
};

/// Per-layer figures derived from a tracer's totals: mean span time per
/// call, in the given unit scale (1e6 = microseconds).
inline double perCall(const std::map<std::string, Tracer::Totals>& totals,
                      const std::string& name, double scale) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return it->second.totalS / static_cast<double>(it->second.count) * scale;
}

inline double totalSeconds(
    const std::map<std::string, Tracer::Totals>& totals,
    const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.totalS;
}

}  // namespace perfbench
