// Shared pieces of the Tagspin benchmark: options, the result record, the
// in-memory span tracer and summary statistics.
//
// Everything here lives in the benchmark, outside the program under test:
// spans are recorded around calls into the libraries' public functions,
// never inside them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/snapshot.hpp"
#include "sim/world.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the self-test (seconds of work, not tens).
  bool tiny = false;
  /// Shift every fix by this many metres before the accuracy gate (the
  /// self-test's planted wrong fix; 0 in real runs).
  double plantErrorM = 0.0;
  /// Directory for span dumps, digests and scratch files.
  std::string outDir = ".bench_build/results";
};

/// One metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main: the gated outcome, the metrics of
/// the requested mode, and free-form details for the stamped result file.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra key -> JSON-literal pairs (gates, digests, sample counts).
  std::vector<std::pair<std::string, std::string>> details;
  /// Failed gate descriptions (empty when correct).
  std::vector<std::string> gateFailures;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void detail(const std::string& key, double value);
  void detail(const std::string& key, const std::string& text);
  /// Record a correctness gate; a failing gate fails the run.
  void gate(const std::string& name, bool ok, const std::string& what);
};

// ---------------------------------------------------------------- tracing

/// In-memory span recorder.  Spans nest by call order on the one thread
/// that drives the workload; each carries the id of the request (a fix, a
/// tick or a drain pass) it belongs to.  Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1;
    uint64_t request = 0;
  };
  struct Totals {
    uint64_t count = 0;
    double totalS = 0.0;
    double selfS = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int begin(const char* name, uint64_t request);
  void end(int span);

  double seconds(int span) const;
  /// Sum of the durations of `span`'s direct children.
  double childSeconds(int span) const;
  /// Count, total and self time (duration minus direct children) per name.
  std::map<std::string, Totals> totals() const;
  /// Write every span plus the per-name totals as JSON.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.begin(name, request)
                                               : -1) {}
  ~ScopedSpan() { close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void close() {
    if (id_ >= 0) tracer_.end(id_);
    id_ = -1;
  }
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

// ------------------------------------------------------------- statistics

/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty set.
double percentile(const std::vector<double>& values, double p);
double median(const std::vector<double>& values);

/// Peak resident set size of this process, MiB.
double peakRssMb();

/// The locator's view of a simulated rig.
tagspin::core::RigSpec rigSpecOf(const tagspin::sim::RigTag& rt);

/// Lower-case hex of a digest.
std::string hex(uint64_t v);

/// JSON string literal for `s`.
std::string jsonString(const std::string& s);

// -------------------------------------------------------------- workloads

RunResult runFleet(const Options& options, size_t workerThreads);
RunResult runSurvey3d(const Options& options);
RunResult runReplayDrain(const Options& options);

}  // namespace perfbench
