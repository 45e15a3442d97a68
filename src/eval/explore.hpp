// The fault-point explorer behind both falsifiers: eval/crash (power cuts
// and I/O faults against sim::SimIoEnv) and eval/oom (allocation failures
// against sim::SimMemEnv).
//
// Both run the same three escalating attacks, fully deterministic:
//
//  1. Probe, then inject.  Each workload runs once fault-free, which counts
//     its fault boundaries (syscalls / reservations) and checks its oracle
//     against the live state.  Then it runs once per sweep point with a
//     fault armed there, and every run is checked.
//  2. Seeded fault-schedule search.  Random multi-fault schedules, sorted
//     by boundary index, are thrown at one named workload.
//  3. Falsification proof.  Search finds a schedule that breaks a
//     deliberately buggy workload, ddmin shrinks it, and the minimal
//     schedule ships as a replayable artifact.  A harness that cannot flag
//     a planted bug proves nothing by passing.
//
// This header owns that machinery, the tallies, the JSON and the text
// report.  An environment plugs in as a policy type `Env`:
//
//   using Fault = ...;                 // sim::Fault or sim::MemFault
//   struct Workload { std::string name; ... };
//   static constexpr bool kCrashes;    // a run can end in a power cut whose
//                                      // disk is checked per persistence
//                                      // variant (else: denials counted)
//   static constexpr const char* kPointsKey;   // JSON names: sweep checks,
//   static constexpr const char* kOpKey;       // a violation's armed point,
//   static constexpr const char* kPlantedKey;  // the planted-bug arm
//   static void drawFault(std::mt19937_64&, Fault&);  // kind (+ param)
//   static void faultJson(std::ostream&, const Fault&);
//   uint64_t seed;
//   RunOutcome<Fault> probe(const Workload&, uint64_t& boundaries) const;
//   size_t sweepPoints(uint64_t boundaries) const;
//   RunOutcome<Fault> inject(const Workload&, size_t point,
//                            uint64_t boundaries) const;
//   RunOutcome<Fault> runSchedule(const Workload&, const std::vector<Fault>&,
//                                 uint64_t faultSeed) const;
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.hpp"
#include "sim/rng.hpp"

namespace tagspin::eval {

/// Delta-debugging (ddmin) minimizer: try each chunk alone (aggressive
/// reduction first), then each complement, doubling granularity when
/// nothing shrinks.  The result is 1-minimal at the final granularity:
/// removing any single chunk makes `fails` return false.  `fails` must be
/// deterministic and `sequence` itself is assumed failing.
template <typename T, typename FailsFn>
std::vector<T> ddminShrink(const std::vector<T>& sequence,
                           const FailsFn& fails) {
  std::vector<T> cur = sequence;
  size_t n = 2;
  while (cur.size() >= 2) {
    const size_t chunk = (cur.size() + n - 1) / n;
    bool reduced = false;
    // Try each chunk alone (aggressive reduction first)...
    for (size_t i = 0; i < cur.size() && !reduced; i += chunk) {
      std::vector<T> subset(cur.begin() + i,
                            cur.begin() + std::min(i + chunk, cur.size()));
      if (subset.size() < cur.size() && fails(subset)) {
        cur = std::move(subset);
        n = 2;
        reduced = true;
      }
    }
    // ...then each complement (drop one chunk).
    for (size_t i = 0; i < cur.size() && !reduced; i += chunk) {
      std::vector<T> complement(cur.begin(), cur.begin() + i);
      complement.insert(complement.end(),
                        cur.begin() + std::min(i + chunk, cur.size()),
                        cur.end());
      if (!complement.empty() && complement.size() < cur.size() &&
          fails(complement)) {
        cur = std::move(complement);
        n = std::max<size_t>(n - 1, 2);
        reduced = true;
      }
    }
    if (!reduced) {
      if (n >= cur.size()) break;
      n = std::min(n * 2, cur.size());
    }
  }
  return cur;
}

/// Violations kept with full detail (counts are always exact).
inline constexpr size_t kMaxViolationDetails = 32;

/// One invariant violation, with everything needed to replay it.
template <typename Fault>
struct Violation {
  std::string workload;
  /// Boundary index the sweep armed; -1 for probe and schedule runs.
  int64_t atOp = -1;
  std::vector<Fault> schedule;  // empty for power-cut sweep points
  /// Crash environment: persistence variant of the checked image ("live"
  /// when the live state failed) and its seed.
  std::string persistMode;
  uint64_t persistSeed = 0;
  std::string detail;
};

struct WorkloadStats {
  std::string name;
  uint64_t boundaries = 0;  // fault boundaries the probe run crossed
  uint64_t points = 0;      // checks: crash-point recoveries / injected runs
  uint64_t denials = 0;     // reservations denied across the points
  uint64_t violations = 0;
};

/// What one armed run of a workload produced.
template <typename Fault>
struct RunOutcome {
  bool crashed = false;  // a power cut fired
  uint64_t checks = 0;   // oracle checks made on the run
  uint64_t denials = 0;  // reservations denied
  std::vector<Violation<Fault>> violations;
};

template <typename Fault>
struct ExploreResult {
  std::vector<WorkloadStats> workloads;
  uint64_t totalBoundaries = 0;
  uint64_t totalPoints = 0;
  uint64_t totalViolations = 0;
  std::vector<Violation<Fault>> violations;  // capped at kMaxViolationDetails

  // Fault-schedule search.
  uint64_t scheduleRuns = 0;
  uint64_t scheduleCrashes = 0;  // runs whose schedule fired a power cut
  uint64_t scheduleChecks = 0;   // oracle checks performed
  uint64_t scheduleDenials = 0;
  uint64_t scheduleViolations = 0;

  // Falsification arm (planted bug).
  bool brokenCaught = false;          // exploration flagged the planted bug
  bool brokenScheduleFound = false;   // search found a failing schedule
  uint64_t brokenScheduleFaults = 0;  // faults before shrinking
  uint64_t brokenShrunkFaults = 0;    // faults after delta debugging
  std::string brokenArtifactJson;     // minimal replayable artifact

  /// Zero violations, every environment-specific arm held, AND the planted
  /// bug was caught and shrunk.
  bool pass = false;

  /// A failing schedule was found and shrunk to a non-empty subset of it.
  bool brokenShrunk() const {
    return brokenScheduleFound && brokenShrunkFaults >= 1 &&
           brokenShrunkFaults <= brokenScheduleFaults;
  }
};

template <typename Fault>
void keepDetails(std::vector<Violation<Fault>>& details, size_t cap,
                 std::vector<Violation<Fault>> found) {
  for (Violation<Fault>& v : found) {
    if (details.size() < cap) details.push_back(std::move(v));
  }
}

/// Probe `w` fault-free, then run it once per sweep point.  At most `cap`
/// violations are kept in `details`.
template <typename Env>
WorkloadStats exploreWorkload(
    const Env& env, const typename Env::Workload& w,
    std::vector<Violation<typename Env::Fault>>& details,
    size_t cap = kMaxViolationDetails) {
  WorkloadStats stats;
  stats.name = w.name;
  RunOutcome<typename Env::Fault> probe = env.probe(w, stats.boundaries);
  stats.violations += probe.violations.size();
  keepDetails(details, cap, std::move(probe.violations));
  const size_t points = env.sweepPoints(stats.boundaries);
  for (size_t p = 0; p < points; ++p) {
    RunOutcome<typename Env::Fault> out = env.inject(w, p, stats.boundaries);
    stats.points += out.checks;
    stats.denials += out.denials;
    stats.violations += out.violations.size();
    keepDetails(details, cap, std::move(out.violations));
  }
  return stats;
}

/// Arm 1 over every workload, in order, into `r`'s tallies.
template <typename Env>
void exploreWorkloads(const Env& env,
                      const std::vector<typename Env::Workload>& workloads,
                      ExploreResult<typename Env::Fault>& r) {
  for (const typename Env::Workload& w : workloads) {
    WorkloadStats stats = exploreWorkload(env, w, r.violations);
    r.totalBoundaries += stats.boundaries;
    r.totalPoints += stats.points;
    r.totalViolations += stats.violations;
    r.workloads.push_back(std::move(stats));
  }
}

/// 1..maxFaults faults at uniform boundary indices below `maxOp`, sorted by
/// index; Env::drawFault picks each fault's kind.
template <typename Env>
std::vector<typename Env::Fault> randomSchedule(std::mt19937_64& rng,
                                                uint64_t maxOp,
                                                size_t maxFaults) {
  using Fault = typename Env::Fault;
  const size_t n = 1 + rng() % maxFaults;
  std::vector<Fault> schedule;
  for (size_t i = 0; i < n; ++i) {
    Fault f;
    f.opIndex = rng() % maxOp;
    Env::drawFault(rng, f);
    schedule.push_back(f);
  }
  std::sort(schedule.begin(), schedule.end(),
            [](const Fault& a, const Fault& b) {
              return a.opIndex < b.opIndex;
            });
  return schedule;
}

template <typename Env>
std::string scheduleJson(const std::vector<typename Env::Fault>& schedule) {
  std::ostringstream out;
  out << '[';
  for (size_t i = 0; i < schedule.size(); ++i) {
    out << (i ? ", " : "");
    Env::faultJson(out, schedule[i]);
  }
  out << ']';
  return out.str();
}

/// Arm 2: `rounds` random schedules (generator seeded from `rngSalt`)
/// thrown at the workload named `target`, over the boundaries its probe
/// counted.  Run r carries fault seed deriveSeed(seed, 0x900 + r); the first
/// violation of a failing run is kept as "<target>/schedule".
template <typename Env>
void searchSchedules(const Env& env,
                     const std::vector<typename Env::Workload>& workloads,
                     const std::string& target, uint64_t rngSalt,
                     size_t rounds, size_t maxFaults,
                     ExploreResult<typename Env::Fault>& r) {
  const auto w = std::find_if(
      workloads.begin(), workloads.end(),
      [&target](const typename Env::Workload& x) { return x.name == target; });
  const auto stats = std::find_if(
      r.workloads.begin(), r.workloads.end(),
      [&target](const WorkloadStats& x) { return x.name == target; });
  if (w == workloads.end() || stats == r.workloads.end()) return;
  const uint64_t span = std::max<uint64_t>(stats->boundaries, 1);

  std::mt19937_64 rng = sim::makeRng(sim::deriveSeed(env.seed, rngSalt));
  for (size_t round = 0; round < rounds; ++round) {
    const std::vector<typename Env::Fault> schedule =
        randomSchedule<Env>(rng, span, maxFaults);
    RunOutcome<typename Env::Fault> out = env.runSchedule(
        *w, schedule, sim::deriveSeed(env.seed, 0x900 + round));
    ++r.scheduleRuns;
    if (out.crashed) ++r.scheduleCrashes;
    r.scheduleChecks += out.checks;
    r.scheduleDenials += out.denials;
    r.scheduleViolations += out.violations.size();
    r.totalViolations += out.violations.size();
    if (!out.violations.empty()) {
      out.violations.resize(1);
      out.violations[0].workload = target + "/schedule";
      keepDetails(r.violations, kMaxViolationDetails,
                  std::move(out.violations));
    }
  }
}

/// Arm 3, after the environment has set `r.brokenCaught`: search `rounds`
/// random schedules (faults below `maxOp`, generator seeded from `rngSalt`)
/// for one that `fails`, shrink it with ddmin, and record the artifact
///   {"workload": name, <replay>, "schedule": [...]<tail(shrunk)>}
/// where `replay` holds the fields that re-arm the run besides the schedule
/// and `tail` appends the fields describing the failure.
template <typename Env, typename FailsFn, typename TailFn>
void shrinkPlantedBug(const Env& env, const std::string& name,
                      const std::string& replay, uint64_t rngSalt,
                      size_t rounds, uint64_t maxOp, size_t maxFaults,
                      const FailsFn& fails, const TailFn& tail,
                      ExploreResult<typename Env::Fault>& r) {
  std::mt19937_64 rng = sim::makeRng(sim::deriveSeed(env.seed, rngSalt));
  std::vector<typename Env::Fault> failing;
  for (size_t round = 0; round < rounds && failing.empty(); ++round) {
    std::vector<typename Env::Fault> candidate =
        randomSchedule<Env>(rng, std::max<uint64_t>(maxOp, 1), maxFaults);
    if (fails(candidate)) failing = std::move(candidate);
  }
  if (failing.empty()) return;
  r.brokenScheduleFound = true;
  r.brokenScheduleFaults = failing.size();
  const std::vector<typename Env::Fault> shrunk = ddminShrink(failing, fails);
  r.brokenShrunkFaults = shrunk.size();
  r.brokenArtifactJson = "{\"workload\": \"" + name + "\", " + replay +
                         ", \"schedule\": " + scheduleJson<Env>(shrunk) +
                         tail(shrunk) + "}";
}

/// The full result as JSON (the BENCH_<env>.json payload).  `arms` holds
/// the environment's own sections, each a line "  \"key\": {...},\n",
/// placed between the schedule search and the planted bug.
template <typename Env>
std::string exploreJson(const ExploreResult<typename Env::Fault>& r,
                        const std::string& arms = "") {
  using obs::jsonEscape;
  std::ostringstream out;
  out << "{\n  \"workloads\": [\n";
  for (size_t i = 0; i < r.workloads.size(); ++i) {
    const WorkloadStats& w = r.workloads[i];
    out << "    {\"name\": \"" << jsonEscape(w.name)
        << "\", \"boundaries\": " << w.boundaries << ", \""
        << Env::kPointsKey << "\": " << w.points;
    if (!Env::kCrashes) out << ", \"denials\": " << w.denials;
    out << ", \"violations\": " << w.violations << '}'
        << (i + 1 < r.workloads.size() ? "," : "") << '\n';
  }
  out << "  ],\n";
  out << "  \"total_boundaries\": " << r.totalBoundaries << ",\n";
  out << "  \"total_" << Env::kPointsKey << "\": " << r.totalPoints << ",\n";
  out << "  \"total_violations\": " << r.totalViolations << ",\n";
  out << "  \"schedule_search\": {\"runs\": " << r.scheduleRuns;
  if (Env::kCrashes) {
    out << ", \"crashes\": " << r.scheduleCrashes
        << ", \"checks\": " << r.scheduleChecks;
  } else {
    out << ", \"denials\": " << r.scheduleDenials;
  }
  out << ", \"violations\": " << r.scheduleViolations << "},\n";
  out << arms;
  out << "  \"" << Env::kPlantedKey << "\": {\"caught\": "
      << (r.brokenCaught ? "true" : "false") << ", \"schedule_found\": "
      << (r.brokenScheduleFound ? "true" : "false")
      << ", \"schedule_faults\": " << r.brokenScheduleFaults
      << ", \"shrunk_faults\": " << r.brokenShrunkFaults << ", \"artifact\": "
      << (r.brokenArtifactJson.empty() ? "null" : r.brokenArtifactJson)
      << "},\n";
  out << "  \"violations\": [\n";
  for (size_t i = 0; i < r.violations.size(); ++i) {
    const Violation<typename Env::Fault>& v = r.violations[i];
    out << "    {\"workload\": \"" << jsonEscape(v.workload) << "\", \""
        << Env::kOpKey << "\": " << v.atOp;
    if (Env::kCrashes) {
      out << ", \"persist\": \"" << jsonEscape(v.persistMode)
          << "\", \"persist_seed\": " << v.persistSeed;
    }
    out << ", \"schedule\": " << scheduleJson<Env>(v.schedule)
        << ", \"detail\": \"" << jsonEscape(v.detail) << "\"}"
        << (i + 1 < r.violations.size() ? "," : "") << '\n';
  }
  out << "  ],\n";
  out << "  \"pass\": " << (r.pass ? "true" : "false") << "\n}\n";
  return out.str();
}

/// The text report every front end prints: per-workload table, totals,
/// schedule search, the environment's `arms` lines, the planted bug and
/// the kept violations.  Column and field names follow the JSON keys.
template <typename Env>
std::string exploreReport(const ExploreResult<typename Env::Fault>& r,
                          const std::string& arms = "") {
  std::ostringstream out;
  out << std::left << std::setw(22) << "workload" << std::right
      << std::setw(12) << "boundaries" << std::setw(14) << Env::kPointsKey;
  if (!Env::kCrashes) out << std::setw(10) << "denials";
  out << std::setw(12) << "violations" << '\n';
  for (const WorkloadStats& w : r.workloads) {
    out << std::left << std::setw(22) << w.name << std::right
        << std::setw(12) << w.boundaries << std::setw(14) << w.points;
    if (!Env::kCrashes) out << std::setw(10) << w.denials;
    out << std::setw(12) << w.violations << '\n';
  }
  out << "total: " << r.totalBoundaries << " boundaries, " << r.totalPoints
      << ' ' << Env::kPointsKey << ", " << r.totalViolations
      << " violations\n";
  out << "schedule search: " << r.scheduleRuns << " runs, ";
  if (Env::kCrashes) {
    out << r.scheduleCrashes << " crashed, " << r.scheduleChecks
        << " checks, ";
  } else {
    out << r.scheduleDenials << " denials, ";
  }
  out << r.scheduleViolations << " violations\n";
  out << arms;
  out << Env::kPlantedKey << ": caught " << (r.brokenCaught ? "yes" : "NO")
      << ", failing schedule "
      << (r.brokenScheduleFound ? "found" : "NOT FOUND") << " ("
      << r.brokenScheduleFaults << " faults), shrunk to "
      << r.brokenShrunkFaults << " fault(s)\n";
  if (!r.brokenArtifactJson.empty()) {
    out << "minimal artifact: " << r.brokenArtifactJson << '\n';
  }
  for (const Violation<typename Env::Fault>& v : r.violations) {
    out << "VIOLATION [" << v.workload << "] " << Env::kOpKey << '='
        << v.atOp;
    if (Env::kCrashes) out << " persist=" << v.persistMode;
    out << ": " << v.detail << '\n';
  }
  return out.str();
}

}  // namespace tagspin::eval
