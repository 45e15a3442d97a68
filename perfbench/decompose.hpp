// Decomposed fix: the locator's stages called one by one through their
// public functions, in the order core::Locator::tryLocate2D/3D calls them,
// each call timed by a benchmark span.
//
// The pass exists to attribute fix time to layers from outside the
// program.  It reproduces the locator's arithmetic, so on the same
// observations its position should equal the locator's bit for bit; the
// caller compares the two and reports the match rate instead of failing,
// because a later change to the locator's internal order is allowed to
// make the replica drift.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/locator.hpp"
#include "harness.hpp"
#include "layers.hpp"

namespace perfbench {

/// Host time and snapshot-evaluations spent in one kind of spectrum sweep.
struct SweepTally {
  double seconds = 0.0;
  uint64_t snapshotEvals = 0;
};

struct DecomposedFix {
  bool ok = false;
  tagspin::geom::Vec3 position;
  std::vector<tagspin::core::RigDirection> directions;

  /// Computed profile-evaluation counts (direction evaluations; grid sizes
  /// times calls), split by the stage that asked for them.
  uint64_t healthEvals = 0;
  uint64_t searchEvals = 0;
  uint64_t diagEvals = 0;
  uint64_t bootstrapEvals = 0;

  SweepTally flatSweep;     // gamma = 0 azimuth sweeps
  SweepTally spatialSweep;  // (phi, gamma) sweeps
};

/// Run the decomposed pass over `observations` with the locator's
/// `config` and `thresholds`.  Spans are children of whatever span is open
/// on `tracer`, tagged with `request`.
DecomposedFix decomposeFix(const tagspin::core::LocatorConfig& config,
                           const tagspin::core::RigHealthThresholds& thresholds,
                           std::span<const tagspin::core::RigObservation>
                               observations,
                           bool threeD, Tracer& tracer, uint64_t request);

/// Running totals over many decomposed fixes, turned into the locator-side
/// per-layer metrics.
struct DecompositionTally {
  size_t fixes = 0;
  size_t matches = 0;
  /// Time of the real locator call on the same observations, and the sum
  /// of the decomposed pass's direct child spans.
  double locatorSeconds = 0.0;
  double childSeconds = 0.0;
  uint64_t healthEvals = 0;
  uint64_t searchEvals = 0;
  uint64_t diagEvals = 0;
  uint64_t bootstrapEvals = 0;
  SweepTally flatSweep;
  SweepTally spatialSweep;

  void add(const DecomposedFix& fix, double locatorS, double childS,
           bool match);
  void fill(MetricSheet& sheet,
            const std::map<std::string, Tracer::Totals>& totals) const;
};

}  // namespace perfbench
