// Crash-consistency evaluation: the systematic falsifier for every
// durability claim in the tree.
//
// The three escalating attacks of the fault-point explorer
// (eval/explore.hpp), all against sim::SimIoEnv (never the real disk):
//
//  1. Exhaustive crash-point exploration.  Each scripted workload --
//     repeated checkpoint saves, capture append, capture reopen (clean and
//     torn), and the fleet shard-checkpoint fan-out -- is run once per
//     syscall boundary with a power cut scheduled exactly there.  At every
//     cut the post-crash disk is materialized under a set of write-back
//     persistence variants (nothing / everything / metadata-only /
//     seeded-prefix-with-torn-write / seeded-reordered-subset), *real*
//     recovery is run against it (CheckpointStore::load, scanValidPrefix +
//     decodeCaptureTolerant, CaptureWriter reopen-and-extend), and the
//     workload's oracle checks the invariants: a checkpoint is bit-identical
//     to old-or-new, a capture decodes to a valid prefix of what was
//     appended that covers everything acked as fsynced, and reopen resumes
//     without corrupting earlier chunks.
//
//  2. Seeded fault-schedule search.  Random schedules of injected faults
//     (EIO, ENOSPC, EINTR, short writes, partially-persisting fsync
//     failures, and power cuts) by global syscall index are thrown at the
//     fleet fan-out path; crashing runs are checked across all persistence
//     variants, surviving runs against the live state plus a no-.tmp-litter
//     invariant.
//
//  3. Falsification proof.  A deliberately broken writer (tmp+rename
//     WITHOUT the data fsync -- the classic ordering bug) is swept by the
//     same explorer; it must be caught, and a failing fault schedule found
//     by search must shrink, via delta debugging (ddminShrink), to a
//     minimal replayable artifact (seed + schedule JSON) of the kind a bug
//     report would carry.
//
// This file plugs in the workloads, the old-or-new oracle and the
// persistence variants; the explorer owns the loops, tallies and output.
#pragma once

#include <cstdint>
#include <string>

#include "eval/explore.hpp"
#include "sim/io_sim.hpp"

namespace tagspin::eval {

struct CrashExploreConfig {
  uint64_t seed = 0xC4A5117ULL;

  /// Checkpoint workload: save() this many growing checkpoints in a row.
  size_t checkpointSaves = 10;

  /// Capture workloads: reports appended per run, chunking and fsync
  /// cadence of the writer under test.
  size_t captureReports = 120;
  size_t chunkReports = 8;
  size_t fsyncEveryChunks = 2;
  /// Reports appended by the reopen-and-extend recovery check.
  size_t reopenExtraReports = 10;

  /// Fleet fan-out workload: shards x rounds of framed durable writes with
  /// the per-shard catch fleet.cpp uses (a failed shard checkpoint must not
  /// kill the tick).
  size_t fleetShards = 3;
  size_t fleetRounds = 4;

  /// Seeded persistence variants per random mode (kPrefix and kSubset each
  /// get this many seeds; kNone/kAll/kMetaOnly are deterministic).
  size_t persistSeeds = 4;

  /// Fault-schedule search: random schedules thrown at the fleet fan-out
  /// path, and the cap on faults per schedule.
  size_t scheduleRounds = 96;
  size_t maxScheduleFaults = 4;

  /// Schedules tried against the broken writer before giving up on finding
  /// a failing one to shrink.
  size_t brokenSearchRounds = 400;
};

using CrashViolation = Violation<sim::Fault>;

/// Points are crash-point recoveries (boundary x persistence variant); the
/// planted bug is the broken writer.
using CrashEvalResult = ExploreResult<sim::Fault>;

CrashEvalResult runCrashEval(const CrashExploreConfig& config);

/// Full result as JSON (the BENCH_crash.json payload).
std::string crashJson(const CrashEvalResult& result);

/// The text report fig_crash and `tagspin_cli crash` print.
std::string crashReport(const CrashEvalResult& result);

}  // namespace tagspin::eval
