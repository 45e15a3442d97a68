// Resource-exhaustion evaluation: the systematic falsifier for every
// memory-pressure claim in the tree, the allocation twin of eval/crash.
//
// The three escalating attacks of the fault-point explorer
// (eval/explore.hpp), all against sim::SimMemEnv (never the real
// allocator):
//
//  1. Exhaustive allocation-failure exploration.  Five workloads -- the
//     fleet at steady state, a session connect storm, a capture-replay
//     fan-out, a tracker ghost burst, and the shard checkpoint save path
//     -- are each probed once fault-free to count their reservation
//     boundaries, then re-run with an injected fault (deny / burst /
//     cliff / poison, cycled) at stride-sampled reservation indices.
//     After every injected run the environment's oracles and the
//     workload's own invariants are checked: no exception crossed the
//     workload boundary, accounting returned to zero (no leak), no
//     caller released bytes it never reserved (underflow) or grew past a
//     denial (budgetExceeded), the failure stayed isolated (sessions
//     quarantined <= denials injected; refused replay streams <= denials;
//     every other session/stream kept working), and once the injector is
//     disarmed and pressure cleared, reservations succeed again (full
//     recovery).
//
//  2. Seeded fault-schedule search.  Random multi-fault schedules are
//     thrown at the fleet steady-state path and checked against the same
//     invariants -- the combinations single-point exploration cannot
//     reach (a cliff landing mid-burst, poison during a trim retry).
//
//  3. Falsification proof.  A deliberately broken shed cache -- on a
//     denied reservation it "sheds" an entry it never admitted, the
//     classic release-without-reserve accounting bug -- is swept by the
//     same explorer; it must be caught (underflow oracle), and a failing
//     schedule found by search must shrink via ddmin to a minimal
//     replayable artifact.
//
// Two paired gates ride along: the PARITY gate runs the fleet once with
// memory accounting off and once with a fault-free SimMemEnv attached and
// requires bit-identical fix digests (the seam itself must cost nothing);
// the PRESSURE arm sizes shard budgets to ~80% end-state utilization from
// a probe run and requires the fleet to keep >= 99% of sessions fixed
// while trimming under sustained pressure.
//
// This file plugs in the workloads, the environment oracles and those two
// gates; the explorer owns the loops, tallies and output.
#pragma once

#include <cstdint>
#include <string>

#include "eval/explore.hpp"
#include "sim/mem_sim.hpp"

namespace tagspin::eval {

struct OomExploreConfig {
  uint64_t seed = 0x00A11C47ULL;

  /// Fleet-driven workloads (steady state, connect storm, checkpoint
  /// save): sessions, fault domains, and capture geometry.  Kept small --
  /// every sampled failure point replays the whole run.
  size_t fleetSessions = 6;
  size_t fleetShards = 2;
  double fleetRevolutions = 1.0;
  double tickS = 0.1;
  double settleS = 3.0;
  /// Ticks appended after the injector is disarmed mid-run -- the window
  /// the recovery invariants are measured over.
  double recoverS = 2.0;

  /// Replay fan-out workload: sessions sharing one capture, reports in it.
  size_t replaySessions = 8;
  size_t replayReports = 96;

  /// Tracker ghost burst: fixes fed (with periodic ghosts and gaps) and
  /// the bounded-history cap under test.
  size_t trackerFixes = 240;
  size_t trackerHistoryLimit = 64;

  /// Allocation-failure points sampled per workload (stride over the
  /// probe run's reservation count; fault kinds cycle deny / burst /
  /// cliff / poison).
  size_t pointsPerWorkload = 104;

  /// Seeded fault-schedule search over the fleet steady-state path.
  size_t scheduleRounds = 24;
  size_t maxScheduleFaults = 4;

  /// Planted release-without-reserve cache: operations per run, and
  /// schedules tried before giving up on finding a failing one to shrink.
  size_t brokenCacheOps = 64;
  size_t brokenSearchRounds = 200;

  /// Sustained-pressure arm: shard budgets sized to pressureBudgetFactor x
  /// the probe run's per-shard peak (1.25 => ~80% end-state utilization),
  /// fix rate must stay >= pressureMinFixRate.
  double pressureBudgetFactor = 1.25;
  double pressureMinFixRate = 0.99;
};

/// Points are injected runs (one fault each); the planted bug is the
/// release-without-reserve cache.
struct OomEvalResult : ExploreResult<sim::MemFault> {
  // Zero-injection parity gate.
  bool parityBitIdentical = false;
  std::string parityBaselineDigest;  // accounting off
  std::string paritySeamDigest;      // SimMemEnv attached, no faults

  // Sustained-pressure arm.
  double pressureFixRate = 0.0;
  double pressureUtilization = 0.0;  // peak / (shards * budget)
  uint64_t pressureShardBudgetBytes = 0;
  uint64_t pressureTrims = 0;
  uint64_t pressureEjections = 0;
  uint64_t pressureDeniedReserves = 0;
  bool pressureRecovered = false;  // accounting returned to zero after
};

OomEvalResult runOomEval(const OomExploreConfig& config);

/// Full result as JSON (the BENCH_oom.json payload).
std::string oomJson(const OomEvalResult& result);

/// The text report fig_oom and `tagspin_cli oom` print.
std::string oomReport(const OomEvalResult& result);

}  // namespace tagspin::eval
