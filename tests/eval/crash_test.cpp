#include "eval/crash.hpp"

#include <gtest/gtest.h>

namespace tagspin::eval {
namespace {

TEST(CrashEval, SmallExplorationHoldsEveryInvariant) {
  CrashExploreConfig cfg;
  cfg.checkpointSaves = 3;
  cfg.captureReports = 24;
  cfg.reopenExtraReports = 4;
  cfg.fleetShards = 2;
  cfg.fleetRounds = 2;
  cfg.persistSeeds = 2;
  cfg.scheduleRounds = 16;

  const CrashEvalResult r = runCrashEval(cfg);
  EXPECT_EQ(r.workloads.size(), 5u);
  EXPECT_GT(r.totalBoundaries, 0u);
  EXPECT_GT(r.totalPoints, r.totalBoundaries);
  EXPECT_EQ(r.totalViolations, 0u)
      << (r.violations.empty() ? "" : r.violations[0].detail);
  EXPECT_EQ(r.scheduleRuns, 16u);
  EXPECT_EQ(r.scheduleViolations, 0u);
  EXPECT_TRUE(r.pass);

  const std::string json = crashJson(r);
  EXPECT_NE(json.find("\"total_violations\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"pass\": true"), std::string::npos);
}

TEST(CrashEval, PlantedFsyncOrderingBugIsCaughtAndShrunk) {
  CrashExploreConfig cfg;
  // Keep the correct-writer arms tiny: this test is about the broken one.
  cfg.checkpointSaves = 1;
  cfg.captureReports = 8;
  cfg.reopenExtraReports = 2;
  cfg.fleetShards = 1;
  cfg.fleetRounds = 1;
  cfg.persistSeeds = 2;
  cfg.scheduleRounds = 4;

  const CrashEvalResult r = runCrashEval(cfg);
  EXPECT_TRUE(r.brokenCaught);
  ASSERT_TRUE(r.brokenScheduleFound);
  EXPECT_GE(r.brokenShrunkFaults, 1u);
  EXPECT_LE(r.brokenShrunkFaults, r.brokenScheduleFaults);
  // The artifact is a self-contained replay recipe.
  EXPECT_NE(r.brokenArtifactJson.find("\"schedule\""), std::string::npos);
  EXPECT_NE(r.brokenArtifactJson.find("\"fault_seed\""), std::string::npos);
  // The planted bug does not poison the correct writers' tally.
  EXPECT_EQ(r.totalViolations, 0u)
      << (r.violations.empty() ? "" : r.violations[0].detail);
  EXPECT_TRUE(r.pass);
}

TEST(CrashEval, ResultsAreDeterministicPerSeed) {
  CrashExploreConfig cfg;
  cfg.checkpointSaves = 2;
  cfg.captureReports = 16;
  cfg.reopenExtraReports = 2;
  cfg.fleetShards = 1;
  cfg.fleetRounds = 2;
  cfg.persistSeeds = 2;
  cfg.scheduleRounds = 8;
  cfg.seed = 1234;

  const std::string a = crashJson(runCrashEval(cfg));
  const std::string b = crashJson(runCrashEval(cfg));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace tagspin::eval
