#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "sim/io_sim.hpp"

namespace tagspin::obs {
namespace {

TEST(PrometheusName, PrefixesAndSanitizes) {
  EXPECT_EQ(prometheusName("session.disconnects"),
            "tagspin_session_disconnects");
  EXPECT_EQ(prometheusName("span.llrp_decode"), "tagspin_span_llrp_decode");
  EXPECT_EQ(prometheusName("weird name/42"), "tagspin_weird_name_42");
}

TEST(ToPrometheus, EmitsTypedFamilies) {
  MetricsRegistry reg;
  reg.counter("session.disconnects")->add(3);
  reg.gauge("queue.depth")->set(17.0);
  Histogram* h = reg.histogram("span.fix2d");
  h->observe(0.2);
  h->observe(0.3);
  const std::string page = toPrometheus(reg.snapshot());

  EXPECT_NE(page.find("# TYPE tagspin_session_disconnects counter\n"
                      "tagspin_session_disconnects 3\n"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE tagspin_queue_depth gauge\n"
                      "tagspin_queue_depth 17\n"),
            std::string::npos);
  EXPECT_NE(page.find("# TYPE tagspin_span_fix2d summary"), std::string::npos);
  EXPECT_NE(page.find("tagspin_span_fix2d{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(page.find("tagspin_span_fix2d_count 2\n"), std::string::npos);
}

TEST(ToJson, StableShapeWithAndWithoutJournal) {
  MetricsRegistry reg;
  reg.counter("llrp.frames_decoded")->add(9);
  reg.histogram("span.preprocess")->observe(0.004);
  const MetricsSnapshot snap = reg.snapshot();

  const std::string bare = toJson(snap);
  EXPECT_NE(bare.find("\"counters\": {\"llrp.frames_decoded\": 9}"),
            std::string::npos);
  EXPECT_NE(bare.find("\"span.preprocess\": {\"count\": 1"),
            std::string::npos);
  EXPECT_EQ(bare.find("\"events\""), std::string::npos);

  EventJournal journal(4);
  journal.record(12.5, Severity::kWarn, "watchdog \"fired\"",
                 {{"session", "reader0"}});
  const std::string withEvents = toJson(snap, &journal);
  EXPECT_NE(withEvents.find("\"events_dropped\": 0"), std::string::npos);
  EXPECT_NE(withEvents.find("\"severity\": \"warn\""), std::string::npos);
  // Quotes inside the message must be escaped (the export is machine-read).
  EXPECT_NE(withEvents.find("watchdog \\\"fired\\\""), std::string::npos);
  EXPECT_NE(withEvents.find("\"session\": \"reader0\""), std::string::npos);
}

TEST(WriteTextFile, RoundTripsAndReportsFailure) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "tagspin_export_test.prom")
          .string();
  EXPECT_TRUE(writeTextFile(path, "tagspin_up 1\n"));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "tagspin_up 1");
  std::remove(path.c_str());
  // Unwritable path: false, no throw (export must never kill ingestion).
  EXPECT_FALSE(writeTextFile("/nonexistent_dir_tagspin/x.prom", "x"));
}

TEST(WriteTextFile, PowerCutAtEveryBoundaryLeavesOldOrNewNeverTorn) {
  // The sidecar export uses the same durable-replace recipe as the
  // checkpoint: a scraper must never see a half-written metrics page, no
  // matter where power dies.
  uint64_t boundaries = 0;
  {
    sim::SimIoEnv probe(sim::DiskImage{{"metrics.prom", "old_page 1\n"}});
    ASSERT_TRUE(writeTextFile("metrics.prom", "new_page 2\n", &probe));
    boundaries = probe.opCount();
  }
  ASSERT_GT(boundaries, 4u);
  for (uint64_t k = 0; k < boundaries; ++k) {
    sim::SimIoEnv env(sim::DiskImage{{"metrics.prom", "old_page 1\n"}});
    env.setCrashAtOp(static_cast<int64_t>(k));
    try {
      writeTextFile("metrics.prom", "new_page 2\n", &env);
      FAIL() << "power cut at op " << k << " did not surface";
    } catch (const sim::SimCrash&) {
    }
    for (const sim::CrashPersist::Mode mode :
         {sim::CrashPersist::Mode::kNone, sim::CrashPersist::Mode::kAll,
          sim::CrashPersist::Mode::kMetaOnly,
          sim::CrashPersist::Mode::kPrefix}) {
      const sim::DiskImage image = env.crashImage({mode, 5 * k + 1});
      const auto it = image.find("metrics.prom");
      ASSERT_NE(it, image.end()) << "cut at op " << k;
      EXPECT_TRUE(it->second == "old_page 1\n" || it->second == "new_page 2\n")
          << "cut at op " << k << ", mode " << sim::persistModeName(mode)
          << ": torn page \"" << it->second << '"';
    }
  }
}

}  // namespace
}  // namespace tagspin::obs
