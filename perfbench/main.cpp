// tagspin_perfbench: the benchmark program run.py builds and drives.
//
//   tagspin_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--tiny] [--plant-error-m <m>] [--out-dir <dir>]
//
// Prints a `detail` line (gates, digests, sample counts) and, as its last
// line, the result object {correct, attempted, failed, metrics}.  Exits 0
// whenever a result was printed -- a failed gate shows as correct: false --
// and non-zero on a usage error or an exception.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "harness.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using perfbench::jsonString;

int usage() {
  std::fprintf(stderr,
               "usage: tagspin_perfbench --workload "
               "fleet_serve|fleet_pool|survey3d|replay_drain --seed N "
               "--seconds S --trace 0|1 [--tiny] [--plant-error-m M] "
               "[--out-dir DIR]\n");
  return 2;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
        haveWorkload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = value() == "1";
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else if (arg == "--plant-error-m") {
        options.plantErrorM = std::stod(value());
      } else if (arg == "--out-dir") {
        options.outDir = value();
      } else if (arg == "--build-info") {
        std::cout << "{\"compiler\": " << jsonString(PERFBENCH_COMPILER)
                  << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
                  << ", \"cxx_flags\": " << jsonString(PERFBENCH_CXX_FLAGS)
                  << "}\n";
        return 0;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tagspin_perfbench: %s\n", e.what());
      return usage();
    }
  }
  if (!haveWorkload || options.seconds <= 0.0) return usage();

  perfbench::RunResult result;
  try {
    std::filesystem::create_directories(options.outDir);
    if (options.workload == "fleet_serve") {
      result = perfbench::runFleet(options, 0);
    } else if (options.workload == "fleet_pool") {
      result = perfbench::runFleet(options, 1);
    } else if (options.workload == "survey3d") {
      result = perfbench::runSurvey3d(options);
    } else if (options.workload == "replay_drain") {
      result = perfbench::runReplayDrain(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tagspin_perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }

  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "tagspin_perfbench: metric %s is not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  for (const std::string& failure : result.gateFailures) {
    std::fprintf(stderr, "gate failed: %s\n", failure.c_str());
  }
  std::cout << "detail {";
  for (size_t i = 0; i < result.details.size(); ++i) {
    std::cout << (i ? ", " : "") << jsonString(result.details[i].first)
              << ": " << result.details[i].second;
  }
  std::cout << "}\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    std::cout << (i ? ", " : "") << jsonString(m.name)
              << ": {\"value\": " << number(m.value)
              << ", \"unit\": " << jsonString(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
