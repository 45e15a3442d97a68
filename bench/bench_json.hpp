// Shared sidecar schema for the BENCH_*.json trajectory records.
//
// Every long-running bench (fig_soak, fig_chaos, fig_fleet, fig_replay)
// emits one machine-readable record so CI trending and the workflow
// artifacts read a single shape instead of four ad-hoc ones:
//
//   {
//     "bench":   "<name>",
//     "seed":    <u64>,
//     "pass":    <all gates true>,
//     "gates":   { "<gate>": true/false, ... },
//     "metrics": { "<metric>": <number>, ... },
//     "payload": { ...full harness JSON... }
//   }
//
// Gates are the binary acceptance criteria the binary's exit code is built
// from; metrics are the headline numbers worth trending without parsing
// the payload.  The payload embeds the harness's own JSON object verbatim
// (it must be a well-formed object; "" omits the key).
//
// numberArg() reads a bench's numeric positionals (trial counts, sizes,
// durations) strictly, the one way every bench does.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

namespace tagspin::bench {

struct BenchRecord {
  std::string name;
  uint64_t seed = 0;
  std::vector<std::pair<std::string, bool>> gates;
  std::vector<std::pair<std::string, double>> metrics;
  /// Full harness JSON object ("" omits the payload key).
  std::string payload;

  void gate(std::string key, bool pass) {
    gates.emplace_back(std::move(key), pass);
  }
  void metric(std::string key, double value) {
    metrics.emplace_back(std::move(key), value);
  }

  bool allGatesPass() const {
    for (const auto& [key, ok] : gates) {
      if (!ok) return false;
    }
    return true;
  }

  std::string toJson() const {
    std::ostringstream out;
    out << "{\n";
    out << "  \"bench\": \"" << name << "\",\n";
    out << "  \"seed\": " << seed << ",\n";
    out << "  \"pass\": " << (allGatesPass() ? "true" : "false") << ",\n";
    out << "  \"gates\": {";
    for (size_t i = 0; i < gates.size(); ++i) {
      out << (i ? ", " : "") << "\"" << gates[i].first << "\": "
          << (gates[i].second ? "true" : "false");
    }
    out << "},\n";
    out << "  \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
      char value[48];
      std::snprintf(value, sizeof(value), "%.9g", metrics[i].second);
      out << (i ? ", " : "") << "\"" << metrics[i].first << "\": " << value;
    }
    out << "}";
    if (!payload.empty()) {
      // The harness payloads end with "}\n"; indent-free embedding keeps
      // this emitter dumb and the output valid.
      std::string trimmed = payload;
      while (!trimmed.empty() &&
             (trimmed.back() == '\n' || trimmed.back() == ' ')) {
        trimmed.pop_back();
      }
      out << ",\n  \"payload\": " << trimmed;
    }
    out << "\n}\n";
    return out.str();
  }
};

/// Write the record to `path` and report it on stdout.
inline void writeBenchSidecar(const std::string& path,
                              const BenchRecord& record) {
  std::ofstream out(path);
  out << record.toJson();
  std::printf("wrote %s (pass=%s)\n", path.c_str(),
              record.allGatesPass() ? "true" : "false");
}

/// Positional `index` of a bench's command line as a T, or `fallback` when
/// there are fewer positionals.  An integral T takes a whole number (digits
/// only), a floating T a finite non-negative decimal.  Anything else -- say
/// "x.json" from `--json x.json`, which means `--json=x.json` -- prints the
/// bench's `usage` line and exits 2 before the bench runs or writes a file.
template <class T>
T numberArg(const std::vector<std::string>& pos, size_t index, T fallback,
            const char* usage) {
  if (index >= pos.size()) return fallback;
  const std::string& text = pos[index];
  const char* end = text.data() + text.size();
  T value{};
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  bool ok = !text.empty() && text[0] != '-' && error == std::errc() &&
            stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::fprintf(stderr, "not a %s: '%s'\nusage: %s\n",
                 std::is_integral_v<T> ? "whole number" : "number",
                 text.c_str(), usage);
    std::exit(2);
  }
  return value;
}

}  // namespace tagspin::bench
