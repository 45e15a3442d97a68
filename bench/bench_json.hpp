// The benches' one front end and the shared sidecar schema.
//
// Command line.  Every bench takes
//
//   <bench> [--seed=N] [--out=DIR] [--json[=PATH]] [positionals...]
//
// or the part of it its Spec declares.  Main parses it once: --seed and the
// numeric positionals strictly (whole numbers are digits only, decimals
// finite and non-negative), --json alone as PATH "BENCH_<name>.json",
// --out=DIR defaulting to "bench/out".  Any other argument starting with
// "--", a flag the bench does not take, or a malformed number prints the
// usage line and exits 2 before the bench runs or writes a file.  The
// grammar is `--key=value`: with positionals, `--json 4` could not say
// whether 4 is the path or the first positional.
//
// Sidecar.  A bench with a record name emits one machine-readable record,
// so CI trending and the workflow artifacts read a single shape:
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
// Gates are the binary acceptance criteria the exit code is built from;
// metrics are the headline numbers worth trending without parsing the
// payload, which embeds the harness's own JSON value ("" omits the key).
//
// Main::finish writes DIR/<prefix>.json (the payload) for a bench that
// takes --out, then the sidecar when --json asked for one, and returns the
// exit code: 0 iff every gate passed.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/json.hpp"

namespace tagspin::bench {

struct BenchRecord {
  std::string name;
  uint64_t seed = 0;
  std::vector<std::pair<std::string, bool>> gates;
  std::vector<std::pair<std::string, double>> metrics;
  /// Full harness JSON value ("" omits the payload key).
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
    obs::JsonWriter w;
    w.beginObject().field("bench", name).field("seed", seed);
    w.field("pass", allGatesPass()).key("gates").beginObject();
    for (const auto& [key, ok] : gates) w.field(key, ok);
    w.end().key("metrics").beginObject();
    for (const auto& [key, value] : metrics) w.field(key, value);
    w.end();
    if (!payload.empty()) w.key("payload").raw(payload);
    return w.end().str();
  }
};

/// What a bench's command line may carry besides its positionals.
struct Spec {
  const char* usage;
  /// Record name: the bench writes a sidecar and takes --json[=PATH].
  const char* name = nullptr;
  /// The bench's seed: it takes --seed=N, which overwrites *seed.
  uint64_t* seed = nullptr;
  /// The bench writes DIR/<prefix>.json (prefix "fig_<name>" unless the
  /// bench sets another) and takes --out=DIR.
  bool out = false;
};

class Main {
 public:
  /// Parses argv against `spec`, or prints the usage line and exits 2.
  Main(int argc, char** argv, Spec spec) : spec_(spec) {
    if (spec.name) record.name = spec.name;
    if (spec.out) prefix = "fig_" + record.name;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (!arg.starts_with("--")) {
        pos_.emplace_back(arg);
      } else if (spec.seed && arg.starts_with("--seed=")) {
        *spec.seed = parse<uint64_t>(arg.substr(7));
      } else if (spec.name && arg == "--json") {
        sidecar_ = "BENCH_" + record.name + ".json";
      } else if (spec.name && arg.starts_with("--json=") && arg.size() > 7) {
        sidecar_ = arg.substr(7);
      } else if (spec.out && arg.starts_with("--out=")) {
        dir_ = arg.size() > 6 ? arg.substr(6) : ".";
      } else {
        reject("unknown flag", arg);
      }
    }
    if (spec.seed) record.seed = *spec.seed;
  }

  /// Positional `index` as a T, or `fallback` when there are fewer.
  template <class T>
  T number(size_t index, T fallback) const {
    return index < pos_.size() ? parse<T>(pos_[index]) : fallback;
  }
  std::string text(size_t index, std::string fallback) const {
    return index < pos_.size() ? pos_[index] : fallback;
  }

  /// The output directory, created on first use.
  std::string dir() const {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    return dir_;
  }
  /// DIR/<prefix>, the directory created: output files append a suffix.
  std::string path() const {
    return (std::filesystem::path(dir()) / prefix).string();
  }

  /// Writes the payload and the sidecar; the exit code.
  int finish() const {
    if (spec_.out) {
      const std::string json = path() + ".json";
      std::ofstream(json) << record.payload;
      std::printf("wrote %s\n", json.c_str());
    }
    if (!sidecar_.empty()) {
      std::ofstream(sidecar_) << record.toJson();
      std::printf("wrote %s (pass=%s)\n", sidecar_.c_str(),
                  record.allGatesPass() ? "true" : "false");
    }
    return record.allGatesPass() ? 0 : 1;
  }

  BenchRecord record;
  std::string prefix;

 private:
  [[noreturn]] void reject(const char* what, std::string_view arg) const {
    std::fprintf(stderr, "%s: '%.*s'\nusage: %s\n", what,
                 static_cast<int>(arg.size()), arg.data(), spec_.usage);
    std::exit(2);
  }

  template <class T>
  T parse(std::string_view text) const {
    const char* end = text.data() + text.size();
    T value{};
    const auto [stop, error] = std::from_chars(text.data(), end, value);
    bool ok = !text.empty() && text[0] != '-' && error == std::errc() &&
              stop == end;
    if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
    if (!ok) {
      reject(std::is_integral_v<T> ? "not a whole number" : "not a number",
             text);
    }
    return value;
  }

  Spec spec_;
  std::vector<std::string> pos_;
  std::string sidecar_;
  std::string dir_ = "bench/out";
};

}  // namespace tagspin::bench
