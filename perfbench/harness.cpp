#include "harness.hpp"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "capture/digest.hpp"
#include "dsp/stats.hpp"

namespace perfbench {

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void RunResult::detail(const std::string& key, double value) {
  details.emplace_back(key, number(value));
}

void RunResult::detail(const std::string& key, const std::string& text) {
  details.emplace_back(key, jsonString(text));
}

void RunResult::gate(const std::string& name, bool ok,
                     const std::string& what) {
  details.emplace_back("gate." + name, ok ? "true" : "false");
  if (!ok) {
    correct = false;
    gateFailures.push_back(name + ": " + what);
  }
}

// ---------------------------------------------------------------- tracing

int Tracer::begin(const char* name, uint64_t request) {
  Span s;
  s.name = name;
  s.request = request;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - origin_)
                  .count();
  spans_.push_back(s);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::end(int span) {
  spans_[static_cast<size_t>(span)].endNs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  // Spans close in LIFO order; tolerate an out-of-order close by unwinding
  // to the closed span.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == span) break;
  }
}

double Tracer::seconds(int span) const {
  const Span& s = spans_[static_cast<size_t>(span)];
  return static_cast<double>(s.endNs - s.startNs) * 1e-9;
}

double Tracer::childSeconds(int span) const {
  // Children are recorded after their parent, so scan forward only.
  double sum = 0.0;
  for (size_t i = static_cast<size_t>(span) + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == span) sum += seconds(static_cast<int>(i));
  }
  return sum;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::map<std::string, Totals> out;
  std::vector<double> childSum(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      childSum[static_cast<size_t>(spans_[i].parent)] +=
          seconds(static_cast<int>(i));
    }
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    const double d = seconds(static_cast<int>(i));
    ++t.count;
    t.totalS += d;
    t.selfS += d - childSum[i];
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": " << jsonString(s.name)
        << ", \"start_ns\": " << s.startNs << ", \"end_ns\": " << s.endNs
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "],\n\"totals\": {\n";
  const auto all = totals();
  size_t k = 0;
  for (const auto& [name, t] : all) {
    out << "  " << jsonString(name) << ": {\"count\": " << t.count
        << ", \"total_s\": " << number(t.totalS)
        << ", \"self_s\": " << number(t.selfS) << "}"
        << (++k < all.size() ? ",\n" : "\n");
  }
  out << "}}\n";
}

// ------------------------------------------------------------- statistics

double percentile(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : tagspin::dsp::percentile(values, p);
}

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

tagspin::core::RigSpec rigSpecOf(const tagspin::sim::RigTag& rt) {
  tagspin::core::RigSpec spec;
  spec.center = rt.rig.center;
  spec.kinematics = {rt.rig.radiusM, rt.rig.omegaRadPerS, rt.rig.initialAngle,
                     rt.rig.tagPlaneOffset};
  return spec;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hex(uint64_t v) { return tagspin::capture::digestHex(v); }

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
