#include "obs/export.hpp"

#include <cctype>
#include <cstdio>
#include <sstream>

#include "obs/json.hpp"

namespace tagspin::obs {

namespace {

/// %.9g prints doubles compactly without losing latency resolution.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::string prometheusName(const std::string& name) {
  std::string out = "tagspin_";
  for (char c : name) {
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  }
  return out;
}

std::string toPrometheus(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string p = prometheusName(name);
    out << "# TYPE " << p << " counter\n";
    out << p << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string p = prometheusName(name);
    out << "# TYPE " << p << " gauge\n";
    out << p << ' ' << num(value) << '\n';
  }
  for (const HistogramView& h : snapshot.histograms) {
    const std::string p = prometheusName(h.name);
    out << "# TYPE " << p << " summary\n";
    out << p << "{quantile=\"0.5\"} " << num(h.p50) << '\n';
    out << p << "{quantile=\"0.9\"} " << num(h.p90) << '\n';
    out << p << "{quantile=\"0.99\"} " << num(h.p99) << '\n';
    out << p << "_sum " << num(h.sum) << '\n';
    out << p << "_count " << h.count << '\n';
  }
  return out.str();
}

std::string toJson(const MetricsSnapshot& snapshot,
                   const EventJournal* journal) {
  JsonWriter w;
  w.beginObject().key("counters").beginObject();
  for (const auto& [name, value] : snapshot.counters) w.field(name, value);
  w.end().key("gauges").beginObject();
  for (const auto& [name, value] : snapshot.gauges) w.field(name, value);
  w.end().key("histograms").beginObject();
  for (const HistogramView& h : snapshot.histograms) {
    w.key(h.name).beginObject();
    w.field("count", h.count).field("sum", h.sum).field("min", h.min);
    w.field("max", h.max).field("p50", h.p50).field("p90", h.p90);
    w.field("p99", h.p99).end();
  }
  w.end();
  if (journal) {
    w.field("events_dropped", journal->dropped());
    w.key("events").beginArray();
    for (const Event& ev : journal->events()) {
      w.beginObject().field("t", ev.wallS);
      w.field("severity", severityName(ev.severity)).field("what", ev.what);
      for (const auto& [key, value] : ev.fields) w.field(key, value);
      w.end();
    }
    w.end();
  }
  return w.end().str();
}

bool writeTextFile(const std::string& path, const std::string& contents,
                   core::IoEnv* io) {
  // Truncate-in-place would leave torn JSON if the process (or the power)
  // dies mid-write; scrapers and CI trenders read these files while the
  // system runs, so they get the same old-or-new contract as checkpoints.
  return core::writeFileDurableNoThrow(core::resolveIo(io), path, contents);
}

}  // namespace tagspin::obs
