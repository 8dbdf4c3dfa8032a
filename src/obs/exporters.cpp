#include "obs/exporters.h"

#include <cstdio>
#include <fstream>
#include <ostream>

namespace libra::obs {

namespace {

/// Fixed-format double for JSON/CSV output (no locale, no exponent surprises
/// for the magnitudes we emit).
std::string fmt_double(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string trace_event_json(const TraceEvent& ev) {
  std::string out = "{\"name\":\"" + json_escape(ev.name) + "\",\"cat\":\"" +
                    json_escape(ev.cat) + "\",\"ph\":\"" +
                    static_cast<char>(ev.ph) +
                    std::string("\",\"ts\":") +
                    fmt_double(ev.ts * 1e6)  // sim s -> trace us
                    + ",\"pid\":" + std::to_string(ev.pid) + ",\"tid\":" +
                    std::to_string(ev.tid);
  if (ev.ph == Phase::kInstant) out += ",\"s\":\"t\"";
  if (!ev.args_json.empty()) out += ",\"args\":" + ev.args_json;
  out += "}";
  return out;
}

bool write_chrome_trace(const TraceRecorder& recorder, const std::string& path,
                        std::string* error) {
  std::ofstream os(path);
  if (!os) return fail(error, "cannot open " + path + " for writing");
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& ev : recorder.events()) {
    if (!first) os << ",";
    first = false;
    os << "\n" << trace_event_json(ev);
  }
  os << "\n]}\n";
  os.flush();
  if (!os) return fail(error, "write to " + path + " failed");
  return true;
}

bool write_csv_timeseries(const MetricsRegistry& registry,
                          const std::string& path, std::string* error) {
  std::ofstream os(path);
  if (!os) return fail(error, "cannot open " + path + " for writing");
  os << "series,t,value\n";
  for (const auto& [name, series] : registry.all_series()) {
    for (const auto& [t, v] : series.samples())
      os << name << "," << fmt_double(t, 6) << "," << fmt_double(v, 6)
         << "\n";
  }
  os.flush();
  if (!os) return fail(error, "write to " + path + " failed");
  return true;
}

void write_summary(std::ostream& os, const TraceRecorder& recorder,
                   const MetricsRegistry& registry) {
  os << "== observability summary ==\n";
  os << "trace events: " << recorder.size();
  if (recorder.dropped() > 0) os << " (+" << recorder.dropped() << " dropped)";
  if (recorder.streamed() > 0)
    os << " (+" << recorder.streamed() << " streamed to ndjson sink)";
  os << "\n";
  if (!registry.counters().empty()) {
    os << "counters:\n";
    for (const auto& [name, c] : registry.counters())
      os << "  " << name << " = " << c.value() << "\n";
  }
  if (!registry.gauges().empty()) {
    os << "gauges:\n";
    for (const auto& [name, g] : registry.gauges())
      os << "  " << name << " = " << fmt_double(g.value()) << "\n";
  }
  if (!registry.histograms().empty()) {
    os << "histograms:\n";
    for (const auto& [name, h] : registry.histograms()) {
      os << "  " << name << ": count=" << h.count()
         << " mean=" << fmt_double(h.mean(), 4)
         << " p50=" << fmt_double(h.percentile(50), 4)
         << " p95=" << fmt_double(h.percentile(95), 4)
         << " p99=" << fmt_double(h.percentile(99), 4)
         << " max=" << fmt_double(h.max(), 4) << "\n";
    }
  }
  // Shard balance of the sharded scheduling phase (§6.4): the per-shard
  // decision-cost histograms double as per-shard decision counters, so the
  // spread between the busiest and idlest shard falls out of their counts.
  {
    static constexpr const char* kPrefix = "sched_decision_cost.shard";
    bool any = false;
    long min_count = 0, max_count = 0;
    std::string min_name, max_name;
    for (const auto& [name, h] : registry.histograms()) {
      if (name.rfind(kPrefix, 0) != 0) continue;
      if (!any || h.count() < min_count) min_count = h.count(), min_name = name;
      if (!any || h.count() > max_count) max_count = h.count(), max_name = name;
      any = true;
    }
    if (any) {
      os << "shard balance: busiest " << max_name << " (" << max_count
         << " decisions), idlest " << min_name << " (" << min_count
         << " decisions)";
      if (min_count > 0)
        os << ", imbalance "
           << fmt_double(static_cast<double>(max_count) /
                             static_cast<double>(min_count),
                         2)
           << "x";
      os << "\n";
    }
  }
  if (!registry.all_series().empty()) {
    os << "time series:\n";
    for (const auto& [name, s] : registry.all_series())
      os << "  " << name << ": " << s.samples().size() << " samples\n";
  }
}

}  // namespace libra::obs
