#include "obs/export.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace corp::obs {

namespace {

/// Shortest round-trip double formatting; JSON has no NaN/inf literals,
/// so non-finite values serialize as null.
std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) return "0";
  return std::string(buf, end);
}

template <typename Map, typename Writer>
void write_object(std::ostream& out, const Map& map, Writer&& writer) {
  out << '{';
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(name) << "\":";
    writer(out, value);
  }
  out << '}';
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string metrics_json(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\"phases\":";
  write_object(out, snapshot.phases,
               [](std::ostream& os, const PhaseSnapshot& p) {
                 os << "{\"calls\":" << p.calls
                    << ",\"total_ms\":" << number(p.total_ms)
                    << ",\"mean_ms\":" << number(p.mean_ms)
                    << ",\"max_ms\":" << number(p.max_ms) << '}';
               });
  out << ",\"counters\":";
  write_object(out, snapshot.counters,
               [](std::ostream& os, std::uint64_t v) { os << v; });
  out << ",\"gauges\":";
  write_object(out, snapshot.gauges,
               [](std::ostream& os, double v) { os << number(v); });
  out << ",\"histograms\":";
  write_object(
      out, snapshot.histograms,
      [](std::ostream& os, const HistogramSnapshot& h) {
        os << "{\"count\":" << h.count << ",\"sum\":" << number(h.sum)
           << ",\"min\":" << number(h.min) << ",\"max\":" << number(h.max)
           << ",\"p50\":" << number(h.p50) << ",\"p90\":" << number(h.p90)
           << ",\"p99\":" << number(h.p99) << ",\"le\":[";
        for (std::size_t i = 0; i < h.bounds.size(); ++i) {
          if (i > 0) os << ',';
          os << number(h.bounds[i]);
        }
        os << "],\"cum\":[";
        for (std::size_t i = 0; i < h.cumulative.size(); ++i) {
          if (i > 0) os << ',';
          os << h.cumulative[i];
        }
        os << "]}";
      });
  out << '}';
  return out.str();
}

std::string snapshot_json(const MetricsSnapshot& snapshot,
                          const std::string& run_id) {
  std::ostringstream out;
  out << "{\"schema_version\":" << kSchemaVersion << ",\"run_id\":\""
      << json_escape(run_id) << "\",";
  const std::string inner = metrics_json(snapshot);
  // Splice the inner object's fields into the envelope.
  out << inner.substr(1);
  return out.str();
}

void append_jsonl(const std::string& path, const MetricsSnapshot& snapshot,
                  const std::string& run_id) {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    throw std::runtime_error("obs::append_jsonl: cannot open " + path);
  }
  out << snapshot_json(snapshot, run_id) << '\n';
}

}  // namespace corp::obs
