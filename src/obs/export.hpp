// Serialization of MetricsSnapshot: a single stable JSON schema shared by
// `corpsim --metrics-out`, every bench driver's `--json` record, and the
// CI bench-smoke gate (tools/validate_metrics.py enforces it).
//
// Schema (version 1), one object per line when appended as JSON lines:
//   {"schema_version":1,"run_id":"...",
//    "phases":{"<name>":{"calls":N,"total_ms":T,"mean_ms":M,"max_ms":X}},
//    "counters":{"<name>":N},
//    "gauges":{"<name>":V},
//    "histograms":{"<name>":{"count":N,"sum":S,"min":m,"max":M,
//                            "p50":..,"p90":..,"p99":..,
//                            "le":[b0,...],"cum":[c0,...]}}}
// `cum` holds cumulative bucket counts (monotone non-decreasing, last
// entry == count); `le` the matching upper bounds with an implicit +inf
// overflow bucket at the end.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace corp::obs {

inline constexpr int kSchemaVersion = 1;

/// The inner metrics object ({"phases":...,...}) without the envelope —
/// what the bench drivers nest under "metrics" in their timing records.
std::string metrics_json(const MetricsSnapshot& snapshot);

/// Full single-line record: envelope (schema_version, run_id) + metrics.
std::string snapshot_json(const MetricsSnapshot& snapshot,
                          const std::string& run_id);

/// Appends snapshot_json() as one JSON line; throws std::runtime_error
/// when the file cannot be opened.
void append_jsonl(const std::string& path, const MetricsSnapshot& snapshot,
                  const std::string& run_id);

/// JSON string escaping for metric names / run ids.
std::string json_escape(const std::string& text);

}  // namespace corp::obs
