// Trace export. Format: one CSV row per (job, slot) usage sample,
// mirroring how cluster traces ship (long format), so external tools can
// consume generated traces (`corpsim trace-gen`).
//
// Columns:
//   job_id, class, submit_slot, duration_slots, slo_stretch,
//   req_cpu, req_mem, req_storage, slot, use_cpu, use_mem, use_storage
#pragma once

#include <iosfwd>
#include <string>

#include "trace/job.hpp"

namespace corp::trace {

/// Writes the trace in long CSV format; doubles carry 12 significant
/// digits.
void write_trace_csv(const Trace& trace, std::ostream& out);
void write_trace_csv_file(const Trace& trace, const std::string& path);

}  // namespace corp::trace
