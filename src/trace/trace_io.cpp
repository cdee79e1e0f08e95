#include "trace/trace_io.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>

#include "util/csv.hpp"

namespace corp::trace {

namespace {
const std::vector<std::string> kHeader = {
    "job_id",  "class",    "submit_slot", "duration_slots",
    "slo_stretch", "req_cpu", "req_mem",     "req_storage",
    "slot",    "use_cpu",  "use_mem",     "use_storage"};
}  // namespace

void write_trace_csv(const Trace& trace, std::ostream& out) {
  util::CsvWriter writer(out);
  writer.write_row(kHeader);
  for (const auto& job : trace.jobs()) {
    for (std::size_t t = 0; t < job.usage.size(); ++t) {
      writer.write_row(std::vector<std::string>{
          std::to_string(job.id),
          std::to_string(static_cast<int>(job.job_class)),
          std::to_string(job.submit_slot),
          std::to_string(job.duration_slots),
          util::format_double(job.slo_stretch, 12),
          util::format_double(job.request.cpu(), 12),
          util::format_double(job.request.memory(), 12),
          util::format_double(job.request.storage(), 12),
          std::to_string(t),
          util::format_double(job.usage[t].cpu(), 12),
          util::format_double(job.usage[t].memory(), 12),
          util::format_double(job.usage[t].storage(), 12)});
    }
  }
}

void write_trace_csv_file(const Trace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("write_trace_csv_file: cannot open " + path);
  }
  write_trace_csv(trace, out);
}

}  // namespace corp::trace
