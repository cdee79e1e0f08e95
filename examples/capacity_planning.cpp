// Scenario: offline capacity planning with the trace tooling.
//
// A provider has coarse (5-minute) monitoring records. This example walks
// the paper's own data path: resample to 10-second slots, drop long-lived
// jobs, export the result as CSV, then report the workload statistics a
// capacity planner needs — class mix, duration and request distributions,
// and the reservation-vs-usage gap that opportunistic provisioning can
// reclaim.
//
//   ./capacity_planning [output.csv]
#include <iostream>
#include <string>

#include "trace/generator.hpp"
#include "trace/resampler.hpp"
#include "trace/trace_io.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace corp;

  // 1. A coarse trace, as monitoring systems record it: one usage sample
  //    per 5 minutes. We synthesize it with the generator and then treat
  //    each recorded slot as a 5-minute sample.
  trace::GeneratorConfig config;
  config.num_jobs = 40;
  config.horizon_slots = 12;
  config.max_duration_slots = 60;  // includes some long-lived jobs
  config.duration_log_mu = 2.2;
  trace::GoogleTraceGenerator generator(config);
  util::Rng rng(21);
  trace::Trace coarse = generator.generate(rng);
  std::cout << "coarse trace: " << coarse.size()
            << " tasks at 5-minute resolution\n";

  // 2. The paper's transformation: 5-minute records -> 10-second slots,
  //    then remove long-lived jobs (> 5 minutes).
  trace::ResampleConfig resample;  // 30 fine slots per coarse sample
  util::Rng jitter_rng(22);
  trace::Trace fine;
  std::size_t removed = 0;
  for (const auto& job : coarse.jobs()) {
    if (job.duration_slots > trace::kShortJobMaxSlots) {
      ++removed;  // long-lived: dropped, as in Sec. IV
      continue;
    }
    fine.add(trace::resample_job(job, resample, jitter_rng));
  }
  fine.sort();
  std::cout << "resampled to 10-second slots; removed " << removed
            << " long-lived jobs, " << fine.size() << " remain\n";

  // 3. Export in the long CSV trace format for external tools.
  const std::string path = argc > 1 ? argv[1] : "/tmp/corp_planning.csv";
  trace::write_trace_csv_file(fine, path);
  std::cout << "trace written to " << path << "\n\n";

  // 4. Planner statistics.
  const auto hist = fine.class_histogram();
  util::TextTable mix({"class", "tasks"});
  for (std::size_t c = 0; c < hist.size(); ++c) {
    mix.add_row(std::string(trace::job_class_name(
                    static_cast<trace::JobClass>(c))),
                {static_cast<double>(hist[c])});
  }
  std::cout << mix.to_string() << '\n';

  std::vector<double> durations, cpu_requests, unused_fraction;
  for (const auto& job : fine.jobs()) {
    durations.push_back(static_cast<double>(job.duration_slots) *
                        trace::kSlotSeconds);
    cpu_requests.push_back(job.request.cpu());
    if (job.request.cpu() > 0) {
      unused_fraction.push_back(job.unused_at(0).cpu() / job.request.cpu());
    }
  }
  const auto dur = util::summarize(durations);
  const auto cpu = util::summarize(cpu_requests);
  const auto unused = util::summarize(unused_fraction);

  util::TextTable stats({"metric", "mean", "median", "p95", "max"});
  stats.add_row("duration (s)", {dur.mean, dur.median, dur.p95, dur.max});
  stats.add_row("cpu request (cores)",
                {cpu.mean, cpu.median, cpu.p95, cpu.max});
  stats.add_row("unused cpu fraction",
                {unused.mean, unused.median, unused.p95, unused.max});
  std::cout << stats.to_string();

  std::cout << "\nOn average " << static_cast<int>(unused.mean * 100)
            << "% of each reservation sits unused — the headroom CORP's "
               "opportunistic provisioning reclaims without new servers.\n";
  return 0;
}
