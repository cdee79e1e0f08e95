// Streaming-ingest benchmark and conformance harness: pushes a real-trace
// CSV file (Google cluster-usage v2 or Azure VM schema) through
// trace::StreamReader and — optionally — on into the sharded slot engine
// via sim::StreamingJobSource, without ever materializing the trace.
//
// Three phases, each feeding the metrics record bench-smoke-style:
//   1. ingest   — timed full-file streaming parse; publishes the
//                 trace.* counters, the trace.rows_per_second gauge and
//                 the reader's own split of that time
//                 (trace.parse_wait_seconds, trace.assemble_seconds);
//   2. differential — re-ingests the file serially with different chunk
//                 boundaries and compares a running hash of the emitted
//                 job stream against phase 1 (the parallel==serial
//                 determinism contract, re-checked on the real input
//                 before any timing is trusted, scale_study-style);
//   3. replay   — trains on a synthetic corpus (generated once, before
//                 any replay run — fixture metadata is CLI-independent
//                 and must not be re-derived per run), then streams the
//                 file into Simulation::run(JobSource&); publishes
//                 sim.slots_per_second. With --clock both the file is
//                 replayed under the dense tick-every-slot clock and the
//                 event-driven clock (sim/slot_clock.hpp) from the same
//                 hoisted training corpus, and the two results must
//                 match bit for bit; --require-skips N additionally
//                 demands the event run skipped at least N slots (the
//                 CI sparse-fixture gate).
//
// The CI trace-ingest job runs this under an address-space ceiling
// (ulimit -v) against a ~100 MiB generated fixture: the run only fits if
// the reader honours its bounded-memory contract, and the job then gates
// the trace.* counters with tools/validate_metrics.py.
//
// CLI: --trace PATH [--schema google-v2|azure-vm] [--long-tasks drop|segment]
//      [--chunk-kb K] [--threads N] [--seed S] [--replay 0|1]
//      [--clock dense|event|both] [--predict-cadence slot|window]
//      [--require-skips N] [--env cluster|ec2|slurm-het] [--json PATH]
//      [--metrics-out PATH] [--no-metrics 1]
#include <bit>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "figure_common.hpp"
#include "obs/metrics.hpp"
#include "sim/job_source.hpp"
#include "sim/simulation.hpp"
#include "sim/slot_clock.hpp"
#include "sim/workloads.hpp"
#include "trace/generator.hpp"
#include "trace/stream_reader.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace corp;

struct Options {
  std::string trace_path;
  trace::StreamReaderConfig stream;
  cluster::EnvironmentConfig environment =
      cluster::EnvironmentConfig::PalmettoCluster();
  bool replay = true;
  bool replay_dense = false;
  bool replay_event = true;
  sim::PredictCadence cadence = sim::PredictCadence::kEverySlot;
  std::int64_t require_skips = 0;
  bench::BenchOptions bench;
};

Options parse(int argc, char** argv) try {
  const util::ArgParser args(
      argc, argv, 1,
      {"trace", "schema", "long-tasks", "chunk-kb", "threads", "seed",
       "replay", "clock", "predict-cadence", "require-skips", "env", "json",
       "metrics-out", "no-metrics"});
  Options opts;
  opts.trace_path = args.get("trace", "");
  if (opts.trace_path.empty()) {
    throw std::invalid_argument("--trace PATH is required");
  }
  opts.stream.schema =
      trace::parse_schema_name(args.get("schema", "google-v2"));
  const std::string long_tasks = args.get("long-tasks", "drop");
  if (long_tasks == "drop") {
    opts.stream.long_tasks = trace::LongTaskPolicy::kDrop;
  } else if (long_tasks == "segment") {
    opts.stream.long_tasks = trace::LongTaskPolicy::kSegment;
  } else {
    throw std::invalid_argument("unknown --long-tasks " + long_tasks);
  }
  const std::size_t chunk_kb = args.get_size("chunk-kb", 4096);
  if (chunk_kb == 0) throw std::invalid_argument("--chunk-kb must be >= 1");
  opts.stream.chunk_bytes = chunk_kb * 1024;
  opts.replay = args.get_int("replay", 1) != 0;
  const std::string clock = args.get("clock", "event");
  if (clock == "both") {
    opts.replay_dense = true;
    opts.replay_event = true;
  } else {
    const sim::SlotClockMode mode = sim::parse_slot_clock(clock);
    opts.replay_dense = mode == sim::SlotClockMode::kDense;
    opts.replay_event = mode == sim::SlotClockMode::kEvent;
  }
  opts.cadence =
      sim::parse_predict_cadence(args.get("predict-cadence", "slot"));
  opts.require_skips = args.get_int("require-skips", 0);
  if (opts.require_skips < 0) {
    throw std::invalid_argument("--require-skips must be >= 0");
  }
  if (opts.require_skips > 0 && !opts.replay_event) {
    throw std::invalid_argument(
        "--require-skips needs an event-clock replay (--clock event|both)");
  }
  const std::string env = args.get("env", "cluster");
  if (env == "cluster") {
    opts.environment = cluster::EnvironmentConfig::PalmettoCluster();
  } else if (env == "ec2") {
    opts.environment = cluster::EnvironmentConfig::AmazonEc2();
  } else if (env == "slurm-het") {
    opts.environment = cluster::EnvironmentConfig::SlurmHeterogeneous();
  } else {
    throw std::invalid_argument("unknown --env " + env);
  }
  opts.bench.json_path = args.get("json", "");
  opts.bench.metrics_out = args.get("metrics-out", "");
  opts.bench.threads = args.get_size("threads", 0);
  opts.bench.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  opts.stream.seed = opts.bench.seed;
  obs::set_enabled(!args.has("no-metrics"));
  return opts;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n'
            << "usage: trace_replay --trace PATH [--schema S]"
               " [--long-tasks drop|segment] [--chunk-kb K] [--threads N]"
               " [--seed S] [--replay 0|1] [--clock dense|event|both]"
               " [--predict-cadence slot|window] [--require-skips N]"
               " [--env E] [--json PATH] [--metrics-out PATH]"
               " [--no-metrics 1]\n";
  std::exit(2);
}

/// Order-sensitive running hash of an emitted job stream: any divergence
/// in job identity, timing, request sizing or resampled usage between two
/// ingest configurations changes the digest. Keeps the differential check
/// O(1) in memory — the jobs themselves are discarded batch by batch.
class JobStreamHash {
 public:
  void absorb(const trace::Job& job) {
    mix(job.id);
    mix(static_cast<std::uint64_t>(job.submit_slot));
    mix(job.duration_slots);
    mix_double(job.slo_stretch);
    mix_vector(job.request);
    for (const trace::ResourceVector& u : job.usage) mix_vector(u);
  }

  std::uint64_t digest() const { return state_; }
  std::uint64_t jobs() const { return jobs_; }

  void count_job() { ++jobs_; }

 private:
  void mix(std::uint64_t v) {
    state_ = util::splitmix64_mix(state_ ^ (v + util::kSplitMix64Gamma));
  }
  void mix_double(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
  void mix_vector(const trace::ResourceVector& v) {
    for (std::size_t r = 0; r < trace::kNumResources; ++r) {
      mix_double(v[r]);
    }
  }

  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t jobs_ = 0;
};

struct IngestResult {
  trace::StreamStats stats;
  std::uint64_t digest = 0;
  std::uint64_t jobs = 0;
  double wall_ms = 0.0;
};

struct ReplayOutcome {
  sim::SimulationResult result;
  double run_ms = 0.0;
  std::size_t peak_live_jobs = 0;
};

/// One streamed replay of the trace under the given clock mode. The
/// training corpus is hoisted by the caller — it depends only on the
/// seed and environment, never on the clock — so every mode trains an
/// identical predictor stack from the same trace.
ReplayOutcome run_replay(const Options& opts, util::ThreadPool* pool,
                         const sim::ExperimentConfig& experiment,
                         const trace::Trace& training,
                         sim::SlotClockMode clock) {
  sim::SimulationConfig config = sim::make_simulation_config(
      experiment, sim::Method::kCorp, /*aggressiveness=*/0.35);
  config.params.slot_clock = clock;
  config.params.predict_cadence = opts.cadence;
  sim::Simulation simulation(std::move(config));
  simulation.train(training);

  trace::StreamReader reader(opts.trace_path, opts.stream, pool);
  sim::StreamingJobSource source(reader);
  ReplayOutcome outcome;
  const bench::BenchTimer replay_wall;
  outcome.result = simulation.run(source);
  outcome.run_ms = replay_wall.elapsed_ms();
  outcome.peak_live_jobs = source.peak_live_jobs();
  return outcome;
}

/// Clock-mode differential for --clock both: every result field must
/// match bit for bit except the clock diagnostics (ticked/skipped differ
/// by design) and wall-clock latencies.
void check_clock_identity(const ReplayOutcome& dense,
                          const ReplayOutcome& event) {
  const sim::SimulationResult& d = dense.result;
  const sim::SimulationResult& e = event.result;
  const bool identical =
      d.overall_utilization == e.overall_utilization &&
      d.overall_wastage == e.overall_wastage &&
      d.slo_violation_rate == e.slo_violation_rate &&
      d.mean_stretch == e.mean_stretch &&
      d.jobs_completed == e.jobs_completed &&
      d.jobs_violated == e.jobs_violated && d.jobs_forced == e.jobs_forced &&
      d.opportunistic_placements == e.opportunistic_placements &&
      d.reserved_placements == e.reserved_placements &&
      d.lease_promotions == e.lease_promotions &&
      d.lease_preemptions == e.lease_preemptions &&
      d.predictions_amortized == e.predictions_amortized &&
      d.slots_simulated == e.slots_simulated &&
      dense.peak_live_jobs == event.peak_live_jobs;
  if (!identical) {
    throw std::logic_error(
        "trace_replay: dense/event clock divergence on streamed replay");
  }
}

IngestResult ingest(const Options& opts,
                    const trace::StreamReaderConfig& config,
                    util::ThreadPool* pool, const char* phase) {
  const obs::ScopedTimer timer(phase);
  const bench::BenchTimer wall;
  trace::StreamReader reader(opts.trace_path, config, pool);
  JobStreamHash hash;
  do {
    reader.advance();
    for (const trace::Job& job : reader.take_ready()) {
      hash.absorb(job);
      hash.count_job();
    }
  } while (!reader.exhausted());
  IngestResult result;
  result.stats = reader.stats();
  result.digest = hash.digest();
  result.jobs = hash.jobs();
  result.wall_ms = wall.elapsed_ms();
  return result;
}

void publish_trace_metrics(const trace::StreamStats& stats, double rows_per_sec) {
  obs::MetricRegistry& reg = obs::registry();
  if (!reg.enabled()) return;
  reg.counter("trace.bytes_read").add(stats.bytes_read);
  reg.counter("trace.rows_parsed").add(stats.rows_parsed);
  reg.counter("trace.lines_seen").add(stats.lines_seen);
  reg.counter("trace.chunks_parsed").add(stats.chunks_parsed);
  reg.counter("trace.batches_mapped").add(stats.batches_mapped);
  reg.counter("trace.tasks_opened").add(stats.tasks_opened);
  reg.counter("trace.jobs_emitted").add(stats.jobs_emitted);
  reg.counter("trace.jobs_dropped_long").add(stats.jobs_dropped_long);
  reg.counter("trace.jobs_segmented").add(stats.jobs_segmented);
  reg.counter("trace.gap_fills").add(stats.gap_fills);
  obs::set_gauge("trace.peak_open_tasks",
                 static_cast<double>(stats.peak_open_tasks));
  obs::set_gauge("trace.rows_per_second", rows_per_sec);
  obs::set_gauge("trace.parse_wait_seconds", stats.parse_wait_seconds);
  obs::set_gauge("trace.assemble_seconds", stats.assemble_seconds);
}

}  // namespace

int main(int argc, char** argv) try {
  const Options opts = parse(argc, argv);
  const bench::BenchTimer total;

  const std::size_t workers = util::ThreadPool::resolve(opts.bench.threads);
  std::unique_ptr<util::ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<util::ThreadPool>(workers);

  // --- 1. timed ingest ---------------------------------------------------
  const IngestResult primary =
      ingest(opts, opts.stream, pool.get(), "trace.ingest");
  const double rows_per_sec =
      static_cast<double>(primary.stats.rows_parsed) * 1e3 /
      std::max(primary.wall_ms, 1e-6);
  publish_trace_metrics(primary.stats, rows_per_sec);

  // --- 2. differential: serial, different chunk boundaries ---------------
  // A third of the chunk width misaligns every boundary relative to phase
  // 1, and the serial path exercises the no-pool merge. Identical digests
  // on the real input re-pin the parallel==serial contract end to end.
  trace::StreamReaderConfig alt = opts.stream;
  alt.chunk_bytes = std::max<std::size_t>(4096, opts.stream.chunk_bytes / 3);
  alt.chunks_per_batch = 2;
  const IngestResult shuffled =
      ingest(opts, alt, nullptr, "trace.ingest_differential");
  if (shuffled.digest != primary.digest || shuffled.jobs != primary.jobs) {
    throw std::logic_error(
        "trace_replay: job stream diverged between chunkings (" +
        std::to_string(primary.jobs) + " vs " +
        std::to_string(shuffled.jobs) + " jobs)");
  }

  util::TextTable ingest_table({"phase", "rows", "jobs", "dropped",
                                "peak open", "rows/s"});
  ingest_table.add_row(
      "ingest", {static_cast<double>(primary.stats.rows_parsed),
                 static_cast<double>(primary.jobs),
                 static_cast<double>(primary.stats.jobs_dropped_long),
                 static_cast<double>(primary.stats.peak_open_tasks),
                 rows_per_sec});
  std::cout << ingest_table.to_string();
  std::cout << "differential: serial re-ingest matched (digest "
            << primary.digest << ", " << primary.jobs << " jobs)\n";

  std::size_t points = 2;

  // --- 3. streamed replay ------------------------------------------------
  if (opts.replay) {
    // Hoisted fixture metadata: the experiment shape and the synthetic
    // training corpus depend only on CLI seed/environment, so they are
    // derived exactly once here — never re-parsed or re-generated per
    // replay run, even when --clock both replays the file twice.
    sim::ExperimentConfig experiment;
    experiment.environment = opts.environment;
    experiment.seed = opts.bench.seed;
    experiment.params.threads = opts.bench.threads;
    trace::GoogleTraceGenerator train_gen(sim::scaled_generator_config(
        experiment.environment, experiment.training_jobs,
        experiment.training_horizon_slots));
    util::Rng train_rng(sim::training_seed(experiment.seed));
    const trace::Trace training = train_gen.generate(train_rng);

    util::TextTable replay_table({"phase", "slots", "ticked", "skipped",
                                  "slots/s", "completed", "overall util",
                                  "peak live"});
    const auto report = [&replay_table, &points](const char* phase,
                                                 const ReplayOutcome& run) {
      const double slots_per_sec =
          static_cast<double>(run.result.slots_simulated) * 1e3 /
          std::max(run.run_ms, 1e-6);
      replay_table.add_row(
          phase, {static_cast<double>(run.result.slots_simulated),
                  static_cast<double>(run.result.slots_ticked),
                  static_cast<double>(run.result.slots_skipped),
                  slots_per_sec,
                  static_cast<double>(run.result.jobs_completed),
                  run.result.overall_utilization,
                  static_cast<double>(run.peak_live_jobs)});
      ++points;
      return slots_per_sec;
    };

    std::optional<ReplayOutcome> dense;
    if (opts.replay_dense) {
      dense = run_replay(opts, pool.get(), experiment, training,
                         sim::SlotClockMode::kDense);
      const double rate = report("replay.dense", *dense);
      obs::set_gauge("trace.replay.slots_per_second.dense", rate);
    }
    std::optional<ReplayOutcome> event;
    if (opts.replay_event) {
      event = run_replay(opts, pool.get(), experiment, training,
                         sim::SlotClockMode::kEvent);
      const double rate = report("replay.event", *event);
      obs::set_gauge("trace.replay.slots_per_second.event", rate);
    }
    std::cout << replay_table.to_string();

    if (dense.has_value() && event.has_value()) {
      check_clock_identity(*dense, *event);
      std::cout << "clock differential: dense and event replays matched ("
                << event->result.slots_skipped << " slots skipped)\n";
    }
    if (opts.require_skips > 0 &&
        event->result.slots_skipped < opts.require_skips) {
      throw std::logic_error(
          "trace_replay: event clock skipped " +
          std::to_string(event->result.slots_skipped) + " slots, required " +
          std::to_string(opts.require_skips));
    }

    const ReplayOutcome& headline = event.has_value() ? *event : *dense;
    obs::set_gauge("sim.slots_per_second",
                   static_cast<double>(headline.result.slots_simulated) *
                       1e3 / std::max(headline.run_ms, 1e-6));
    obs::set_gauge("trace.peak_live_jobs",
                   static_cast<double>(headline.peak_live_jobs));
  }

  bench::finish(opts.bench, "trace_replay", total, points, workers);
  return 0;
} catch (const std::exception& e) {
  std::cerr << "error: " << e.what() << '\n';
  return 1;
}
