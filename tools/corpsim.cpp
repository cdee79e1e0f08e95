// corpsim — the command-line driver for the CORP reproduction.
//
//   corpsim run        run one method on one workload, print metrics
//   corpsim compare    run all four methods on the same workload
//   corpsim replicate  multi-seed replication with confidence intervals
//   corpsim trace-gen  synthesize a workload trace to CSV
//   corpsim stats      summarize a synthetic workload
//   corpsim backtest   walk-forward forecast scoring of one method's stack
//   corpsim help       this text
//
// Common flags: --env cluster|ec2|slurm-het, --jobs N, --seed S,
//               --metrics-out PATH (append obs snapshot as JSON lines),
//               --no-metrics 1 (disable collection).
// Each subcommand accepts only the flags it reads (known_flags below), so
// a flag it would ignore is an error rather than a silent no-op.
#include <fstream>
#include <iostream>
#include <optional>
#include <string>

#include "fault/fault.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "predict/backtest.hpp"
#include "predict/stacks.hpp"
#include "sim/job_source.hpp"
#include "sim/replication.hpp"
#include "sim/slot_clock.hpp"
#include "sim/workloads.hpp"
#include "trace/stats.hpp"
#include "trace/stream_reader.hpp"
#include "trace/trace_io.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace corp;

int usage() {
  std::cout <<
      R"(corpsim — CORP (CLUSTER 2016) reproduction driver

subcommands (every one accepts --env, --jobs, --seed, --metrics-out and
--no-metrics; each accepts only the other flags listed for it):
  run        --method corp|rccr|cloudscale|dra|pred-aware [--workload KIND]
             [--aggressiveness A] [--timeline out.csv] [--trust L|auto]
             [--trace-file trace.csv --trace-schema google-v2|azure-vm]
             [--long-tasks drop|segment] [--chunk-kb K]
             + scaling and fault-injection flags
  compare    [--workload KIND] [--aggressiveness A] — all four methods
             side by side; + scaling and fault-injection flags
  replicate  --method M [--reps R] [--aggressiveness A] [--trust L|auto]
             + scaling and fault-injection flags; adds 95% confidence
             intervals; replicas run in parallel on --threads T (0 = all
             cores) with bit-identical results to serial. Replicas run
             the figure harness's workload, so there is no --workload
  trace-gen  --out trace.csv [--workload KIND]
  stats      [--workload KIND]
  backtest   --method M [--workload KIND] [--aggressiveness A] —
             walk-forward forecast scoring
  help

workload kinds: paper-sweep (default), burst, trickle, heavy-tail,
                mixed-services

real traces (docs/traces.md): run accepts
  --trace-file PATH    stream a real trace (Google cluster-usage v2 task_usage
                       or Azure VM 5-minute CPU readings) through the
                       bounded-memory ingester instead of a synthetic workload
  --trace-schema S     google-v2 (default) | azure-vm
  --long-tasks P       drop (default: paper's short-job filter) | segment
  --chunk-kb K         ingest chunk size in KiB (throughput knob; results
                       are bit-identical for every K)
  the file supplies the jobs, so --workload, --jobs and --timeline are
  rejected with --trace-file, and so are VM crashes (--vm-mttf > 0); the
  other fault classes stream fine

environments: cluster (Palmetto, default), ec2 (Amazon EC2),
              slurm-het (mixed node classes with a capped burst partition)

scaling (docs/scaling.md): run/compare/replicate accept
  --threads T          worker threads (default 0 = all cores)
  --shards K           slot-engine shards (default 1; 0 = one shard per
                       worker thread); results are bit-identical for
                       every K, so this is purely a throughput knob
  --slot-clock C       dense | event (default): 'event' jumps over slots
                       where nothing can change (no queued or running
                       work) instead of ticking them; results are
                       bit-identical for both, so this too is purely a
                       throughput knob
  --predict-cadence C  slot (default) | window: 'window' re-runs the
                       batched prediction stack only when a job's
                       telemetry window watermark moves or the health
                       monitor changes tier — a documented semantic
                       change (a coarser forecast-refresh schedule),
                       itself bit-identical across shards/threads/clock

prediction-aware allocation (docs/resilience.md): run/replicate with
--method pred-aware accept
  --trust L|auto       trust λ in [0, 1] (default 1): 1 follows the
                       forecast like CORP, 0 is demand-based worst-case
                       admission, intermediate values blend the admission
                       thresholds; 'auto' drives λ online from predictor
                       health (degradation tier, window fault fraction,
                       Eq. 21 gate margin); other methods reject --trust

fault injection (docs/resilience.md): run/compare/replicate accept
  --fault-intensity A  canonical fault mix at intensity A in [0, 1]
                       (VM crashes, telemetry gaps, stragglers, poisoned
                       forecasts; 0 = fault-free, bit-identical to omitting
                       every fault flag)
  --vm-mttf S / --vm-mttr S            mean slots to VM failure / repair
  --gap-rate P / --gap-mean S          telemetry-gap open rate and length
  --straggler-rate P / --straggler-factor F   demand-spike stragglers
  --predictor-fault-rate P             poisoned raw forecasts
  --retry-budget N                     crash retries before a job is dropped
  individual knobs override the --fault-intensity mix; probabilities must
  lie in [0, 1]

observability (docs/observability.md): any subcommand accepts
  --metrics-out PATH   append the run's metrics snapshot to PATH as one
                       JSON line (schema_version/run_id/phases/counters/
                       gauges/histograms)
  --no-metrics 1       disable metric collection entirely
)";
  return 0;
}

/// Flags every subcommand reads.
const std::vector<std::string> kCommonFlags{"env", "jobs", "seed",
                                            "metrics-out", "no-metrics"};

/// Slot-engine and fault-model flags, read by the subcommands that run
/// simulations (run, compare, replicate).
const std::vector<std::string> kSimulationFlags{
    "threads",         "shards",         "slot-clock",
    "predict-cadence", "fault-intensity", "vm-mttf",
    "vm-mttr",         "gap-rate",       "gap-mean",
    "straggler-rate",  "straggler-factor", "predictor-fault-rate",
    "retry-budget"};

/// Known-flag list for one subcommand: the common set plus exactly the
/// flags it reads, so ArgParser rejects any flag it would ignore.
/// Unknown subcommands get an empty optional (caller prints usage).
std::optional<std::vector<std::string>> known_flags(
    const std::string& command) {
  std::vector<std::string> flags = kCommonFlags;
  auto add = [&flags](std::initializer_list<const char*> extra,
                      bool simulates) {
    flags.insert(flags.end(), extra.begin(), extra.end());
    if (simulates) {
      flags.insert(flags.end(), kSimulationFlags.begin(),
                   kSimulationFlags.end());
    }
    return flags;
  };
  if (command == "run") {
    return add({"method", "trust", "workload", "aggressiveness", "timeline",
                "trace-file", "trace-schema", "long-tasks", "chunk-kb"},
               true);
  }
  if (command == "compare") return add({"workload", "aggressiveness"}, true);
  if (command == "replicate") {
    return add({"method", "trust", "reps", "aggressiveness"}, true);
  }
  if (command == "trace-gen") return add({"workload", "out"}, false);
  if (command == "stats") return add({"workload"}, false);
  if (command == "backtest") {
    return add({"method", "workload", "aggressiveness"}, false);
  }
  return std::nullopt;
}

/// A probability flag; throws when outside [0, 1].
double get_probability(const util::ArgParser& args, const std::string& flag,
                       double fallback) {
  const double p = args.get_double(flag, fallback);
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("--" + flag + " must be in [0, 1], got " +
                                std::to_string(p));
  }
  return p;
}

/// A non-negative magnitude flag; throws on negative values.
double get_non_negative(const util::ArgParser& args, const std::string& flag,
                        double fallback) {
  const double v = args.get_double(flag, fallback);
  if (v < 0.0) {
    throw std::invalid_argument("--" + flag + " must be >= 0, got " +
                                std::to_string(v));
  }
  return v;
}

/// Builds the fault model from the CLI: --fault-intensity selects the
/// canonical mix, individual knobs override on top.
fault::FaultConfig faults_from(const util::ArgParser& args) {
  fault::FaultConfig faults;
  if (args.has("fault-intensity")) {
    faults = fault::scaled_fault_config(
        get_probability(args, "fault-intensity", 0.0));
  }
  faults.vm_mttf_slots =
      get_non_negative(args, "vm-mttf", faults.vm_mttf_slots);
  faults.vm_mttr_slots =
      get_non_negative(args, "vm-mttr", faults.vm_mttr_slots);
  faults.telemetry_gap_rate =
      get_probability(args, "gap-rate", faults.telemetry_gap_rate);
  faults.telemetry_gap_mean_slots =
      get_non_negative(args, "gap-mean", faults.telemetry_gap_mean_slots);
  faults.straggler_rate =
      get_probability(args, "straggler-rate", faults.straggler_rate);
  faults.straggler_demand_factor = get_non_negative(
      args, "straggler-factor", faults.straggler_demand_factor);
  faults.predictor_fault_rate = get_probability(
      args, "predictor-fault-rate", faults.predictor_fault_rate);
  faults.retry_budget = args.get_size("retry-budget", faults.retry_budget);
  return faults;
}

cluster::EnvironmentConfig env_from(const util::ArgParser& args) {
  const std::string name = args.get("env", "cluster");
  if (name == "cluster") return cluster::EnvironmentConfig::PalmettoCluster();
  if (name == "ec2") return cluster::EnvironmentConfig::AmazonEc2();
  if (name == "slurm-het") {
    return cluster::EnvironmentConfig::SlurmHeterogeneous();
  }
  throw std::invalid_argument("unknown --env " + name +
                              " (cluster|ec2|slurm-het)");
}

predict::Method method_from(const std::string& name) {
  if (name == "corp") return predict::Method::kCorp;
  if (name == "rccr") return predict::Method::kRccr;
  if (name == "cloudscale") return predict::Method::kCloudScale;
  if (name == "dra") return predict::Method::kDra;
  if (name == "pred-aware") return predict::Method::kPredAware;
  throw std::invalid_argument("unknown --method " + name);
}

/// Resolves --method. --trust parameterizes pred-aware alone: every other
/// method would silently ignore it, so a stray --trust is rejected.
predict::Method method_arg(const util::ArgParser& args) {
  const predict::Method method = method_from(args.get("method", "corp"));
  if (args.has("trust") && method != predict::Method::kPredAware) {
    throw std::invalid_argument(
        "--trust applies only to --method pred-aware");
  }
  return method;
}

/// Parses --trust into the params' (trust, trust_adaptive) pair. Rejects
/// anything that is not a full numeric literal in [0, 1] or the word
/// 'auto' — a silent clamp would turn a typo into a different experiment.
void apply_trust_flag(const util::ArgParser& args, sim::Params& params) {
  if (!args.has("trust")) return;
  const std::string text = args.get("trust", "1");
  if (text == "auto") {
    params.trust_adaptive = true;
    return;
  }
  double value = 0.0;
  std::size_t consumed = 0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  if (consumed != text.size() || !(value >= 0.0 && value <= 1.0)) {
    throw std::invalid_argument(
        "--trust must be a number in [0, 1] or 'auto', got " + text);
  }
  params.trust = value;
}

sim::WorkloadKind workload_from(const std::string& name) {
  for (sim::WorkloadKind kind : sim::kAllWorkloads) {
    if (sim::workload_name(kind) == name) return kind;
  }
  throw std::invalid_argument("unknown --workload " + name);
}

struct RunSetup {
  sim::ExperimentConfig experiment;
  sim::WorkloadKind workload = sim::WorkloadKind::kPaperSweep;
  std::size_t jobs = 150;
  double aggressiveness = 0.35;
};

RunSetup setup_from(const util::ArgParser& args) {
  RunSetup setup;
  setup.experiment.environment = env_from(args);
  setup.experiment.seed =
      static_cast<std::uint64_t>(args.get_int("seed", 7));
  setup.workload = workload_from(args.get("workload", "paper-sweep"));
  const std::int64_t jobs = args.get_int("jobs", 150);
  if (jobs < 1 || jobs > 1'000'000) {
    throw std::invalid_argument("--jobs must be in [1, 1000000], got " +
                                std::to_string(jobs));
  }
  setup.jobs = static_cast<std::size_t>(jobs);
  setup.aggressiveness = get_probability(args, "aggressiveness", 0.35);
  setup.experiment.params.threads = args.get_size("threads", 0);
  setup.experiment.params.shards = args.get_size("shards", 1);
  if (args.has("slot-clock")) {
    setup.experiment.params.slot_clock =
        sim::parse_slot_clock(args.get("slot-clock", "event"));
  }
  if (args.has("predict-cadence")) {
    setup.experiment.params.predict_cadence =
        sim::parse_predict_cadence(args.get("predict-cadence", "slot"));
  }
  apply_trust_flag(args, setup.experiment.params);
  setup.experiment.faults = faults_from(args);
  return setup;
}

/// Runs one method on the setup's workload (bypasses run_point so the
/// workload kind is honoured).
sim::PointResult run_method(const RunSetup& setup, predict::Method method,
                            const std::string& timeline_path) {
  const auto& experiment = setup.experiment;
  trace::GoogleTraceGenerator train_gen(sim::scaled_generator_config(
      experiment.environment, experiment.training_jobs,
      experiment.training_horizon_slots));
  util::Rng train_rng(sim::training_seed(experiment.seed));
  const trace::Trace training = train_gen.generate(train_rng);

  trace::GoogleTraceGenerator eval_gen(sim::workload_config(
      setup.workload, experiment.environment, setup.jobs));
  util::Rng eval_rng(sim::evaluation_seed(experiment.seed, setup.jobs));
  const trace::Trace evaluation = eval_gen.generate(eval_rng);

  sim::SimulationConfig config = sim::make_simulation_config(
      experiment, method, setup.aggressiveness);
  config.record_timeline = !timeline_path.empty();
  config.grace_slots = 1200;  // room for mixed-services workloads
  sim::Simulation simulation(std::move(config));
  simulation.train(training);
  sim::PointResult result;
  result.prediction =
      sim::evaluate_prediction_error(simulation.predictor(), evaluation);
  result.sim = simulation.run(evaluation);

  if (!timeline_path.empty()) {
    std::ofstream out(timeline_path);
    if (!out) throw std::runtime_error("cannot open " + timeline_path);
    result.sim.timeline.write_csv(out);
    std::cout << "timeline written to " << timeline_path << '\n';
  }
  return result;
}

void print_results(const std::vector<predict::Method>& methods,
                   const std::vector<sim::PointResult>& results,
                   bool faults_active) {
  util::TextTable table({"method", "overall util", "slo violation",
                         "pred error", "opportunistic", "latency ms"});
  for (std::size_t i = 0; i < methods.size(); ++i) {
    const auto& r = results[i];
    table.add_row(std::string(predict::method_name(methods[i])),
                  {r.sim.overall_utilization, r.sim.slo_violation_rate,
                   r.prediction.error_rate,
                   static_cast<double>(r.sim.opportunistic_placements),
                   r.sim.total_latency_ms});
  }
  std::cout << table.to_string();
  if (!faults_active) return;
  // Fault accounting is printed only when injection is active, so
  // fault-free invocations stay byte-identical to earlier releases.
  util::TextTable faults({"method", "crashes", "killed", "retries",
                          "dropped", "gaps", "degrade tier"});
  for (std::size_t i = 0; i < methods.size(); ++i) {
    const auto& r = results[i].sim;
    faults.add_row(std::string(predict::method_name(methods[i])),
                   {static_cast<double>(r.vm_crashes),
                    static_cast<double>(r.jobs_killed),
                    static_cast<double>(r.job_retries),
                    static_cast<double>(r.jobs_dropped),
                    static_cast<double>(r.telemetry_gaps),
                    static_cast<double>(r.degradation_tier)});
  }
  std::cout << "fault accounting:\n" << faults.to_string();
}

/// Streams a real trace file through the bounded-memory ingester into the
/// slot engine (no full-trace materialization). Training still uses the
/// synthetic corpus: real traces carry no ground-truth unused series for
/// the paper's training protocol.
int run_trace_stream(const util::ArgParser& args, const RunSetup& setup,
                     predict::Method method) {
  // The VM-crash plan is drawn once, over the horizon known when the run
  // starts, and a fresh stream knows none: crashes would silently stop
  // after the first grace span. The other fault classes are stateless per
  // (job, slot) and stream fine.
  if (setup.experiment.faults.vm_mttf_slots > 0.0) {
    throw std::invalid_argument(
        "--trace-file cannot inject VM crashes (--vm-mttf > 0, also set by "
        "--fault-intensity): the crash plan is sized from the horizon "
        "known at start, which a streamed trace does not have; pass "
        "--vm-mttf 0 to keep the other fault classes");
  }
  const std::string path = args.get("trace-file", "");
  trace::StreamReaderConfig stream;
  stream.schema =
      trace::parse_schema_name(args.get("trace-schema", "google-v2"));
  const std::string long_tasks = args.get("long-tasks", "drop");
  if (long_tasks == "drop") {
    stream.long_tasks = trace::LongTaskPolicy::kDrop;
  } else if (long_tasks == "segment") {
    stream.long_tasks = trace::LongTaskPolicy::kSegment;
  } else {
    throw std::invalid_argument("unknown --long-tasks " + long_tasks +
                                " (drop|segment)");
  }
  const std::size_t chunk_kb =
      args.get_size("chunk-kb", stream.chunk_bytes / 1024);
  if (chunk_kb == 0) {
    throw std::invalid_argument("--chunk-kb must be >= 1");
  }
  stream.chunk_bytes = chunk_kb * 1024;
  stream.seed = setup.experiment.seed;
  // Open the file before training, so an unreadable path fails at once.
  trace::StreamReader reader(path, stream);

  const auto& experiment = setup.experiment;
  trace::GoogleTraceGenerator train_gen(sim::scaled_generator_config(
      experiment.environment, experiment.training_jobs,
      experiment.training_horizon_slots));
  util::Rng train_rng(sim::training_seed(experiment.seed));
  const trace::Trace training = train_gen.generate(train_rng);

  sim::SimulationConfig config = sim::make_simulation_config(
      experiment, method, setup.aggressiveness);
  sim::Simulation simulation(std::move(config));
  simulation.train(training);

  std::cout << "streaming " << path << " ("
            << trace::schema_name(stream.schema) << ") into "
            << predict::method_name(method) << " on "
            << experiment.environment.name << "\n";
  sim::StreamingJobSource source(reader);
  const sim::SimulationResult result = simulation.run(source);

  const trace::StreamStats& stats = reader.stats();
  util::TextTable ingest({"phase", "rows", "jobs", "dropped long",
                          "segmented", "peak open", "peak live"});
  ingest.add_row("ingest",
                 {static_cast<double>(stats.rows_parsed),
                  static_cast<double>(stats.jobs_emitted),
                  static_cast<double>(stats.jobs_dropped_long),
                  static_cast<double>(stats.jobs_segmented),
                  static_cast<double>(stats.peak_open_tasks),
                  static_cast<double>(source.peak_live_jobs())});
  std::cout << ingest.to_string();
  util::TextTable table({"method", "overall util", "slo violation",
                         "completed", "opportunistic", "latency ms"});
  table.add_row(std::string(predict::method_name(method)),
                {result.overall_utilization, result.slo_violation_rate,
                 static_cast<double>(result.jobs_completed),
                 static_cast<double>(result.opportunistic_placements),
                 result.total_latency_ms});
  std::cout << table.to_string();
  return 0;
}

int cmd_run(const util::ArgParser& args) {
  const RunSetup setup = setup_from(args);
  const predict::Method method = method_arg(args);
  if (args.has("trace-file")) {
    // The file supplies the jobs and the streamed run keeps no timeline:
    // these flags would be silently ignored, so they are rejected before
    // the file is opened.
    for (const char* flag : {"workload", "jobs", "timeline"}) {
      if (args.has(flag)) {
        throw std::invalid_argument("--" + std::string(flag) +
                                    " does not apply to --trace-file");
      }
    }
    return run_trace_stream(args, setup, method);
  }
  std::cout << "running " << predict::method_name(method) << " on "
            << sim::workload_name(setup.workload) << " (" << setup.jobs
            << " jobs, " << setup.experiment.environment.name << ")\n";
  const auto result = run_method(setup, method, args.get("timeline", ""));
  print_results({method}, {result}, setup.experiment.faults.any());
  return 0;
}

int cmd_compare(const util::ArgParser& args) {
  const RunSetup setup = setup_from(args);
  std::cout << "comparing all methods on "
            << sim::workload_name(setup.workload) << " (" << setup.jobs
            << " jobs, " << setup.experiment.environment.name << ")\n";
  std::vector<predict::Method> methods(std::begin(predict::kAllMethods),
                                       std::end(predict::kAllMethods));
  std::vector<sim::PointResult> results;
  for (predict::Method m : methods) {
    results.push_back(run_method(setup, m, ""));
  }
  print_results(methods, results, setup.experiment.faults.any());
  return 0;
}

int cmd_replicate(const util::ArgParser& args) {
  const RunSetup setup = setup_from(args);
  const predict::Method method = method_arg(args);
  sim::ReplicationConfig replication;
  replication.replications = args.get_size("reps", replication.replications);
  replication.threads = setup.experiment.params.threads;
  std::cout << "replicating " << predict::method_name(method) << " x"
            << replication.replications << " (" << setup.jobs
            << " jobs)\n";
  const sim::ReplicatedPoint point = sim::run_replicated_point(
      setup.experiment, method, setup.jobs, replication,
      setup.aggressiveness);
  util::TextTable table({"metric", "mean", "95% half-width", "min", "max"});
  auto row = [&](const char* name, const sim::MetricEstimate& m) {
    table.add_row(name, {m.mean, m.half_width, m.min, m.max});
  };
  row("overall utilization", point.overall_utilization);
  row("slo violation rate", point.slo_violation_rate);
  row("prediction error rate", point.prediction_error_rate);
  row("opportunistic placements", point.opportunistic_placements);
  std::cout << table.to_string();
  std::cout << "timing: " << point.timing.wall_ms << " ms wall, "
            << point.timing.replicas_per_sec << " replicas/sec on "
            << point.timing.threads << " thread(s)\n";
  return 0;
}

int cmd_trace_gen(const util::ArgParser& args) {
  const RunSetup setup = setup_from(args);
  const std::string out = args.get("out", "trace.csv");
  trace::GoogleTraceGenerator gen(sim::workload_config(
      setup.workload, setup.experiment.environment, setup.jobs));
  util::Rng rng(setup.experiment.seed);
  const trace::Trace trace = gen.generate(rng);
  trace::write_trace_csv_file(trace, out);
  std::cout << "wrote " << trace.size() << " tasks ("
            << sim::workload_name(setup.workload) << ") to " << out << '\n';
  return 0;
}

int cmd_stats(const util::ArgParser& args) {
  const RunSetup setup = setup_from(args);
  trace::GoogleTraceGenerator gen(sim::workload_config(
      setup.workload, setup.experiment.environment, setup.jobs));
  util::Rng rng(setup.experiment.seed);
  const trace::Trace trace = gen.generate(rng);
  std::cout << "synthetic " << sim::workload_name(setup.workload)
            << " workload:\n\n";
  trace::print_stats(trace::compute_stats(trace), std::cout);
  return 0;
}

int cmd_backtest(const util::ArgParser& args) {
  const RunSetup setup = setup_from(args);
  const predict::Method method = method_arg(args);
  const auto& experiment = setup.experiment;

  trace::GoogleTraceGenerator train_gen(sim::scaled_generator_config(
      experiment.environment, experiment.training_jobs,
      experiment.training_horizon_slots));
  util::Rng train_rng(sim::training_seed(experiment.seed));
  const trace::Trace training = train_gen.generate(train_rng);
  trace::GoogleTraceGenerator eval_gen(sim::workload_config(
      setup.workload, experiment.environment, setup.jobs));
  util::Rng eval_rng(sim::evaluation_seed(experiment.seed, setup.jobs));
  const trace::Trace evaluation = eval_gen.generate(eval_rng);

  const predict::VectorCorpus train_corpus =
      sim::build_unused_corpus(training);
  const predict::VectorCorpus eval_corpus =
      sim::build_unused_corpus(evaluation);

  const predict::StackConfig stack_config =
      *sim::make_simulation_config(experiment, method,
                                   setup.aggressiveness)
           .stack;
  util::Rng rng(sim::simulation_seed(experiment.seed, method));
  auto stack = predict::make_stack(method, stack_config, rng);
  std::cout << "backtesting " << predict::method_name(method)
            << " on unused-CPU (request-normalized)...\n";
  stack->train(train_corpus.per_type[0]);
  const predict::BacktestReport report =
      predict::backtest(*stack, eval_corpus.per_type[0]);

  util::TextTable table({"metric", "value"});
  table.add_row("forecasts", {static_cast<double>(report.forecasts)});
  table.add_row("rmse", {report.rmse});
  table.add_row("mae", {report.mae});
  table.add_row("bias (actual - predicted)", {report.bias});
  table.add_row("coverage P(delta >= 0)", {report.coverage});
  table.add_row("band rate P(0 <= delta < eps)", {report.band_rate});
  std::cout << table.to_string();
  return 0;
}

int dispatch(const std::string& command, const util::ArgParser& args) {
  if (command == "run") return cmd_run(args);
  if (command == "compare") return cmd_compare(args);
  if (command == "replicate") return cmd_replicate(args);
  if (command == "trace-gen") return cmd_trace_gen(args);
  if (command == "stats") return cmd_stats(args);
  if (command == "backtest") return cmd_backtest(args);
  return 2;  // unreachable: main rejects unknown subcommands first
}

/// Exports the accumulated snapshot after a successful subcommand when
/// --metrics-out was given.
void export_metrics(const std::string& command,
                    const util::ArgParser& args) {
  const std::string jsonl_path = args.get("metrics-out", "");
  if (jsonl_path.empty()) return;
  const std::string run_id =
      "corpsim-" + command + "-seed" +
      std::to_string(args.get_int("seed", 7));
  obs::append_jsonl(jsonl_path, obs::registry().snapshot(), run_id);
  std::cout << "metrics appended to " << jsonl_path << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help") return usage();
  const std::optional<std::vector<std::string>> known = known_flags(command);
  if (!known.has_value()) {
    std::cerr << "error: unknown subcommand '" << command << "'\n\n";
    usage();
    return 2;
  }
  try {
    // ArgParser rejects flags outside the subcommand's known list, so a
    // typo'd or misplaced flag dies here with a diagnostic instead of
    // being silently ignored.
    const util::ArgParser args(argc, argv, 2, *known);
    obs::set_enabled(!args.has("no-metrics"));
    const int rc = dispatch(command, args);
    if (rc == 0) export_metrics(command, args);
    return rc;
  } catch (const std::invalid_argument& e) {
    // Bad invocation (unknown flag, out-of-range or malformed value):
    // diagnose, point at help, exit nonzero.
    std::cerr << "error: " << e.what() << '\n'
              << "run 'corpsim help' for usage\n";
    return 2;
  } catch (const std::exception& e) {
    // Runtime failure (unreadable trace, malformed input file, ...).
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
