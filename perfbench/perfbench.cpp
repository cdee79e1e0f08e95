// Reference benchmark binary: builds one workload from a seed, times
// set-up (Simulation::train, plus reader/source construction when the
// workload streams a trace file) and the run (Simulation::run) apart,
// repeats fresh set-up + run pairs until the time budget is spent, and
// prints every measurement as one JSON object on stdout. run.py turns
// that into the benchmark's metrics and checks the outputs.
//
// With --trace 1 it instead makes one untraced reference rep and one
// traced pass: the traced pass trains a fresh Simulation with obs
// collection on and hands sim::ShardEngine the simulation's own config
// and predictor plus two forwarding decorators — one over the scheduler
// (times every place() call) and one over the JobSource (times poll,
// next_event_slot and retire, and stamps every ticked slot). Both only
// observe, so the traced result must equal the untraced one field for
// field.
//
// CLI: perfbench --workload paper_palmetto|steady_100k|azure_replay
//                --seed N --seconds S --trace 0|1 [--fixture PATH]
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/scheduler.hpp"
#include "sim/experiment.hpp"
#include "sim/job_source.hpp"
#include "sim/shard_engine.hpp"
#include "sim/simulation.hpp"
#include "trace/generator.hpp"
#include "trace/stream_reader.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace corp;
using Clock = std::chrono::steady_clock;

/// Untraced runs set up and run at least this many times; run.py reports
/// the median of each timing over these reps.
constexpr std::size_t kMinReps = 3;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double milliseconds(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string fixture;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value != "0";
    } else if (flag == "--fixture") {
      args.fixture = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  return args;
}

// --- workloads -------------------------------------------------------------

/// Everything one workload needs besides the Simulation itself. The seed
/// only reaches the generated evaluation trace; azure_replay streams a
/// fixed, sha256-pinned fixture instead. The training corpus and the
/// simulation config are the same for every seed.
struct Workload {
  sim::SimulationConfig config;
  trace::Trace history;
  /// Evaluation trace; empty when the workload streams `fixture`.
  trace::Trace eval;
  std::string fixture;
  trace::StreamReaderConfig stream;
  std::size_t reader_threads = 0;
};

/// Palmetto testbed as Table II sizes it: 50 PMs x 4 VMs.
cluster::EnvironmentConfig palmetto() {
  cluster::EnvironmentConfig env =
      cluster::EnvironmentConfig::PalmettoCluster();
  env.vms_per_pm = 4;
  return env;
}

trace::Trace generate(const cluster::EnvironmentConfig& env, std::size_t jobs,
                      std::int64_t horizon, std::uint64_t seed) {
  const trace::GoogleTraceGenerator gen(
      sim::scaled_generator_config(env, jobs, horizon));
  util::Rng rng(seed);
  return gen.generate(rng);
}

/// CORP at the experiment harness's default aggressiveness, with the
/// run seed the harness would give it.
sim::SimulationConfig corp_config(const cluster::EnvironmentConfig& env,
                                  std::size_t threads, std::size_t shards) {
  sim::ExperimentConfig experiment;
  experiment.environment = env;
  experiment.params.threads = threads;
  experiment.params.shards = shards;
  sim::SimulationConfig config =
      sim::make_simulation_config(experiment, sim::Method::kCorp, 0.35);
  config.seed = sim::simulation_seed(experiment.seed, sim::Method::kCorp);
  return config;
}

Workload make_workload(const Args& args) {
  Workload w;
  // The experiment harness's one fixed historical corpus. Retraining per
  // seed would make the predictor's quality, and with it every outcome
  // metric, vary far more between seeds than the evaluation trace does.
  const std::uint64_t fixed_train_seed =
      sim::training_seed(sim::ExperimentConfig{}.seed);
  if (args.workload == "paper_palmetto") {
    // The paper's testbed and historical corpus (ExperimentConfig
    // defaults: 200 trace jobs over 240 slots), evaluated at Fig. 10's
    // pressure of 300 jobs per 10 slots held for 500 slots.
    const cluster::EnvironmentConfig env = palmetto();
    const sim::ExperimentConfig defaults;
    w.config = corp_config(env, 1, 1);
    w.history = generate(env, defaults.training_jobs,
                         defaults.training_horizon_slots, fixed_train_seed);
    constexpr std::size_t kJobs = 15'000;
    w.eval = generate(env, kJobs, 500, sim::evaluation_seed(args.seed, kJobs));
  } else if (args.workload == "steady_100k") {
    // 100k Palmetto-size VMs with ~10 trace jobs arriving every slot: the
    // per-slot O(VMs) view build and the serial placement scan dominate.
    cluster::EnvironmentConfig env = palmetto();
    env.name = "palmetto-100k";
    env.num_pms = 25'000;
    w.config = corp_config(env, 2, 2);
    w.history = generate(env, 40, 20, fixed_train_seed);
    constexpr std::size_t kJobs = 1500;
    w.eval = generate(env, kJobs, 150, sim::evaluation_seed(args.seed, kJobs));
  } else if (args.workload == "azure_replay") {
    // An Azure VM-readings fixture streamed through the paper's short-job
    // filter into CORP on Palmetto; the filter keeps a few dozen of ~149k
    // VMs, so ingest is nearly the whole run.
    if (args.fixture.empty()) {
      throw std::invalid_argument("azure_replay needs --fixture PATH");
    }
    const cluster::EnvironmentConfig env = palmetto();
    w.config = corp_config(env, 2, 1);
    w.history = generate(env, 10, 10, fixed_train_seed);
    w.fixture = args.fixture;
    w.stream.schema = trace::TraceSchema::kAzureVm;
    w.stream.long_tasks = trace::LongTaskPolicy::kDrop;
    w.reader_threads = 2;
  } else {
    throw std::invalid_argument("unknown workload " + args.workload);
  }
  return w;
}

/// A trained Simulation plus, for streaming workloads, its reader and
/// source. Owns everything one run touches.
struct Prepared {
  std::unique_ptr<sim::Simulation> simulation;
  std::unique_ptr<trace::StreamReader> reader;
  std::unique_ptr<sim::StreamingJobSource> source;
  double setup_s = 0.0;
};

Prepared prepare(const Workload& w, util::ThreadPool* reader_pool) {
  Prepared p;
  p.simulation = std::make_unique<sim::Simulation>(w.config);
  const Clock::time_point start = Clock::now();
  p.simulation->train(w.history);
  if (!w.fixture.empty()) {
    p.reader = std::make_unique<trace::StreamReader>(w.fixture, w.stream,
                                                     reader_pool);
    p.source = std::make_unique<sim::StreamingJobSource>(*p.reader);
  }
  p.setup_s = seconds_since(start);
  return p;
}

// --- decorators for the traced run ------------------------------------------

/// Forwards to the simulation's own scheduler and times each place().
class TimedScheduler final : public sched::Scheduler {
 public:
  explicit TimedScheduler(sched::Scheduler& inner) : inner_(inner) {}

  sched::Method method() const override { return inner_.method(); }
  void train(const predict::SeriesCorpus& corpus) override {
    inner_.train(corpus);
  }
  std::vector<sched::PlacementDecision> place(
      const std::vector<const sched::Job*>& batch,
      const sched::SchedulerContext& ctx) override {
    const Clock::time_point start = Clock::now();
    std::vector<sched::PlacementDecision> decisions = inner_.place(batch, ctx);
    call_ms.push_back(milliseconds(Clock::now() - start));
    offered += batch.size();
    for (const sched::PlacementDecision& d : decisions) {
      placed += d.batch_indices.size();
    }
    return decisions;
  }
  sched::ResourceVector reprovision(
      const sched::Job& job, const sched::DemandHistory& history,
      const sched::ResourceVector& current) override {
    return inner_.reprovision(job, history, current);
  }

  std::vector<double> call_ms;
  std::uint64_t offered = 0;
  std::uint64_t placed = 0;

 private:
  sched::Scheduler& inner_;
};

/// Forwards to the workload's JobSource, times the calls that can do
/// work (poll, next_event_slot, retire) and stamps every poll: the engine
/// polls exactly once per ticked slot, so consecutive stamps bound one
/// slot each.
class TimedSource final : public sim::JobSource {
 public:
  explicit TimedSource(sim::JobSource& inner) : inner_(inner) {}

  void poll(std::int64_t slot, std::vector<const trace::Job*>& out) override {
    const Clock::time_point start = Clock::now();
    slot_starts.push_back(start);
    inner_.poll(slot, out);
    busy += Clock::now() - start;
  }
  bool exhausted() const override { return inner_.exhausted(); }
  std::int64_t next_event_slot(std::int64_t after) override {
    const Clock::time_point start = Clock::now();
    const std::int64_t next = inner_.next_event_slot(after);
    busy += Clock::now() - start;
    return next;
  }
  std::int64_t horizon_slots() const override { return inner_.horizon_slots(); }
  void retire(const trace::Job& job) override {
    const Clock::time_point start = Clock::now();
    inner_.retire(job);
    busy += Clock::now() - start;
  }

  std::vector<Clock::time_point> slot_starts;
  Clock::duration busy{};

 private:
  sim::JobSource& inner_;
};

// --- output -----------------------------------------------------------------

/// Minimal JSON object writer: numbers keep every digit (%.17g), so run.py
/// compares exact doubles.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, std::isfinite(v) ? buf : "null");
  }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& text(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", values[i]);
    out += (i == 0 ? "" : ", ") + std::string(buf);
  }
  return out + "]";
}

/// Every SimulationResult field except the wall-clock latencies, which
/// differ run to run by design. The timeline is off in every run.
JsonObject result_fields(const sim::SimulationResult& r) {
  JsonObject o;
  o.num("overall_utilization", r.overall_utilization)
      .num("overall_wastage", r.overall_wastage)
      .raw("mean_utilization", array({r.mean_utilization.begin(),
                                      r.mean_utilization.end()}))
      .raw("mean_wastage",
           array({r.mean_wastage.begin(), r.mean_wastage.end()}))
      .num("slo_violation_rate", r.slo_violation_rate)
      .num("mean_stretch", r.mean_stretch)
      .count("jobs_completed", r.jobs_completed)
      .count("jobs_violated", r.jobs_violated)
      .count("jobs_forced", r.jobs_forced)
      .count("jobs_dropped", r.jobs_dropped)
      .count("opportunistic_placements", r.opportunistic_placements)
      .count("reserved_placements", r.reserved_placements)
      .count("lease_promotions", r.lease_promotions)
      .count("lease_preemptions", r.lease_preemptions)
      .count("vm_crashes", r.vm_crashes)
      .count("jobs_killed", r.jobs_killed)
      .count("job_retries", r.job_retries)
      .count("telemetry_gaps", r.telemetry_gaps)
      .count("degradation_tier", static_cast<std::uint64_t>(r.degradation_tier))
      .num("trust_lambda", r.trust_lambda)
      .count("slots_simulated", static_cast<std::uint64_t>(r.slots_simulated))
      .count("slots_ticked", static_cast<std::uint64_t>(r.slots_ticked))
      .count("slots_skipped", static_cast<std::uint64_t>(r.slots_skipped))
      .count("predictions_amortized", r.predictions_amortized);
  return o;
}

JsonObject stream_fields(const trace::StreamStats& s, std::size_t peak_live) {
  JsonObject o;
  o.count("bytes_read", s.bytes_read)
      .count("rows_parsed", s.rows_parsed)
      .count("tasks_opened", s.tasks_opened)
      .count("jobs_emitted", s.jobs_emitted)
      .count("jobs_dropped_long", s.jobs_dropped_long)
      .count("peak_open_tasks", s.peak_open_tasks)
      .count("peak_live_jobs", peak_live);
  return o;
}

/// Rows of the input trace: one per (job, slot) usage sample, the long
/// form trace_io writes. For a streamed file run.py uses rows_parsed.
std::uint64_t trace_rows(const trace::Trace& t) {
  std::uint64_t rows = 0;
  for (const trace::Job& job : t.jobs()) rows += job.usage.size();
  return rows;
}

/// One set-up + run, untraced: obs collection is off.
struct Rep {
  double setup_s = 0.0;
  double run_s = 0.0;
  sim::SimulationResult result;
  trace::StreamStats stream;
  std::size_t peak_live_jobs = 0;
};

Rep timed_rep(const Workload& w, util::ThreadPool* reader_pool) {
  Prepared p = prepare(w, reader_pool);
  Rep rep;
  rep.setup_s = p.setup_s;
  const Clock::time_point start = Clock::now();
  rep.result = p.source != nullptr ? p.simulation->run(*p.source)
                                   : p.simulation->run(w.eval);
  rep.run_s = seconds_since(start);
  if (p.reader != nullptr) {
    rep.stream = p.reader->stats();
    rep.peak_live_jobs = p.source->peak_live_jobs();
  }
  return rep;
}

JsonObject rep_json(const Rep& rep) {
  JsonObject o;
  o.num("setup_s", rep.setup_s)
      .num("run_s", rep.run_s)
      .num("total_latency_ms", rep.result.total_latency_ms)
      .raw("result", result_fields(rep.result).str());
  return o;
}

double phase_s(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.phases.find(name);
  return it == snap.phases.end() ? 0.0 : it->second.total_ms / 1e3;
}

std::uint64_t counter(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// The traced pass: a freshly trained Simulation driven through
/// ShardEngine with the two decorators, obs collection on.
JsonObject traced_pass(const Workload& w, util::ThreadPool* reader_pool) {
  obs::registry().reset();
  obs::set_enabled(true);
  Prepared p = prepare(w, reader_pool);
  const obs::MetricsSnapshot after_setup = obs::registry().snapshot();

  std::unique_ptr<sim::TraceJobSource> trace_source;
  sim::JobSource* inner = p.source.get();
  if (inner == nullptr) {
    trace_source = std::make_unique<sim::TraceJobSource>(w.eval);
    inner = trace_source.get();
  }
  TimedSource source(*inner);
  TimedScheduler scheduler(p.simulation->scheduler());
  std::unique_ptr<util::ThreadPool> pool;
  sim::ShardEngine engine(p.simulation->config(), p.simulation->predictor(),
                          scheduler, pool);
  const Clock::time_point start = Clock::now();
  const sim::SimulationResult result = engine.run(source);
  const Clock::time_point end = Clock::now();
  obs::set_enabled(false);
  const obs::MetricsSnapshot snap = obs::registry().snapshot();

  double sched_busy_ms = 0.0;
  for (const double ms : scheduler.call_ms) sched_busy_ms += ms;
  std::vector<double> slot_ms;
  slot_ms.reserve(source.slot_starts.size());
  for (std::size_t i = 0; i < source.slot_starts.size(); ++i) {
    const Clock::time_point next =
        i + 1 < source.slot_starts.size() ? source.slot_starts[i + 1] : end;
    slot_ms.push_back(milliseconds(next - source.slot_starts[i]));
  }

  JsonObject o;
  o.num("setup_s", p.setup_s)
      .num("run_s", std::chrono::duration<double>(end - start).count())
      .num("total_latency_ms", result.total_latency_ms)
      .raw("result", result_fields(result).str())
      .num("dnn_busy_s", phase_s(after_setup, "dnn.fit"))
      .count("dnn_sgd_steps", counter(after_setup, "dnn.sgd_steps"))
      .num("hmm_busy_s", phase_s(after_setup, "hmm.baum_welch"))
      .count("hmm_iterations", counter(after_setup, "hmm.bw_iterations"))
      .num("predict_busy_s", phase_s(snap, "sim.predict"))
      .count("predict_rows", counter(snap, "predict.batch.vector_rows"))
      .count("packed_pairs", counter(snap, "sched.packing_pair_matches"))
      .num("sched_busy_s", sched_busy_ms / 1e3)
      .raw("sched_call_ms", array(scheduler.call_ms))
      .count("sched_offered", scheduler.offered)
      .count("sched_placed", scheduler.placed)
      .num("source_busy_s", std::chrono::duration<double>(source.busy).count())
      .raw("slot_ms", array(slot_ms));
  if (p.reader != nullptr) {
    o.raw("stream",
          stream_fields(p.reader->stats(), p.source->peak_live_jobs()).str());
  }
  return o;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args = parse_args(argc, argv);
  obs::set_enabled(false);
  const Workload w = make_workload(args);
  std::unique_ptr<util::ThreadPool> reader_pool;
  if (w.reader_threads > 1) {
    reader_pool = std::make_unique<util::ThreadPool>(w.reader_threads);
  }

  JsonObject out;
  out.text("workload", args.workload)
      .count("seed", args.seed)
      .count("jobs_submitted", w.eval.size())
      .count("trace_rows", trace_rows(w.eval));

  // Untraced reps (obs off) until the time budget is spent, at least
  // kMinReps of them. A traced run needs only one untraced reference rep,
  // for its identity check and its overhead ratio.
  std::vector<Rep> reps;
  const Clock::time_point start = Clock::now();
  const std::size_t min_reps = args.trace ? 1 : kMinReps;
  while (reps.size() < min_reps ||
         (!args.trace && seconds_since(start) < args.seconds)) {
    reps.push_back(timed_rep(w, reader_pool.get()));
  }
  std::string reps_json = "[";
  for (std::size_t i = 0; i < reps.size(); ++i) {
    reps_json += (i == 0 ? "" : ", ") + rep_json(reps[i]).str();
  }
  out.raw("reps", reps_json + "]");
  if (!w.fixture.empty()) {
    out.raw("stream", stream_fields(reps.front().stream,
                                    reps.front().peak_live_jobs)
                          .str());
  }
  if (args.trace) out.raw("traced", traced_pass(w, reader_pool.get()).str());
  out.num("peak_rss_mb", peak_rss_mib());
  std::cout << out.str() << std::endl;
  return 0;
} catch (const std::exception& e) {
  std::cerr << "perfbench: error: " << e.what() << '\n';
  return 2;
}
