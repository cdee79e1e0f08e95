#include "sim/simulation.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/baseline_schedulers.hpp"
#include "sched/corp_scheduler.hpp"
#include "sim/shard_engine.hpp"
#include "util/rng.hpp"

namespace corp::sim {

namespace {

using trace::Job;
using trace::kNumResources;
using trace::ResourceVector;

/// Training series length after concatenation. Individual short-lived
/// jobs are seconds long; a VM, however, observes a *continuous* unused-
/// resource signal as successive short jobs run on it. Concatenating the
/// trace's per-job series in submit order and segmenting reproduces that
/// signal and gives the windowed predictors enough samples to train on.
constexpr std::size_t kTrainingSegmentSlots = 150;

std::vector<std::vector<double>> segment(const std::vector<double>& series) {
  std::vector<std::vector<double>> out;
  for (std::size_t start = 0; start + kTrainingSegmentSlots <= series.size();
       start += kTrainingSegmentSlots) {
    out.emplace_back(series.begin() + start,
                     series.begin() + start + kTrainingSegmentSlots);
  }
  if (out.empty() && !series.empty()) out.push_back(series);
  return out;
}

}  // namespace

predict::VectorCorpus build_unused_corpus(const trace::Trace& trace) {
  // Concatenate per-type unused series across jobs in submit order. The
  // series are *request-normalized* (unused / request, in [0, 1]): jobs'
  // absolute requests span orders of magnitude, and predicting raw
  // amounts across job boundaries would drown the signal in cross-job
  // scale variance. Callers de-normalize with the job's request.
  std::array<std::vector<double>, kNumResources> concatenated;
  for (const Job& job : trace.jobs()) {
    for (std::size_t t = 0; t < job.usage.size(); ++t) {
      const ResourceVector unused = job.unused_at(t);
      for (std::size_t r = 0; r < kNumResources; ++r) {
        if (job.request[r] > 0.0) {
          concatenated[r].push_back(unused[r] / job.request[r]);
        }
      }
    }
  }
  predict::VectorCorpus corpus;
  for (std::size_t r = 0; r < kNumResources; ++r) {
    corpus.per_type[r] = segment(concatenated[r]);
  }
  return corpus;
}

predict::SeriesCorpus build_utilization_corpus(const trace::Trace& trace) {
  std::vector<double> concatenated;
  for (const Job& job : trace.jobs()) {
    for (std::size_t r = 0; r < kNumResources; ++r) {
      if (job.request[r] <= 0.0) continue;
      for (const auto& u : job.usage) {
        concatenated.push_back(u[r] / job.request[r]);
      }
    }
  }
  return segment(concatenated);
}

trace::GeneratorConfig scaled_generator_config(
    const cluster::EnvironmentConfig& env, std::size_t num_jobs,
    std::int64_t horizon_slots) {
  trace::GeneratorConfig config;
  config.num_jobs = num_jobs;
  config.horizon_slots = horizon_slots;
  // Jobs sized so a VM hosts ~8-12 of them: enough reserved tenants per VM
  // that their pooled temporarily-unused resource can carry an extra
  // opportunistic job, as in the paper's Fig. 5 example.
  const ResourceVector vm = env.vm_capacity();
  config.cpu_request_high = 0.11 * vm.cpu();
  config.cpu_request_low = 0.03 * vm.cpu();
  config.mem_request_high = 0.11 * vm.memory();
  config.mem_request_low = 0.03 * vm.memory();
  config.storage_request_high = 0.09 * vm.storage();
  config.storage_request_low = 0.02 * vm.storage();
  // Median duration ~7 slots (70 s) with the 5-minute short-job cap.
  config.duration_log_mu = 2.0;
  config.request_cap = vm * 0.9;
  // Short-lived queries are latency-sensitive: the response-time SLO sits
  // tight above the nominal execution time (Sec. IV derives it from the
  // trace execution time).
  config.slo_stretch = 1.10;
  return config;
}

Simulation::Simulation(SimulationConfig config) : config_(std::move(config)) {
  util::Rng rng(config_.seed);
  const predict::StackConfig stack =
      config_.stack.value_or(config_.params.stack_config());
  predictor_ = std::make_unique<predict::VectorPredictor>(
      config_.method, stack, rng, config_.enable_hmm_correction,
      config_.enable_confidence_bound);
  switch (config_.method) {
    case Method::kCorp:
    case Method::kPredAware: {
      // One placement loop for both: CORP is the trust input fixed at
      // λ = 1; pred-aware takes Params' λ. Either way the tie-break stream
      // hangs off the run seed like every other per-run stream.
      const bool pred_aware = config_.method == Method::kPredAware;
      scheduler_ = std::make_unique<sched::CorpScheduler>(
          config_.corp_scheduler.value_or(sched::CorpSchedulerConfig{}),
          config_.method, pred_aware ? config_.params.trust : 1.0,
          pred_aware && config_.params.trust_adaptive, config_.seed);
      break;
    }
    case Method::kRccr:
      scheduler_ = std::make_unique<sched::RccrScheduler>();
      break;
    case Method::kCloudScale:
      scheduler_ = std::make_unique<sched::CloudScaleScheduler>(
          config_.cloudscale_scheduler.value_or(
              sched::CloudScaleSchedulerConfig{}));
      break;
    case Method::kDra:
      scheduler_ = std::make_unique<sched::DraScheduler>(
          config_.dra_scheduler.value_or(sched::DraSchedulerConfig{}));
      break;
  }
}

void Simulation::train(const trace::Trace& history) {
  const obs::ScopedTimer timer("sim.train");
  // The resource stacks train concurrently on the run's pool, created
  // here under ShardEngine::ensure_pool's rule: only when Params::threads
  // resolves above 1, so serial runs spawn no threads.
  if (pool_ == nullptr &&
      util::ThreadPool::resolve(config_.params.threads) > 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.params.threads);
  }
  predictor_->train(build_unused_corpus(history), pool_.get());
  scheduler_->train(build_utilization_corpus(history));
  trained_ = true;
}

SimulationResult Simulation::run(const trace::Trace& trace) {
  TraceJobSource source(trace);
  return run(source);
}

SimulationResult Simulation::run(JobSource& source) {
  if (!trained_) {
    throw std::logic_error("Simulation::run before train()");
  }
  ShardEngine engine(config_, *predictor_, *scheduler_, pool_);
  return engine.run(source);
}

}  // namespace corp::sim
