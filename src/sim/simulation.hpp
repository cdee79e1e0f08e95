// Discrete-time simulation engine.
//
// Replays a short-lived-job trace against a cluster under one provisioning
// method and measures everything the paper's evaluation reports:
// per-type and overall utilization (Eq. 1-2), wastage (Eq. 3-4), SLO
// violation rate, per-job prediction-error correctness, and allocation
// latency (wall time of the method's decision path plus the environment's
// modeled communication overhead).
//
// Mechanics per 10-second slot (the ShardEngine phase that does each
// step is named in brackets; sim/shard_engine.hpp lists them all):
//   1. arrivals, re-queued jobs and released crash retries are offered
//      to the Scheduler [admit_arrivals, build_views, place];
//   2. reserved placements commit resources on their VM; opportunistic
//      placements (CORP/RCCR/pred-aware) ride on predicted-unused
//      resource and commit nothing [place];
//   3. each running job demands its trace usage for its current execution
//      position; reserved jobs receive min(demand, allocation); what the
//      reserved tenants leave of the VM's *committed* resource is split
//      proportionally among opportunistic tenants, while uncommitted
//      capacity is held back for future reservations [execute];
//   4. a job's progress advances by its bottleneck satisfaction ratio, so
//      starved jobs stretch past their SLO response threshold; finished
//      jobs complete and starved leases are promoted or preempted
//      [execute, complete];
//   5. the opportunistic methods refresh every reserved tenant's
//      unused-resource forecast each slot under the default cadence
//      (Params::predict_cadence), and each Eq. 20 pledge resolves into
//      the Eq. 20/21 error trackers one window (L slots) after it was
//      made; demand-based methods instead re-size reservations via
//      Scheduler::reprovision() every L slots [predict_or_reprovision].
//
// VM, telemetry and running-job state is partitioned into Params::shards
// contiguous blocks whose per-slot walks fan out on a worker pool, with
// cross-shard effects merged deterministically at slot barriers. Results
// are bit-identical across shard and thread counts.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/metrics.hpp"
#include "cluster/slo.hpp"
#include "fault/fault.hpp"
#include "predict/vector_predictor.hpp"
#include "sched/baseline_schedulers.hpp"
#include "sched/corp_scheduler.hpp"
#include "sched/scheduler.hpp"
#include "sim/job_source.hpp"
#include "sim/params.hpp"
#include "sim/timeline.hpp"
#include "trace/generator.hpp"
#include "util/thread_pool.hpp"

namespace corp::sim {

using predict::Method;

struct SimulationConfig {
  cluster::EnvironmentConfig environment =
      cluster::EnvironmentConfig::PalmettoCluster();
  Method method = Method::kCorp;
  Params params;
  /// Scheduler overrides for ablations and sweeps; when unset, the
  /// config structs' defaults apply. corp_scheduler serves both CORP and
  /// pred-aware, whose trust λ comes from params.trust/trust_adaptive.
  std::optional<sched::CorpSchedulerConfig> corp_scheduler;
  std::optional<sched::CloudScaleSchedulerConfig> cloudscale_scheduler;
  std::optional<sched::DraSchedulerConfig> dra_scheduler;
  /// Stack overrides (confidence level, P_th, epsilon) for sweeps.
  std::optional<predict::StackConfig> stack;
  /// CORP ablations forwarded into CorpStack.
  bool enable_hmm_correction = true;
  bool enable_confidence_bound = true;
  std::uint64_t seed = 42;
  /// Fault-injection model. All rates zero (the default) keeps the
  /// injector inert: no randomness is drawn and every output is
  /// bit-identical to a fault-free build.
  fault::FaultConfig faults;
  /// Record a per-slot Timeline into the result (costs memory per slot).
  bool record_timeline = false;
  /// Safety valve: stop this many slots past the trace horizon and count
  /// still-running jobs as violated.
  std::int64_t grace_slots = 720;
};

struct SimulationResult {
  Method method = Method::kCorp;
  std::array<double, trace::kNumResources> mean_utilization{};
  double overall_utilization = 0.0;
  std::array<double, trace::kNumResources> mean_wastage{};
  double overall_wastage = 0.0;
  double slo_violation_rate = 0.0;
  double mean_stretch = 0.0;
  std::size_t jobs_completed = 0;
  std::size_t jobs_violated = 0;
  std::size_t jobs_forced = 0;  // still running at the grace cutoff
  std::size_t opportunistic_placements = 0;
  std::size_t reserved_placements = 0;
  /// Opportunistic leases promoted into reservations / preempted.
  std::size_t lease_promotions = 0;
  std::size_t lease_preemptions = 0;
  /// Wall time spent in the method's decision path (placement +
  /// prediction + reprovisioning), milliseconds.
  double compute_latency_ms = 0.0;
  /// compute latency + modeled communication overhead, milliseconds.
  double total_latency_ms = 0.0;
  // --- fault-injection outcomes (all zero when faults are inert) ---
  std::size_t vm_crashes = 0;
  std::size_t vm_recoveries = 0;
  /// Running jobs killed by a VM crash (each kill re-queues or drops).
  std::size_t jobs_killed = 0;
  /// Crash-killed jobs re-queued with capped exponential backoff.
  std::size_t job_retries = 0;
  /// Jobs dropped after exhausting the crash-retry budget; permanent SLO
  /// failures, included in the violation rate.
  std::size_t jobs_dropped = 0;
  /// (job, slot) telemetry gaps injected into predictor histories.
  std::size_t telemetry_gaps = 0;
  /// Predictor degradation tier when the run ended (0 = primary,
  /// 1 = ETS fallback, 2 = reserved-only).
  int degradation_tier = 0;
  /// Trust λ of method pred-aware at run end (its adaptive trajectory's
  /// last point; 1.0 for every other method).
  double trust_lambda = 1.0;
  std::int64_t slots_simulated = 0;
  // --- slot-clock diagnostics (sim/slot_clock.hpp). slots_ticked +
  // slots_skipped == slots_simulated; under the dense clock skipped is 0
  // and ticked == simulated. Ticked/skipped differ between clock modes
  // by design (everything else, predictions_amortized included, is
  // mode-invariant); all three are bit-identical across shard/thread
  // counts for a fixed mode.
  /// Slots the engine actually executed (the event clock jumps the rest).
  std::int64_t slots_ticked = 0;
  /// Slots the event clock fast-forwarded over.
  std::int64_t slots_skipped = 0;
  /// Per-(job, slot) forecast refreshes the window cadence skipped.
  std::size_t predictions_amortized = 0;
  /// Populated when SimulationConfig::record_timeline is set.
  Timeline timeline;
};

class Simulation {
 public:
  explicit Simulation(SimulationConfig config);

  /// Trains the method's prediction stacks and the scheduler's internal
  /// forecasters on a historical trace (per-job unused-amount series and
  /// utilization-fraction series respectively).
  void train(const trace::Trace& history);

  /// Runs the evaluation trace to completion through a TraceJobSource.
  /// train() must have run.
  SimulationResult run(const trace::Trace& trace);

  /// Streaming variant: drives the slot loop from a JobSource (e.g. a
  /// StreamingJobSource wrapping trace::StreamReader) without ever
  /// materializing the full trace. Bit-identical to run(trace) when the
  /// source delivers the same jobs. train() must have run.
  SimulationResult run(JobSource& source);

  const SimulationConfig& config() const { return config_; }

  /// The method's trained prediction stacks (for offline evaluation such
  /// as the Fig. 6 per-job prediction-error protocol).
  predict::VectorPredictor& predictor() { return *predictor_; }

  /// The method's scheduler (exposed for tests).
  sched::Scheduler& scheduler() { return *scheduler_; }

 private:
  SimulationConfig config_;
  std::unique_ptr<predict::VectorPredictor> predictor_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  /// Lazily created worker pool, shared by the sharded slot loop and the
  /// batched-prediction GEMM (behind Params::threads); never built for
  /// runs that stay serial, so small simulations spawn no threads.
  std::unique_ptr<util::ThreadPool> pool_;
  bool trained_ = false;
};

/// Builds a training corpus (per-job unused-amount series) from a trace.
predict::VectorCorpus build_unused_corpus(const trace::Trace& trace);

/// Builds per-job utilization-fraction series (demand / request, averaged
/// over resource types per slot is NOT what we want — each type keeps its
/// own series; this returns the CPU-type series plus the other types
/// appended, which is what the schedulers' scalar forecasters train on).
predict::SeriesCorpus build_utilization_corpus(const trace::Trace& trace);

/// Generator configuration scaled so requests fit the environment's VMs
/// (dominant requests around half a VM, capped at 90% of VM capacity).
trace::GeneratorConfig scaled_generator_config(
    const cluster::EnvironmentConfig& env, std::size_t num_jobs,
    std::int64_t horizon_slots);

}  // namespace corp::sim
