// Table II parameter settings, centralized. The values no run varies are
// constants; every experiment harness and example starts from the
// remaining defaults and overrides only what its sweep varies.
#pragma once

#include <cstddef>

#include "predict/stacks.hpp"
#include "sim/slot_clock.hpp"
#include "trace/job.hpp"

namespace corp::sim {

struct Params {
  // --- Table II ---
  // The rest of Table II lives where the code reads it: servers N_p in
  // cluster::EnvironmentConfig's presets (50 Palmetto, 30 EC2), the DNN
  // shape (h = 4 layers of N_n = 50 units) and history Delta = 12 in
  // predict::DnnPredictorConfig, the HMM's H = 3 states in
  // predict::HmmCorrector::kNumStates, the weights omega = (0.4, 0.4, 0.2)
  // of Eq. 2 in trace::ResourceWeights.
  /// Number of jobs |J|: 50-300 with step 50.
  static constexpr std::size_t kJobsMin = 50;
  static constexpr std::size_t kJobsMax = 300;
  static constexpr std::size_t kJobsStep = 50;
  /// Resource types l = 3 (CPU, MEM, storage).
  static constexpr std::size_t kResourceTypes = trace::kNumResources;
  /// Probability threshold P_th = 0.95.
  static constexpr double kProbabilityThreshold = 0.95;
  /// Confidence level eta: 50%-90%; the default stack runs at the top
  /// of the range (stack_config()).
  static constexpr double kConfidenceMax = 0.90;

  // --- derived / fixed by Sec. III-IV ---
  /// Prediction window L = 1 minute = 6 slots of 10 s.
  std::size_t window_slots = trace::kWindowSlots;
  /// Eq. 21 error tolerance epsilon, as a fraction of the training-corpus
  /// mean unused amount (resolved per resource type at train time). Must
  /// comfortably exceed the conservative bias the confidence bound
  /// introduces, or the gate never opens.
  static constexpr double kErrorTolerance = 0.80;
  /// Additive response-time slack in slots on top of duration * stretch
  /// (absorbs the one-slot rounding a single deficit slot costs).
  static constexpr double kSloSlackSlots = 1.0;
  /// Convexity of the slowdown under resource pressure: a slot at
  /// bottleneck satisfaction ratio rho advances rho^p slots of work
  /// (p > 1 models thrashing under starvation). A run-time value on
  /// purpose: a compile-time 2.0 lets the optimizer turn std::pow into
  /// ratio * ratio, which differs from glibc's pow in the last bit.
  double contention_penalty = 2.0;

  // --- execution knobs (harness, not Table II) ---
  /// Worker threads for sweep and replication fan-out (0 = hardware
  /// concurrency). One knob drives both the per-figure point sweeps and
  /// run_replicated_point.
  std::size_t threads = 0;
  /// Shards of the simulation slot loop: VM, telemetry and running-job
  /// state is partitioned into this many contiguous blocks whose per-slot
  /// walks run on worker threads (sim/shard_engine.hpp). 0 = one shard
  /// per resolved worker thread; requests are clamped to the VM count.
  /// Results are bit-identical for every value — 1 (the default) IS the
  /// serial reference layout — so this is purely a throughput knob.
  /// Fanning out needs a resolved worker count > 1; on a single-core
  /// host the engine stays inline-serial regardless of this value.
  std::size_t shards = 1;
  /// Time base of the slot loop (sim/slot_clock.hpp). The event clock
  /// jumps over spans where nothing can change — no queued work, no
  /// running jobs — landing on the next arrival, crash-retry release,
  /// fault-plan transition or grace cutoff. Results are bit-identical to
  /// the dense tick-every-slot reference for every source, shard and
  /// thread count (pinned by tests/sim/event_clock_test.cpp); dense
  /// remains available as the differential baseline, so this is purely a
  /// throughput knob, like `shards`.
  SlotClockMode slot_clock = SlotClockMode::kEvent;
  /// Forecast refresh cadence of the opportunistic methods
  /// (sim/slot_clock.hpp). kEverySlot reproduces every historical pinned
  /// number; kWindow re-runs the batched stack only when a tenant's
  /// window watermark moved, its Eq. 20 pledge resolved, or the health
  /// tier changed — a deliberate semantic change (forecasts go up to
  /// L - 1 slots stale), itself bit-identical across clock modes and
  /// shard/thread counts.
  PredictCadence predict_cadence = PredictCadence::kEverySlot;
  /// Trust λ of method pred-aware, handed by Simulation to CorpScheduler
  /// (sched/corp_scheduler.hpp): 1 follows the forecast like CORP, 0 is
  /// demand-based worst-case admission, intermediate values blend the
  /// admission thresholds. Read only by method pred-aware.
  double trust = 1.0;
  /// Drive λ online from predictor-health signals instead of the fixed
  /// value (`--trust auto`).
  bool trust_adaptive = false;

  /// Builds the default per-type prediction StackConfig.
  predict::StackConfig stack_config() const;
};

}  // namespace corp::sim
