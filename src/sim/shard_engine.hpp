// Sharded slot engine: the simulation core behind Simulation::run().
//
// Each 10-second slot runs a fixed sequence of named phases over one
// run state (shard_engine.cpp):
//   0. fault transitions and crash-retry release (serial);
//   1. arrivals from the JobSource;
//   2. per-VM scheduler views (parallel per shard) and
//   3. centralized placement (serial) — both only while work is queued;
//   4. execution accounting (parallel), then the seq-ordered sample merge;
//   5. completions and lease promotion/preemption (parallel), then the
//      seq-ordered merge of SLO records and requeues;
//   6. forecast refresh (opportunistic methods) or window reprovisioning
//      (demand-based methods);
//   7. the optional timeline sample;
//   8. termination (drain or grace cutoff);
//   9. clock advance.
// VM, telemetry and running-job state is partitioned into contiguous
// per-shard blocks (cluster::ShardPlan); the parallel phases run one
// shard per util::ThreadPool task, and every cross-shard effect is merged
// at a slot barrier with a deterministic sorted gather keyed on each
// running job's admission sequence number.
//
// Determinism contract (the same parallel == serial discipline as the
// replication harness and the batched predictor): the result is a pure
// function of the SimulationConfig and trace — bit-identical across
// `Params::shards` (1 shard IS the serial path: one block holding every
// VM) and across `Params::threads`, including under active fault
// injection. tests/sim/shard_equivalence_test.cpp pins this, and
// tests/sim/engine_golden_test.cpp pins the results themselves.
//
// Architectural exemplar: SLURM's slurmctld — centralized scheduling
// decisions over a partitioned node table. Placement itself stays
// centralized (the scheduler sees every VM view each slot); only the
// embarrassingly shard-local state walks fan out.
//
// Time base (phase 9): the default event clock jumps spans where no phase
// can observe anything — no queued work, no running jobs — directly to
// the next arrival, crash-retry release, fault-plan transition or grace
// cutoff; results are bit-identical to the dense tick-every-slot
// reference (Params::slot_clock, sim/slot_clock.hpp, pinned by
// tests/sim/event_clock_test.cpp).
#pragma once

#include <memory>

#include "predict/vector_predictor.hpp"
#include "sched/scheduler.hpp"
#include "sim/job_source.hpp"
#include "sim/simulation.hpp"
#include "util/thread_pool.hpp"

namespace corp::sim {

class ShardEngine {
 public:
  /// `pool_slot` is the owning Simulation's lazily-created worker pool:
  /// the engine materializes it on first need (sharded slot work or a
  /// batched-prediction window past the GEMM sharding threshold) so it
  /// persists across run() calls, and never spawns threads for runs that
  /// stay serial.
  ShardEngine(const SimulationConfig& config,
              predict::VectorPredictor& predictor,
              sched::Scheduler& scheduler,
              std::unique_ptr<util::ThreadPool>& pool_slot);

  /// Runs the slot loop until the source drains or the grace cutoff.
  /// Arrivals come from a JobSource (sim/job_source.hpp): a
  /// TraceJobSource over a materialized trace, or a StreamingJobSource —
  /// the bounded-memory path for multi-GB traces, bit-identical to first
  /// materializing the same file.
  SimulationResult run(JobSource& source);

 private:
  const SimulationConfig& config_;
  predict::VectorPredictor& predictor_;
  sched::Scheduler& scheduler_;
  std::unique_ptr<util::ThreadPool>& pool_slot_;
};

}  // namespace corp::sim
