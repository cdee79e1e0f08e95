// Differential pin of the event-driven slot clock (sim/slot_clock.hpp):
// SlotClockMode::kEvent must reproduce the dense tick-every-slot loop
// bit for bit — for every shard/thread count, for CORP and the
// prediction-aware scheduler, under heavy fault injection, on streamed
// sources, and on the degenerate shapes where the clock earns its keep
// (multi-hundred-slot idle valleys, an empty source, a single arrival at
// the final slot, fault transitions landing inside a jumped span).
// Mirrors tests/sim/shard_equivalence_test.cpp, one time-base layer up.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "../common/sim_fixture.hpp"
#include "../common/trace_fixture.hpp"
#include "fault/fault.hpp"
#include "sim/job_source.hpp"
#include "sim/simulation.hpp"
#include "sim/slot_clock.hpp"
#include "trace/stream_reader.hpp"
#include "util/rng.hpp"

namespace corp::sim {
namespace {

using testfix::heavy_faults;
using testfix::sparse_trace;
using testfix::tiny_trace;

/// The shared field comparison (slots_ticked/slots_skipped are left out:
/// they differ between modes by design), plus the clock's own invariant.
void expect_identical(const SimulationResult& a, const SimulationResult& b) {
  testfix::expect_identical(a, b);
  // The clock never invents or loses time: ticked + skipped spans the
  // whole simulated range in both modes.
  EXPECT_EQ(a.slots_ticked + a.slots_skipped, a.slots_simulated);
  EXPECT_EQ(b.slots_ticked + b.slots_skipped, b.slots_simulated);
}

struct RunSpec {
  Method method = Method::kCorp;
  fault::FaultConfig faults;
  std::size_t shards = 1;
  std::size_t threads = 1;
  SlotClockMode clock = SlotClockMode::kDense;
  PredictCadence cadence = PredictCadence::kEverySlot;
  bool record_timeline = false;
};

SimulationResult run_with(const cluster::EnvironmentConfig& env,
                          const RunSpec& spec, const trace::Trace& training,
                          const trace::Trace& eval) {
  SimulationConfig config;
  config.environment = env;
  config.method = spec.method;
  config.seed = 5;
  config.faults = spec.faults;
  config.params.shards = spec.shards;
  config.params.threads = spec.threads;
  config.params.slot_clock = spec.clock;
  config.params.predict_cadence = spec.cadence;
  config.record_timeline = spec.record_timeline;
  Simulation sim(std::move(config));
  sim.train(training);
  return sim.run(eval);
}

// ------------------------------------------------- differential suite --

TEST(EventClockTest, MatchesDenseAcrossShardsThreadsAndMethodsUnderFaults) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 11);
  const trace::Trace eval = sparse_trace(env, 30, 2, 300, 12);
  const fault::FaultConfig faults = heavy_faults();

  for (const Method method : {Method::kCorp, Method::kPredAware}) {
    RunSpec dense_spec;
    dense_spec.method = method;
    dense_spec.faults = faults;
    const SimulationResult dense = run_with(env, dense_spec, training, eval);
    EXPECT_GT(dense.vm_crashes, 0u);
    EXPECT_EQ(dense.slots_skipped, 0);
    for (const std::size_t shards : {1UL, 4UL, 16UL, 0UL}) {
      for (const std::size_t threads : {1UL, 3UL}) {
        SCOPED_TRACE("method=" + std::to_string(static_cast<int>(method)) +
                     " shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        RunSpec event_spec = dense_spec;
        event_spec.shards = shards;
        event_spec.threads = threads;
        event_spec.clock = SlotClockMode::kEvent;
        const SimulationResult event =
            run_with(env, event_spec, training, eval);
        expect_identical(dense, event);
      }
    }
  }
}

TEST(EventClockTest, SkipsTheIdleValleysOfASparseTrace) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 21);
  const trace::Trace eval = sparse_trace(env, 30, 3, 400, 22);

  RunSpec dense_spec;
  const SimulationResult dense = run_with(env, dense_spec, training, eval);
  RunSpec event_spec;
  event_spec.clock = SlotClockMode::kEvent;
  const SimulationResult event = run_with(env, event_spec, training, eval);

  expect_identical(dense, event);
  // Two ~400-slot valleys: the overwhelming majority of the horizon is
  // provably inert and must be jumped, not ticked.
  EXPECT_GT(event.slots_skipped, event.slots_simulated / 2);
  EXPECT_LT(event.slots_ticked, dense.slots_ticked);
}

TEST(EventClockTest, WindowCadenceIsClockAndShardInvariant) {
  // kWindow is a documented semantic change vs kEverySlot (a coarser
  // forecast-refresh schedule), but it must itself be bit-identical
  // across clock modes and shard/thread counts, and must actually
  // amortize stack runs on a workload with long-running jobs.
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 31);
  const trace::Trace eval = sparse_trace(env, 30, 2, 250, 32);

  RunSpec dense_spec;
  dense_spec.cadence = PredictCadence::kWindow;
  const SimulationResult dense = run_with(env, dense_spec, training, eval);
  EXPECT_GT(dense.predictions_amortized, 0u);

  for (const std::size_t shards : {4UL, 16UL}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RunSpec event_spec = dense_spec;
    event_spec.shards = shards;
    event_spec.threads = 3;
    event_spec.clock = SlotClockMode::kEvent;
    expect_identical(dense, run_with(env, event_spec, training, eval));
  }
}

TEST(EventClockTest, EverySlotCadenceNeverAmortizes) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 41);
  const trace::Trace eval = tiny_trace(env, 30, 42);

  RunSpec spec;
  spec.clock = SlotClockMode::kEvent;
  const SimulationResult result = run_with(env, spec, training, eval);
  EXPECT_EQ(result.predictions_amortized, 0u);
}

TEST(EventClockTest, TimelineFastForwardMatchesDenseSampleForSample) {
  // The closed-form fast-forward must reproduce the dense loop's
  // timeline exactly: idle samples replicated across the jumped span
  // with only the slot number varying.
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 51);
  const trace::Trace eval = sparse_trace(env, 20, 2, 200, 52);

  RunSpec dense_spec;
  dense_spec.record_timeline = true;
  const SimulationResult dense = run_with(env, dense_spec, training, eval);
  RunSpec event_spec = dense_spec;
  event_spec.clock = SlotClockMode::kEvent;
  const SimulationResult event = run_with(env, event_spec, training, eval);

  expect_identical(dense, event);
  const auto& ds = dense.timeline.samples();
  const auto& es = event.timeline.samples();
  ASSERT_EQ(ds.size(), es.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(ds[i].slot, es[i].slot);
    EXPECT_EQ(ds[i].running_reserved, es[i].running_reserved);
    EXPECT_EQ(ds[i].running_opportunistic, es[i].running_opportunistic);
    EXPECT_EQ(ds[i].queued, es[i].queued);
    EXPECT_EQ(ds[i].overall_utilization, es[i].overall_utilization);
    EXPECT_EQ(ds[i].committed_fraction, es[i].committed_fraction);
    EXPECT_EQ(ds[i].completions, es[i].completions);
    EXPECT_EQ(ds[i].violations, es[i].violations);
  }
}

TEST(EventClockTest, StreamedSparseSourceMatchesDense) {
  // Two task waves 200 windows apart in a real-format CSV: the streamed
  // source must cap jumps at the reader's safe bound (replaying the
  // dense ingest schedule exactly) and still skip the deep valley.
  const std::string path = testing::TempDir() + "/event_clock_sparse.csv";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "#corp-trace schema=google-v2\n";
    util::Rng rng(7);
    for (const std::int64_t window : {std::int64_t{0}, std::int64_t{200}}) {
      const std::int64_t start =
          testfix::kEpochUs + window * testfix::kWindowUs;
      for (std::uint64_t i = 0; i < 40; ++i) {
        out << testfix::google_row(start, start + testfix::kWindowUs,
                                   window * 1000 + i + 1,
                                   rng.uniform(0.004, 0.02),
                                   rng.uniform(0.003, 0.012),
                                   rng.uniform(0.0002, 0.001));
      }
    }
  }
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 61);
  trace::StreamReaderConfig stream;
  stream.chunk_bytes = 4096;
  stream.chunks_per_batch = 2;

  const auto run_streamed = [&](SlotClockMode clock) {
    RunSpec spec;
    spec.clock = clock;
    SimulationConfig config;
    config.environment = env;
    config.method = Method::kCorp;
    config.seed = 5;
    config.params.slot_clock = clock;
    Simulation sim(std::move(config));
    sim.train(training);
    trace::StreamReader reader(path, stream);
    StreamingJobSource source(reader);
    return sim.run(source);
  };
  const SimulationResult dense = run_streamed(SlotClockMode::kDense);
  const SimulationResult event = run_streamed(SlotClockMode::kEvent);
  expect_identical(dense, event);
  EXPECT_GT(dense.jobs_completed, 0u);
  EXPECT_GT(event.slots_skipped, 0);
}

// ------------------------------------------------- degenerate shapes --

TEST(EventClockTest, EmptyJobSourceDrainsAtSlotOne) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 71);
  const trace::Trace empty;

  for (const SlotClockMode clock :
       {SlotClockMode::kDense, SlotClockMode::kEvent}) {
    SCOPED_TRACE(to_string(clock));
    RunSpec spec;
    spec.clock = clock;
    const SimulationResult result = run_with(env, spec, training, empty);
    EXPECT_EQ(result.slots_simulated, 1);
    EXPECT_EQ(result.slots_ticked, 1);
    EXPECT_EQ(result.slots_skipped, 0);
    EXPECT_EQ(result.jobs_completed, 0u);
  }
}

TEST(EventClockTest, SingleArrivalAtTheFinalSlot) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 81);
  trace::Trace eval = tiny_trace(env, 1, 82);
  ASSERT_GE(eval.size(), 1u);
  eval.jobs().resize(1);
  eval.jobs()[0].submit_slot = 600;
  eval.sort();

  RunSpec dense_spec;
  const SimulationResult dense = run_with(env, dense_spec, training, eval);
  RunSpec event_spec;
  event_spec.clock = SlotClockMode::kEvent;
  const SimulationResult event = run_with(env, event_spec, training, eval);

  expect_identical(dense, event);
  EXPECT_EQ(dense.jobs_completed + dense.jobs_forced, 1u);
  // Slot 0 ticks (the clock inspects the world before jumping), then one
  // jump lands exactly on the arrival — 599 slots never execute.
  EXPECT_GE(event.slots_skipped, 599);
}

TEST(EventClockTest, AllVmsCrashedSpansStayIdentical) {
  // A mean-time-to-failure shorter than the repair time keeps knocking
  // the whole 30-VM fleet down; placement failures park arrivals in the
  // retry queue, whose release slots become clock events.
  const auto env = cluster::EnvironmentConfig::AmazonEc2();
  const trace::Trace training = tiny_trace(env, 50, 91);
  const trace::Trace eval = sparse_trace(env, 10, 2, 150, 92);
  fault::FaultConfig faults;
  faults.vm_mttf_slots = 3.0;
  faults.vm_mttr_slots = 40.0;

  RunSpec dense_spec;
  dense_spec.faults = faults;
  const SimulationResult dense = run_with(env, dense_spec, training, eval);
  EXPECT_GT(dense.vm_crashes, 0u);
  RunSpec event_spec = dense_spec;
  event_spec.clock = SlotClockMode::kEvent;
  expect_identical(dense, run_with(env, event_spec, training, eval));
}

TEST(EventClockTest, FaultTransitionsInsideASkippedSpanAreLandedOn) {
  // Sparse arrivals on a small fleet with slow faults: crash/recovery
  // transitions land deep inside the idle valleys, where the dense loop
  // applies them on their exact slot. The event clock must land on every
  // one (vm_crashes/vm_recoveries are part of the identity check) while
  // still skipping the quiet stretches between them.
  const auto env = cluster::EnvironmentConfig::AmazonEc2();
  const trace::Trace training = tiny_trace(env, 50, 101);
  const trace::Trace eval = sparse_trace(env, 8, 2, 500, 102);
  fault::FaultConfig faults;
  faults.vm_mttf_slots = 150.0;
  faults.vm_mttr_slots = 40.0;

  RunSpec dense_spec;
  dense_spec.faults = faults;
  const SimulationResult dense = run_with(env, dense_spec, training, eval);
  EXPECT_GT(dense.vm_crashes, 0u);
  RunSpec event_spec = dense_spec;
  event_spec.clock = SlotClockMode::kEvent;
  const SimulationResult event = run_with(env, event_spec, training, eval);
  expect_identical(dense, event);
  EXPECT_GT(event.slots_skipped, 0);
}

// ------------------------------------------------- JobSource horizon --

TEST(EventClockTest, TraceJobSourceReportsArrivalHorizon) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  trace::Trace eval = tiny_trace(env, 3, 111);
  auto& jobs = eval.jobs();
  ASSERT_GE(jobs.size(), 3u);
  jobs.resize(3);
  jobs[0].submit_slot = 5;
  jobs[1].submit_slot = 5;
  jobs[2].submit_slot = 40;
  eval.sort();

  TraceJobSource source(eval);
  EXPECT_EQ(source.next_event_slot(0), 5);
  std::vector<const trace::Job*> batch;
  source.poll(5, batch);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(source.next_event_slot(5), 40);
  source.poll(40, batch);
  EXPECT_TRUE(source.exhausted());
  EXPECT_EQ(source.next_event_slot(40), kNoEventSlot);
}

}  // namespace
}  // namespace corp::sim
