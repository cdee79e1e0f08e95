// Full-simulation pins of the prediction-aware scheduler's contracts.
//
// The λ endpoints are differential: with the same simulation seed the
// λ=1 run must be bit-identical to CORP (same stacks, same decisions, no
// extra randomness drawn) and the λ=0 run bit-identical to CORP with
// opportunistic placement disabled — the demand-based worst-case
// admission rule. Interior and adaptive λ keep the engine's shard/thread
// bit-identity contract: the trust trajectory is sampled serially in the
// centralized placement step, so it cannot depend on the slot loop's
// partitioning.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>

#include "../common/sim_fixture.hpp"
#include "sim/simulation.hpp"

namespace corp::sim {
namespace {

using testfix::expect_identical;
using testfix::heavy_faults;
using testfix::tiny_trace;

struct RunSpec {
  Method method = Method::kCorp;
  /// Params::trust / Params::trust_adaptive of the run.
  double trust = 1.0;
  bool trust_adaptive = false;
  std::optional<sched::CorpSchedulerConfig> corp_scheduler;
  std::optional<predict::StackConfig> stack;
  fault::FaultConfig faults;
  std::size_t shards = 1;
  std::size_t threads = 1;
};

/// The experiment harness's mid-aggressiveness stack: loose enough that
/// the Eq. 21 gate actually unlocks on short test traces (the Table II
/// default P_th = 0.95 keeps every pool locked on runs this small).
predict::StackConfig permissive_stack() {
  predict::StackConfig stack;
  stack.probability_threshold = 0.72;
  stack.confidence_level = 0.73;
  stack.error_tolerance = 1.0;
  return stack;
}

SimulationResult run_spec(const RunSpec& spec, const trace::Trace& training,
                          const trace::Trace& eval) {
  SimulationConfig config;
  config.environment = cluster::EnvironmentConfig::PalmettoCluster();
  config.method = spec.method;
  config.seed = 5;
  config.faults = spec.faults;
  config.params.trust = spec.trust;
  config.params.trust_adaptive = spec.trust_adaptive;
  config.corp_scheduler = spec.corp_scheduler;
  config.stack = spec.stack;
  config.params.shards = spec.shards;
  config.params.threads = spec.threads;
  Simulation sim(std::move(config));
  sim.train(training);
  return sim.run(eval);
}

TEST(PredAwareSimTest, FullTrustIsBitIdenticalToCorp) {
  // Mirrors the experiment harness's workload shape (dense arrivals,
  // mid-aggressiveness stack) so the Eq. 21 gate unlocks while jobs are
  // still arriving and the opportunistic path really runs — a
  // fresh-reservations-only run would pass this differential vacuously.
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 120, 41, 160);
  const trace::Trace eval = tiny_trace(env, 150, 42, 20);

  RunSpec corp;
  corp.method = Method::kCorp;
  corp.stack = permissive_stack();
  const SimulationResult corp_result = run_spec(corp, training, eval);

  RunSpec pred_aware;
  pred_aware.method = Method::kPredAware;
  pred_aware.trust = 1.0;
  pred_aware.stack = permissive_stack();
  const SimulationResult pa_result = run_spec(pred_aware, training, eval);

  EXPECT_GT(corp_result.opportunistic_placements, 0u);
  expect_identical(corp_result, pa_result);
  EXPECT_EQ(pa_result.trust_lambda, 1.0);
}

TEST(PredAwareSimTest, ZeroTrustIsBitIdenticalToDemandBasedCorp) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 41);
  const trace::Trace eval = tiny_trace(env, 40, 42);

  RunSpec corp;
  corp.method = Method::kCorp;
  sched::CorpSchedulerConfig demand_based;
  demand_based.enable_opportunistic = false;
  corp.corp_scheduler = demand_based;
  const SimulationResult corp_result = run_spec(corp, training, eval);

  RunSpec pred_aware;
  pred_aware.method = Method::kPredAware;
  pred_aware.trust = 0.0;
  const SimulationResult pa_result = run_spec(pred_aware, training, eval);

  EXPECT_EQ(corp_result.opportunistic_placements, 0u);
  expect_identical(corp_result, pa_result);
  EXPECT_EQ(pa_result.trust_lambda, 0.0);
}

TEST(PredAwareSimTest, EndpointsHoldUnderFaults) {
  // The λ=1 ≡ CORP pin must survive active fault injection: poisoned
  // forecasts drive the trust *signals*, but a fixed λ never consumes
  // them, so the decision streams stay aligned.
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 43);
  const trace::Trace eval = tiny_trace(env, 40, 44);

  RunSpec corp;
  corp.method = Method::kCorp;
  corp.faults = heavy_faults();
  const SimulationResult corp_result = run_spec(corp, training, eval);
  EXPECT_GT(corp_result.vm_crashes, 0u);

  RunSpec pred_aware;
  pred_aware.method = Method::kPredAware;
  pred_aware.trust = 1.0;
  pred_aware.faults = heavy_faults();
  const SimulationResult pa_result = run_spec(pred_aware, training, eval);
  expect_identical(corp_result, pa_result);
}

TEST(PredAwareSimTest, InteriorTrustIsBitIdenticalAcrossShardsAndThreads) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 45);
  const trace::Trace eval = tiny_trace(env, 40, 46);

  RunSpec serial;
  serial.method = Method::kPredAware;
  serial.trust = 0.5;
  serial.faults = heavy_faults();
  const SimulationResult reference = run_spec(serial, training, eval);

  for (const std::size_t shards : {4UL, 16UL}) {
    for (const std::size_t threads : {1UL, 3UL}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      RunSpec sharded = serial;
      sharded.shards = shards;
      sharded.threads = threads;
      const SimulationResult result = run_spec(sharded, training, eval);
      expect_identical(reference, result);
      EXPECT_EQ(reference.trust_lambda, result.trust_lambda);
    }
  }
}

TEST(PredAwareSimTest, AdaptiveTrustIsBitIdenticalAcrossShardsAndThreads) {
  // The adaptive trajectory folds predictor-health signals into every
  // placement; those signals are sampled in the serial centralized
  // placement step, so the whole trajectory — and with it the run — must
  // be independent of the slot-loop partitioning.
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 47);
  const trace::Trace eval = tiny_trace(env, 40, 48);

  RunSpec serial;
  serial.method = Method::kPredAware;
  serial.trust_adaptive = true;
  serial.faults = heavy_faults();
  const SimulationResult reference = run_spec(serial, training, eval);
  // Heavy faults must actually move the trust knob off its ceiling.
  EXPECT_LT(reference.trust_lambda, 1.0);

  for (const std::size_t shards : {4UL, 16UL}) {
    for (const std::size_t threads : {1UL, 3UL}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      RunSpec sharded = serial;
      sharded.shards = shards;
      sharded.threads = threads;
      const SimulationResult result = run_spec(sharded, training, eval);
      expect_identical(reference, result);
      EXPECT_EQ(reference.trust_lambda, result.trust_lambda);
    }
  }
}

TEST(PredAwareSimTest, AdaptiveBeatsFullTrustOnSloUnderPoisonedForecasts) {
  // The robustness claim at simulation scale: under a poisoned-forecast
  // fault mix (no crashes — a crash-killed job violates its SLO no
  // matter what the scheduler believed), shedding trust must not *raise*
  // the violation rate relative to trusting the forecast fully, and the
  // adaptive run must actually have shed trust.
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 49);
  const trace::Trace eval = tiny_trace(env, 50, 50);

  fault::FaultConfig poison;
  poison.telemetry_gap_rate = 0.04;
  poison.straggler_rate = 0.25;
  poison.straggler_demand_factor = 2.0;
  poison.predictor_fault_rate = 0.07;

  RunSpec trusting;
  trusting.method = Method::kPredAware;
  trusting.trust = 1.0;
  trusting.faults = poison;
  const SimulationResult full = run_spec(trusting, training, eval);

  RunSpec adapting = trusting;
  adapting.trust_adaptive = true;
  const SimulationResult adapted = run_spec(adapting, training, eval);

  EXPECT_LT(adapted.trust_lambda, 1.0);
  EXPECT_LE(adapted.slo_violation_rate, full.slo_violation_rate);
}

}  // namespace
}  // namespace corp::sim
