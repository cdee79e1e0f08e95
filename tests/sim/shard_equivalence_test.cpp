// Differential pin of the sharded slot engine's determinism contract:
// sharded == unsharded, bit for bit. Params::shards = 1 is the serial
// reference layout (one block holding every VM); every other shard and
// thread count must reproduce its SimulationResult exactly — including
// under active fault injection (VM crashes scrambling rosters, telemetry
// gaps, stragglers) and for the methods that exercise the reprovision
// barrier. Mirrors tests/predict/batch_equivalence_test.cpp, one layer up.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "../common/sim_fixture.hpp"
#include "sim/simulation.hpp"

namespace corp::sim {
namespace {

using testfix::expect_identical;
using testfix::heavy_faults;
using testfix::tiny_trace;

SimulationResult run_with(const cluster::EnvironmentConfig& env,
                          Method method, const fault::FaultConfig& faults,
                          std::size_t shards, std::size_t threads,
                          const trace::Trace& training,
                          const trace::Trace& eval) {
  SimulationConfig config;
  config.environment = env;
  config.method = method;
  config.seed = 5;
  config.faults = faults;
  config.params.shards = shards;
  config.params.threads = threads;
  Simulation sim(std::move(config));
  sim.train(training);
  return sim.run(eval);
}

TEST(ShardEquivalenceTest, ShardAndThreadCountsAreBitIdenticalUnderFaults) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 11);
  const trace::Trace eval = tiny_trace(env, 40, 12);
  const fault::FaultConfig faults = heavy_faults();

  const SimulationResult serial =
      run_with(env, Method::kCorp, faults, 1, 1, training, eval);
  EXPECT_GT(serial.vm_crashes, 0u);
  EXPECT_GT(serial.telemetry_gaps, 0u);
  for (const std::size_t shards : {4UL, 16UL}) {
    for (const std::size_t threads : {1UL, 4UL}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      const SimulationResult sharded =
          run_with(env, Method::kCorp, faults, shards, threads, training, eval);
      expect_identical(serial, sharded);
    }
  }
}

TEST(ShardEquivalenceTest, FaultFreeRunsMatchAcrossShardCounts) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 21);
  const trace::Trace eval = tiny_trace(env, 30, 22);

  const SimulationResult serial = run_with(env, Method::kCorp, {}, 1, 1,
                                           training, eval);
  const SimulationResult sharded = run_with(env, Method::kCorp, {}, 16, 4,
                                            training, eval);
  expect_identical(serial, sharded);
  EXPECT_EQ(serial.vm_crashes, 0u);
}

TEST(ShardEquivalenceTest, ReprovisioningMethodsMatchAcrossShardCounts) {
  // CloudScale/DRA run the serial seq-ordered reprovision barrier every
  // window; RCCR takes the opportunistic path with a different gate.
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 60, 31);
  const trace::Trace eval = tiny_trace(env, 30, 32);
  const fault::FaultConfig faults = heavy_faults();

  for (const Method method :
       {Method::kRccr, Method::kCloudScale, Method::kDra}) {
    SCOPED_TRACE(static_cast<int>(method));
    const SimulationResult serial =
        run_with(env, method, faults, 1, 1, training, eval);
    const SimulationResult sharded =
        run_with(env, method, faults, 8, 4, training, eval);
    expect_identical(serial, sharded);
  }
}

TEST(ShardEquivalenceTest, ShardRequestsPastVmCountClampToVmCount) {
  const auto env = cluster::EnvironmentConfig::AmazonEc2();  // 30 VMs
  const trace::Trace training = tiny_trace(env, 50, 41);
  const trace::Trace eval = tiny_trace(env, 25, 42);

  const SimulationResult serial = run_with(env, Method::kCorp, heavy_faults(),
                                           1, 1, training, eval);
  const SimulationResult clamped = run_with(env, Method::kCorp, heavy_faults(),
                                            64, 4, training, eval);
  expect_identical(serial, clamped);
}

TEST(ShardEquivalenceTest, AutoShardCountMatchesSerial) {
  // shards = 0 resolves to one shard per worker thread.
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = tiny_trace(env, 50, 51);
  const trace::Trace eval = tiny_trace(env, 25, 52);

  const SimulationResult serial = run_with(env, Method::kCorp, {}, 1, 1,
                                           training, eval);
  const SimulationResult auto_sharded = run_with(env, Method::kCorp, {}, 0, 3,
                                                 training, eval);
  expect_identical(serial, auto_sharded);
}

}  // namespace
}  // namespace corp::sim
