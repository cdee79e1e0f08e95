// End-to-end fault-injection behavior of the simulation engine:
//   * the zero-rate config is inert (bit-identical to a fault-free run);
//   * faults actually perturb the run and are fully accounted for;
//   * parallel replication under faults stays bit-identical to serial.
#include <gtest/gtest.h>

#include "../common/sim_fixture.hpp"
#include "sim/experiment.hpp"
#include "sim/replication.hpp"
#include "sim/simulation.hpp"

namespace corp::sim {
namespace {

using testfix::expect_identical;
using testfix::heavy_faults;
using testfix::tiny_trace;

SimulationConfig tiny_config(Method method) {
  SimulationConfig config;
  config.method = method;
  config.seed = 5;
  return config;
}

TEST(FaultInjectionSimTest, ZeroRatesAreBitIdenticalToDefault) {
  const trace::Trace training = tiny_trace(60, 11);
  const trace::Trace eval = tiny_trace(25, 12);

  SimulationConfig plain = tiny_config(Method::kCorp);
  SimulationConfig zeroed = tiny_config(Method::kCorp);
  zeroed.faults = fault::FaultConfig{};  // explicit all-zero config
  ASSERT_FALSE(zeroed.faults.any());

  Simulation a(std::move(plain)), b(std::move(zeroed));
  a.train(training);
  b.train(training);
  const SimulationResult ra = a.run(eval);
  const SimulationResult rb = b.run(eval);
  expect_identical(ra, rb);
  EXPECT_EQ(ra.vm_crashes, 0u);
  EXPECT_EQ(ra.telemetry_gaps, 0u);
  EXPECT_EQ(ra.jobs_dropped, 0u);
  EXPECT_EQ(ra.degradation_tier, 0);
}

TEST(FaultInjectionSimTest, FaultsAreDeterministicAcrossRuns) {
  const trace::Trace training = tiny_trace(60, 11);
  const trace::Trace eval = tiny_trace(25, 13);
  SimulationConfig config = tiny_config(Method::kCorp);
  config.faults = heavy_faults();

  Simulation a(config), b(config);
  a.train(training);
  b.train(training);
  expect_identical(a.run(eval), b.run(eval));
}

TEST(FaultInjectionSimTest, CrashesKillAndRetryJobs) {
  const trace::Trace training = tiny_trace(60, 11);
  const trace::Trace eval = tiny_trace(30, 14);
  SimulationConfig config = tiny_config(Method::kCorp);
  config.faults = heavy_faults();

  Simulation sim(std::move(config));
  sim.train(training);
  const SimulationResult result = sim.run(eval);

  EXPECT_GT(result.vm_crashes, 0u);
  EXPECT_GT(result.telemetry_gaps, 0u);
  // Every kill is either retried or dropped, never lost.
  EXPECT_EQ(result.jobs_killed, result.job_retries + result.jobs_dropped);
  // Every job is accounted for: completed (includes forced) + dropped.
  EXPECT_EQ(result.jobs_completed + result.jobs_dropped, eval.size());
}

TEST(FaultInjectionSimTest, FaultsChangeTheRun) {
  const trace::Trace training = tiny_trace(60, 11);
  const trace::Trace eval = tiny_trace(25, 15);

  Simulation plain(tiny_config(Method::kCorp));
  SimulationConfig faulty_config = tiny_config(Method::kCorp);
  faulty_config.faults = heavy_faults();
  Simulation faulty(std::move(faulty_config));

  plain.train(training);
  faulty.train(training);
  const SimulationResult ra = plain.run(eval);
  const SimulationResult rb = faulty.run(eval);
  EXPECT_EQ(ra.vm_crashes, 0u);
  EXPECT_GT(rb.vm_crashes, 0u);
  // A crashing, telemetry-starved cluster cannot behave identically.
  EXPECT_TRUE(ra.slo_violation_rate != rb.slo_violation_rate ||
              ra.overall_utilization != rb.overall_utilization ||
              ra.jobs_completed != rb.jobs_completed);
}

TEST(FaultInjectionSimTest, BaselineMethodsSurviveFaults) {
  const trace::Trace training = tiny_trace(60, 11);
  const trace::Trace eval = tiny_trace(20, 16);
  for (Method m : {Method::kRccr, Method::kCloudScale, Method::kDra}) {
    SimulationConfig config = tiny_config(m);
    config.faults = heavy_faults();
    Simulation sim(std::move(config));
    sim.train(training);
    const SimulationResult result = sim.run(eval);
    EXPECT_EQ(result.jobs_completed + result.jobs_dropped, eval.size())
        << predict::method_name(m);
  }
}

TEST(FaultInjectionSimTest, ParallelReplicationBitIdenticalUnderFaults) {
  ExperimentConfig experiment;
  experiment.seed = 9;
  experiment.training_jobs = 60;
  experiment.training_horizon_slots = 120;
  experiment.faults = fault::scaled_fault_config(0.8);
  ASSERT_TRUE(experiment.faults.any());

  ReplicationConfig serial;
  serial.replications = 3;
  serial.threads = 1;
  ReplicationConfig parallel = serial;
  parallel.threads = 3;

  const ReplicatedPoint a =
      run_replicated_point(experiment, Method::kCorp, 25, serial);
  const ReplicatedPoint b =
      run_replicated_point(experiment, Method::kCorp, 25, parallel);
  EXPECT_EQ(a.overall_utilization.mean, b.overall_utilization.mean);
  EXPECT_EQ(a.overall_utilization.half_width, b.overall_utilization.half_width);
  EXPECT_EQ(a.slo_violation_rate.mean, b.slo_violation_rate.mean);
  EXPECT_EQ(a.prediction_error_rate.mean, b.prediction_error_rate.mean);
  EXPECT_EQ(a.opportunistic_placements.mean, b.opportunistic_placements.mean);
}

TEST(FaultInjectionSimTest, PoisonedPredictorDegradesTier) {
  const trace::Trace training = tiny_trace(60, 11);
  const trace::Trace eval = tiny_trace(30, 17);
  SimulationConfig config = tiny_config(Method::kCorp);
  // Predictor faults only, at a rate that must trip the health monitor.
  config.faults.predictor_fault_rate = 0.5;
  Simulation sim(std::move(config));
  sim.train(training);
  const SimulationResult result = sim.run(eval);
  EXPECT_GT(result.degradation_tier, 0);
  EXPECT_GT(sim.predictor().health().demotions(), 0u);
  // The run still completes its workload.
  EXPECT_EQ(result.jobs_completed, eval.size());
}

}  // namespace
}  // namespace corp::sim
