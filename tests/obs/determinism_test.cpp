// Pins the obs determinism contract (src/obs/metrics.hpp): metric
// collection only observes — clocks and atomics — so running the same
// experiment point with metrics enabled and disabled must produce
// bit-identical results for every deterministic output field. Only the
// wall-clock latency fields may differ.
#include <gtest/gtest.h>

#include "../common/sim_fixture.hpp"
#include "obs/metrics.hpp"
#include "sim/experiment.hpp"

namespace corp::sim {
namespace {

ExperimentConfig reduced_experiment() {
  ExperimentConfig experiment;
  experiment.environment = cluster::EnvironmentConfig::PalmettoCluster();
  experiment.seed = 7;
  experiment.training_jobs = 60;
  experiment.training_horizon_slots = 120;
  return experiment;
}

PointResult run_with_metrics(bool metrics_on) {
  obs::registry().reset();
  obs::set_enabled(metrics_on);
  const PointResult result =
      run_point(reduced_experiment(), Method::kCorp, 100);
  obs::set_enabled(false);
  return result;
}

TEST(ObsDeterminismTest, MetricsOnOffProduceBitIdenticalResults) {
  const PointResult on = run_with_metrics(true);
  const PointResult off = run_with_metrics(false);

  // Simulation outputs, exact: any drift means instrumentation leaked
  // into simulation state or an RNG stream.
  EXPECT_EQ(on.sim.method, off.sim.method);
  testfix::expect_identical(on.sim, off.sim);
  // compute_latency_ms / total_latency_ms are wall-clock measurements and
  // legitimately differ run to run; they are deliberately not compared.

  // Prediction evaluation, exact.
  EXPECT_EQ(on.prediction.jobs_evaluated, off.prediction.jobs_evaluated);
  EXPECT_EQ(on.prediction.jobs_correct, off.prediction.jobs_correct);
  EXPECT_EQ(on.prediction.error_rate, off.prediction.error_rate);
  EXPECT_EQ(on.prediction.mean_error, off.prediction.mean_error);
  EXPECT_EQ(on.prediction.mean_abs_error, off.prediction.mean_abs_error);
}

TEST(ObsDeterminismTest, EnabledRunActuallyCollects) {
  obs::registry().reset();
  obs::set_enabled(true);
  run_point(reduced_experiment(), Method::kCorp, 100);
  obs::set_enabled(false);
  const obs::MetricsSnapshot snap = obs::registry().snapshot();
  EXPECT_TRUE(snap.phases.count("sim.run"));
  EXPECT_TRUE(snap.phases.count("dnn.fit"));
  EXPECT_TRUE(snap.phases.count("hmm.baum_welch"));
  EXPECT_TRUE(snap.phases.count("sched.place"));
  ASSERT_TRUE(snap.counters.count("sim.runs"));
  EXPECT_GE(snap.counters.at("sim.runs"), 1u);
}

}  // namespace
}  // namespace corp::sim
