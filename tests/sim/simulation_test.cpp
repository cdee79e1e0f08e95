#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include "../common/sim_fixture.hpp"
#include "sim/experiment.hpp"

namespace corp::sim {
namespace {

using testfix::tiny_trace;

SimulationConfig tiny_config(Method method) {
  SimulationConfig config;
  config.method = method;
  config.seed = 5;
  return config;
}

TEST(CorpusBuildersTest, UnusedCorpusIsNormalized) {
  const trace::Trace trace = tiny_trace(30, 1);
  const predict::VectorCorpus corpus = build_unused_corpus(trace);
  for (std::size_t r = 0; r < trace::kNumResources; ++r) {
    ASSERT_FALSE(corpus.per_type[r].empty());
    for (const auto& series : corpus.per_type[r]) {
      for (double x : series) {
        EXPECT_GE(x, 0.0);
        EXPECT_LE(x, 1.0);
      }
    }
  }
}

TEST(CorpusBuildersTest, UtilizationCorpusInUnitInterval) {
  const trace::Trace trace = tiny_trace(30, 2);
  const predict::SeriesCorpus corpus = build_utilization_corpus(trace);
  ASSERT_FALSE(corpus.empty());
  for (const auto& series : corpus) {
    for (double x : series) {
      EXPECT_GE(x, 0.0);
      EXPECT_LE(x, 1.0 + 1e-9);
    }
  }
}

TEST(ScaledGeneratorTest, RequestsFitEnvironmentVms) {
  for (const auto& env : {cluster::EnvironmentConfig::PalmettoCluster(),
                          cluster::EnvironmentConfig::AmazonEc2()}) {
    trace::GoogleTraceGenerator gen(scaled_generator_config(env, 50, 20));
    util::Rng rng(3);
    const trace::Trace trace = gen.generate(rng);
    const auto vm_capacity = env.vm_capacity();
    for (const auto& job : trace.jobs()) {
      EXPECT_TRUE(job.request.fits_within(vm_capacity))
          << env.name << " job " << job.id;
    }
  }
}

TEST(SimulationTest, RunBeforeTrainThrows) {
  Simulation sim(tiny_config(Method::kCorp));
  EXPECT_THROW(sim.run(tiny_trace(10, 4)), std::logic_error);
}

// The constructor is the one scheduler factory every run uses: each
// method builds, and its scheduler reports the method it was built for.
TEST(SimulationTest, BuildsSchedulerForEveryMethod) {
  for (const Method m : {Method::kCorp, Method::kRccr, Method::kCloudScale,
                         Method::kDra, Method::kPredAware}) {
    Simulation sim(tiny_config(m));
    EXPECT_EQ(sim.scheduler().method(), m) << predict::method_name(m);
  }
}

// Params is the one trust channel: a hand-built pred-aware config that
// sets only params.trust runs at that λ.
TEST(SimulationTest, PredAwareTakesTrustFromParams) {
  SimulationConfig config = tiny_config(Method::kPredAware);
  config.params.trust = 0.5;
  Simulation sim(std::move(config));
  sim.train(tiny_trace(60, 11));
  const SimulationResult result = sim.run(tiny_trace(40, 15));
  EXPECT_EQ(result.trust_lambda, 0.5);
}

class SimulationMethodTest : public ::testing::TestWithParam<Method> {};

TEST_P(SimulationMethodTest, CompletesEveryJob) {
  Simulation sim(tiny_config(GetParam()));
  sim.train(tiny_trace(60, 11));
  const trace::Trace eval = tiny_trace(25, 12);
  const SimulationResult result = sim.run(eval);
  EXPECT_EQ(result.jobs_completed, eval.size());
  EXPECT_EQ(result.jobs_forced, 0u);
  EXPECT_GT(result.slots_simulated, 0);
}

TEST_P(SimulationMethodTest, MetricsInValidRanges) {
  Simulation sim(tiny_config(GetParam()));
  sim.train(tiny_trace(60, 11));
  const SimulationResult result = sim.run(tiny_trace(25, 13));
  EXPECT_GE(result.slo_violation_rate, 0.0);
  EXPECT_LE(result.slo_violation_rate, 1.0);
  EXPECT_GT(result.overall_utilization, 0.0);
  EXPECT_GE(result.mean_stretch, 1.0 - 1e-9);
  for (std::size_t r = 0; r < trace::kNumResources; ++r) {
    EXPECT_GT(result.mean_utilization[r], 0.0);
  }
  EXPECT_GE(result.total_latency_ms, result.compute_latency_ms);
}

TEST_P(SimulationMethodTest, DeterministicAcrossRuns) {
  const trace::Trace training = tiny_trace(60, 11);
  const trace::Trace eval = tiny_trace(25, 14);
  Simulation a(tiny_config(GetParam()));
  Simulation b(tiny_config(GetParam()));
  a.train(training);
  b.train(training);
  const SimulationResult ra = a.run(eval);
  const SimulationResult rb = b.run(eval);
  EXPECT_DOUBLE_EQ(ra.overall_utilization, rb.overall_utilization);
  EXPECT_EQ(ra.jobs_violated, rb.jobs_violated);
  EXPECT_EQ(ra.opportunistic_placements, rb.opportunistic_placements);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SimulationMethodTest,
                         ::testing::Values(Method::kCorp, Method::kRccr,
                                           Method::kCloudScale,
                                           Method::kDra));

TEST(SimulationTest, OnlyOpportunisticMethodsPlaceOpportunistically) {
  for (Method m : {Method::kCloudScale, Method::kDra}) {
    Simulation sim(tiny_config(m));
    sim.train(tiny_trace(60, 11));
    const SimulationResult result = sim.run(tiny_trace(40, 15));
    EXPECT_EQ(result.opportunistic_placements, 0u)
        << predict::method_name(m);
  }
}

TEST(SimulationTest, PackingAblationReducesOrKeepsUtilization) {
  const trace::Trace training = tiny_trace(80, 21);
  const trace::Trace eval = tiny_trace(60, 22);

  SimulationConfig with_packing = tiny_config(Method::kCorp);
  SimulationConfig without_packing = tiny_config(Method::kCorp);
  sched::CorpSchedulerConfig no_pack;
  no_pack.enable_packing = false;
  without_packing.corp_scheduler = no_pack;

  Simulation a(with_packing), b(without_packing);
  a.train(training);
  b.train(training);
  const auto ra = a.run(eval);
  const auto rb = b.run(eval);
  // Both complete the workload; the packed variant should not be worse by
  // a wide margin (usually better).
  EXPECT_EQ(ra.jobs_completed, rb.jobs_completed);
  EXPECT_GT(ra.overall_utilization, rb.overall_utilization - 0.1);
}

TEST(SimulationTest, OpportunisticAblationDropsToReservationOnly) {
  SimulationConfig config = tiny_config(Method::kCorp);
  sched::CorpSchedulerConfig no_opp;
  no_opp.enable_opportunistic = false;
  config.corp_scheduler = no_opp;
  Simulation sim(std::move(config));
  sim.train(tiny_trace(60, 11));
  const SimulationResult result = sim.run(tiny_trace(40, 23));
  EXPECT_EQ(result.opportunistic_placements, 0u);
}

TEST(SimulationTest, GraceCutoffForcesCompletion) {
  SimulationConfig config = tiny_config(Method::kCorp);
  config.grace_slots = 0;  // brutal cutoff right at the horizon
  Simulation sim(std::move(config));
  sim.train(tiny_trace(60, 11));
  const trace::Trace eval = tiny_trace(30, 24);
  const SimulationResult result = sim.run(eval);
  // Everything is accounted for: completed includes forced records.
  EXPECT_EQ(result.jobs_completed, eval.size());
}

}  // namespace
}  // namespace corp::sim
