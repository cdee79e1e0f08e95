// Golden pins of the slot engine: the exact results of fixed runs, one
// per engine path. The differential suites compare the engine with
// itself (shards, threads, clock modes, streamed vs materialized), so a
// change that shifts every layout the same way passes them all; these
// pins catch it. Each case asserts that the counters of the path it
// exists for are nonzero, then compares every field of
// testfix::deterministic_fields plus the clock diagnostics and the
// trust knob exactly (doubles as hex-float literals).
//
// A mismatch prints the case's whole actual block in the literal format
// of the k<Case> constants below. Paste it over the constant only after
// showing that the change is meant to move the engine's results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../common/sim_fixture.hpp"
#include "cluster/environment.hpp"
#include "fault/fault.hpp"
#include "sim/simulation.hpp"

namespace corp::sim {
namespace {

using testfix::ResultField;

/// deterministic_fields plus the fields it leaves out for the
/// differential suites but that a fixed configuration pins exactly.
std::vector<ResultField> golden_fields(const SimulationResult& r) {
  std::vector<ResultField> f = testfix::deterministic_fields(r);
  f.push_back({"slots_ticked", static_cast<double>(r.slots_ticked)});
  f.push_back({"slots_skipped", static_cast<double>(r.slots_skipped)});
  f.push_back({"trust_lambda", r.trust_lambda});
  return f;
}

std::string literal(double v) {
  char buf[64];
  if (std::floor(v) == v && std::fabs(v) < 9.0e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%a", v);
  }
  return buf;
}

void expect_golden(const SimulationResult& result,
                   const std::vector<ResultField>& expected) {
  const std::vector<ResultField> actual = golden_fields(result);
  bool same = actual.size() == expected.size();
  for (std::size_t i = 0; same && i < actual.size(); ++i) {
    same = actual[i].name == expected[i].name &&
           actual[i].value == expected[i].value;
  }
  if (same) return;
  std::string block;
  for (const ResultField& field : actual) {
    block += "    {\"" + field.name + "\", " + literal(field.value) + "},\n";
  }
  ADD_FAILURE() << "golden mismatch; actual:\n" << block;
  for (std::size_t i = 0; i < std::min(actual.size(), expected.size()); ++i) {
    EXPECT_EQ(actual[i].name, expected[i].name);
    EXPECT_EQ(actual[i].value, expected[i].value) << actual[i].name;
  }
}

struct RunSpec {
  cluster::EnvironmentConfig environment =
      cluster::EnvironmentConfig::PalmettoCluster();
  Method method = Method::kCorp;
  fault::FaultConfig faults;
  std::optional<predict::StackConfig> stack;
  bool trust_adaptive = false;
  std::int64_t grace_slots = 720;
  bool record_timeline = false;
};

SimulationResult run_spec(const RunSpec& spec, const trace::Trace& training,
                          const trace::Trace& eval) {
  SimulationConfig config;
  config.environment = spec.environment;
  config.method = spec.method;
  config.seed = 5;
  config.faults = spec.faults;
  config.stack = spec.stack;
  config.params.trust_adaptive = spec.trust_adaptive;
  config.grace_slots = spec.grace_slots;
  config.record_timeline = spec.record_timeline;
  Simulation sim(std::move(config));
  sim.train(training);
  return sim.run(eval);
}

// Expected results of each case, in golden_fields order.
// clang-format off
const std::vector<ResultField> kCorpUnderCrashes = {
    {"mean_utilization.CPU", 0x1.3998b2fd4dda6p-1},
    {"mean_utilization.MEM", 0x1.3b411e8df66f5p-1},
    {"mean_utilization.STORAGE", 0x1.415b4b85fd6ap-1},
    {"overall_utilization", 0x1.3fa4bcd61e60bp-1},
    {"mean_wastage.CPU", 0x1.8cce9a05644b4p-2},
    {"mean_wastage.MEM", 0x1.897dc2e413216p-2},
    {"mean_wastage.STORAGE", 0x1.7d4968f4052bfp-2},
    {"overall_wastage", 0x1.80b68653c33eap-2},
    {"slo_violation_rate", 0x1.d1745d1745d17p-2},
    {"mean_stretch", 0x1.3830c41f613d2p+0},
    {"jobs_completed", 157},
    {"jobs_violated", 95},
    {"jobs_forced", 0},
    {"opportunistic_placements", 0},
    {"reserved_placements", 302},
    {"lease_promotions", 0},
    {"lease_preemptions", 0},
    {"vm_crashes", 182},
    {"vm_recoveries", 156},
    {"jobs_killed", 147},
    {"job_retries", 95},
    {"jobs_dropped", 52},
    {"telemetry_gaps", 579},
    {"degradation_tier", 2},
    {"slots_simulated", 38},
    {"predictions_amortized", 0},
    {"timeline.samples", 0},
    {"timeline.digest_hi", 0},
    {"timeline.digest_lo", 0},
    {"slots_ticked", 38},
    {"slots_skipped", 0},
    {"trust_lambda", 1},
};

const std::vector<ResultField> kRccrUnderCrashes = {
    {"mean_utilization.CPU", 0x1.35b1613038cc9p-1},
    {"mean_utilization.MEM", 0x1.38d8bb77c4b3fp-1},
    {"mean_utilization.STORAGE", 0x1.427b31e7d0201p-1},
    {"overall_utilization", 0x1.3fdac4ca49e7p-1},
    {"mean_wastage.CPU", 0x1.949d3d9f8e66dp-2},
    {"mean_wastage.MEM", 0x1.8e4e891076981p-2},
    {"mean_wastage.STORAGE", 0x1.7b099c305fbfdp-2},
    {"overall_wastage", 0x1.804a766b6c322p-2},
    {"slo_violation_rate", 0x1.6a90892fc534bp-2},
    {"mean_stretch", 0x1.287393a4ace3cp+0},
    {"jobs_completed", 172},
    {"jobs_violated", 74},
    {"jobs_forced", 0},
    {"opportunistic_placements", 0},
    {"reserved_placements", 284},
    {"lease_promotions", 0},
    {"lease_preemptions", 0},
    {"vm_crashes", 263},
    {"vm_recoveries", 231},
    {"jobs_killed", 112},
    {"job_retries", 75},
    {"jobs_dropped", 37},
    {"telemetry_gaps", 573},
    {"degradation_tier", 2},
    {"slots_simulated", 52},
    {"predictions_amortized", 0},
    {"timeline.samples", 0},
    {"timeline.digest_hi", 0},
    {"timeline.digest_lo", 0},
    {"slots_ticked", 52},
    {"slots_skipped", 0},
    {"trust_lambda", 1},
};

const std::vector<ResultField> kCloudScaleReprovisionsUnderCrashes = {
    {"mean_utilization.CPU", 0x1.6e209681dfabbp-1},
    {"mean_utilization.MEM", 0x1.6b8aa3de8b946p-1},
    {"mean_utilization.STORAGE", 0x1.64e4159b6f957p-1},
    {"overall_utilization", 0x1.66c4281d4ad0fp-1},
    {"mean_wastage.CPU", 0x1.23bed2fc40a8ap-2},
    {"mean_wastage.MEM", 0x1.28eab842e8d74p-2},
    {"mean_wastage.STORAGE", 0x1.3637d4c920d52p-2},
    {"overall_wastage", 0x1.3277afc56a5e3p-2},
    {"slo_violation_rate", 0x1.0fec66e3d3e78p-1},
    {"mean_stretch", 0x1.5503e459c28e1p+0},
    {"jobs_completed", 156},
    {"jobs_violated", 111},
    {"jobs_forced", 0},
    {"opportunistic_placements", 0},
    {"reserved_placements", 300},
    {"lease_promotions", 0},
    {"lease_preemptions", 0},
    {"vm_crashes", 214},
    {"vm_recoveries", 180},
    {"jobs_killed", 144},
    {"job_retries", 91},
    {"jobs_dropped", 53},
    {"telemetry_gaps", 596},
    {"degradation_tier", 0},
    {"slots_simulated", 43},
    {"predictions_amortized", 0},
    {"timeline.samples", 0},
    {"timeline.digest_hi", 0},
    {"timeline.digest_lo", 0},
    {"slots_ticked", 43},
    {"slots_skipped", 0},
    {"trust_lambda", 1},
};

const std::vector<ResultField> kDraReprovisionsUnderCrashes = {
    {"mean_utilization.CPU", 0x1.305dd7677b416p-1},
    {"mean_utilization.MEM", 0x1.2e89c4ca58c31p-1},
    {"mean_utilization.STORAGE", 0x1.2907f401d4ccdp-1},
    {"overall_utilization", 0x1.2a987deb530bfp-1},
    {"mean_wastage.CPU", 0x1.9f445131097d3p-2},
    {"mean_wastage.MEM", 0x1.a2ec766b4e79ep-2},
    {"mean_wastage.STORAGE", 0x1.adf017fc56666p-2},
    {"overall_wastage", 0x1.aacf042959e82p-2},
    {"slo_violation_rate", 0x1.fd8cdc7a7cf01p-2},
    {"mean_stretch", 0x1.4ebf81c338744p+0},
    {"jobs_completed", 159},
    {"jobs_violated", 104},
    {"jobs_forced", 0},
    {"opportunistic_placements", 0},
    {"reserved_placements", 296},
    {"lease_promotions", 0},
    {"lease_preemptions", 0},
    {"vm_crashes", 245},
    {"vm_recoveries", 216},
    {"jobs_killed", 137},
    {"job_retries", 87},
    {"jobs_dropped", 50},
    {"telemetry_gaps", 570},
    {"degradation_tier", 0},
    {"slots_simulated", 49},
    {"predictions_amortized", 0},
    {"timeline.samples", 0},
    {"timeline.digest_hi", 0},
    {"timeline.digest_lo", 0},
    {"slots_ticked", 49},
    {"slots_skipped", 0},
    {"trust_lambda", 1},
};

const std::vector<ResultField> kAdaptivePredAwareUnderCrashes = {
    {"mean_utilization.CPU", 0x1.3998b2fd4dda6p-1},
    {"mean_utilization.MEM", 0x1.3b411e8df66f5p-1},
    {"mean_utilization.STORAGE", 0x1.415b4b85fd6ap-1},
    {"overall_utilization", 0x1.3fa4bcd61e60bp-1},
    {"mean_wastage.CPU", 0x1.8cce9a05644b4p-2},
    {"mean_wastage.MEM", 0x1.897dc2e413216p-2},
    {"mean_wastage.STORAGE", 0x1.7d4968f4052bfp-2},
    {"overall_wastage", 0x1.80b68653c33eap-2},
    {"slo_violation_rate", 0x1.d1745d1745d17p-2},
    {"mean_stretch", 0x1.3830c41f613d2p+0},
    {"jobs_completed", 157},
    {"jobs_violated", 95},
    {"jobs_forced", 0},
    {"opportunistic_placements", 0},
    {"reserved_placements", 302},
    {"lease_promotions", 0},
    {"lease_preemptions", 0},
    {"vm_crashes", 182},
    {"vm_recoveries", 156},
    {"jobs_killed", 147},
    {"job_retries", 95},
    {"jobs_dropped", 52},
    {"telemetry_gaps", 579},
    {"degradation_tier", 2},
    {"slots_simulated", 38},
    {"predictions_amortized", 0},
    {"timeline.samples", 0},
    {"timeline.digest_hi", 0},
    {"timeline.digest_lo", 0},
    {"slots_ticked", 38},
    {"slots_skipped", 0},
    {"trust_lambda", 0},
};

const std::vector<ResultField> kOpportunisticLeasesUnderCrashes = {
    {"mean_utilization.CPU", 0x1.5e6123a133faap-1},
    {"mean_utilization.MEM", 0x1.658b0a7a67603p-1},
    {"mean_utilization.STORAGE", 0x1.5a8290a7c2cadp-1},
    {"overall_utilization", 0x1.5d03ac65ade2bp-1},
    {"mean_wastage.CPU", 0x1.433db8bd980abp-2},
    {"mean_wastage.MEM", 0x1.34e9eb0b313f9p-2},
    {"mean_wastage.STORAGE", 0x1.4afadeb07a6a7p-2},
    {"overall_wastage", 0x1.45f8a734a43abp-2},
    {"slo_violation_rate", 0x1.ec9d5cef7729ap-5},
    {"mean_stretch", 0x1.0db4b6a7a1867p+0},
    {"jobs_completed", 898},
    {"jobs_violated", 54},
    {"jobs_forced", 0},
    {"opportunistic_placements", 114},
    {"reserved_placements", 802},
    {"lease_promotions", 20},
    {"lease_preemptions", 0},
    {"vm_crashes", 10},
    {"vm_recoveries", 6},
    {"jobs_killed", 23},
    {"job_retries", 23},
    {"jobs_dropped", 0},
    {"telemetry_gaps", 580},
    {"degradation_tier", 1},
    {"slots_simulated", 58},
    {"predictions_amortized", 0},
    {"timeline.samples", 0},
    {"timeline.digest_hi", 0},
    {"timeline.digest_lo", 0},
    {"slots_ticked", 58},
    {"slots_skipped", 0},
    {"trust_lambda", 1},
};

const std::vector<ResultField> kPartitionCapsHoldBackReservations = {
    {"mean_utilization.CPU", 0x1.0d97f9b5de62ep-1},
    {"mean_utilization.MEM", 0x1.1a92d75e8402bp-1},
    {"mean_utilization.STORAGE", 0x1.0fad50061ade8p-1},
    {"overall_utilization", 0x1.10be9b25cdd16p-1},
    {"mean_wastage.CPU", 0x1.e4d00c94433a5p-2},
    {"mean_wastage.MEM", 0x1.cada5142f7faap-2},
    {"mean_wastage.STORAGE", 0x1.e0a55ff3ca43p-2},
    {"overall_wastage", 0x1.de82c9b4645d4p-2},
    {"slo_violation_rate", 0x1.3da895da895dbp-1},
    {"mean_stretch", 0x1.b0e1ce5271211p+0},
    {"jobs_completed", 656},
    {"jobs_violated", 407},
    {"jobs_forced", 0},
    {"opportunistic_placements", 0},
    {"reserved_placements", 656},
    {"lease_promotions", 0},
    {"lease_preemptions", 0},
    {"vm_crashes", 0},
    {"vm_recoveries", 0},
    {"jobs_killed", 0},
    {"job_retries", 0},
    {"jobs_dropped", 0},
    {"telemetry_gaps", 0},
    {"degradation_tier", 0},
    {"slots_simulated", 55},
    {"predictions_amortized", 0},
    {"timeline.samples", 0},
    {"timeline.digest_hi", 0},
    {"timeline.digest_lo", 0},
    {"slots_ticked", 55},
    {"slots_skipped", 0},
    {"trust_lambda", 1},
};

const std::vector<ResultField> kGraceCutoffForcesCompletions = {
    {"mean_utilization.CPU", 0x1.3081dcc1885e7p-1},
    {"mean_utilization.MEM", 0x1.345e2aa508088p-1},
    {"mean_utilization.STORAGE", 0x1.2ec6d664c8eacp-1},
    {"overall_utilization", 0x1.2ee31b5b4ba06p-1},
    {"mean_wastage.CPU", 0x1.9efc467cef432p-2},
    {"mean_wastage.MEM", 0x1.9743aab5efeefp-2},
    {"mean_wastage.STORAGE", 0x1.a27253366e2a7p-2},
    {"overall_wastage", 0x1.a239c94968bf4p-2},
    {"slo_violation_rate", 0x1.d60474ccfcd57p-1},
    {"mean_stretch", 0x1.149c538517ab4p+2},
    {"jobs_completed", 2183},
    {"jobs_violated", 2004},
    {"jobs_forced", 1373},
    {"opportunistic_placements", 0},
    {"reserved_placements", 1830},
    {"lease_promotions", 0},
    {"lease_preemptions", 0},
    {"vm_crashes", 62},
    {"vm_recoveries", 53},
    {"jobs_killed", 755},
    {"job_retries", 755},
    {"jobs_dropped", 0},
    {"telemetry_gaps", 3074},
    {"degradation_tier", 0},
    {"slots_simulated", 42},
    {"predictions_amortized", 0},
    {"timeline.samples", 42},
    {"timeline.digest_hi", 2570362736},
    {"timeline.digest_lo", 327477509},
    {"slots_ticked", 42},
    {"slots_skipped", 0},
    {"trust_lambda", 1},
};

const std::vector<ResultField> kSparseTimelineSkipsIdleValleys = {
    {"mean_utilization.CPU", 0x1.1cbf3c4a2df52p-1},
    {"mean_utilization.MEM", 0x1.28ee6ca645429p-1},
    {"mean_utilization.STORAGE", 0x1.244fac1a06dcdp-1},
    {"overall_utilization", 0x1.245339c448bbdp-1},
    {"mean_wastage.CPU", 0x1.c681876ba415cp-2},
    {"mean_wastage.MEM", 0x1.ae2326b3757aep-2},
    {"mean_wastage.STORAGE", 0x1.b760a7cbf2465p-2},
    {"overall_wastage", 0x1.b7598c776e885p-2},
    {"slo_violation_rate", 0},
    {"mean_stretch", 1},
    {"jobs_completed", 125},
    {"jobs_violated", 0},
    {"jobs_forced", 0},
    {"opportunistic_placements", 0},
    {"reserved_placements", 125},
    {"lease_promotions", 0},
    {"lease_preemptions", 0},
    {"vm_crashes", 41},
    {"vm_recoveries", 33},
    {"jobs_killed", 0},
    {"job_retries", 0},
    {"jobs_dropped", 0},
    {"telemetry_gaps", 0},
    {"degradation_tier", 0},
    {"slots_simulated", 230},
    {"predictions_amortized", 0},
    {"timeline.samples", 230},
    {"timeline.digest_hi", 3476379363},
    {"timeline.digest_lo", 381284206},
    {"slots_ticked", 109},
    {"slots_skipped", 121},
    {"trust_lambda", 1},
};
// clang-format on

constexpr auto kWindow = static_cast<std::int64_t>(trace::kWindowSlots);

/// heavy_faults with a one-retry budget, so kills both retry and drop.
fault::FaultConfig crash_faults() {
  fault::FaultConfig faults = testfix::heavy_faults();
  faults.retry_budget = 1;
  return faults;
}

/// Crash kills, retries and drops under one method.
SimulationResult crash_run(Method method) {
  RunSpec spec;
  spec.method = method;
  spec.faults = crash_faults();
  spec.trust_adaptive = method == Method::kPredAware;
  const SimulationResult r = run_spec(spec, testfix::tiny_trace(60, 11),
                                      testfix::tiny_trace(40, 12));
  EXPECT_GT(r.vm_crashes, 0u);
  EXPECT_GT(r.jobs_killed, 0u);
  EXPECT_GT(r.job_retries, 0u);
  EXPECT_GT(r.jobs_dropped, 0u);
  EXPECT_GT(r.telemetry_gaps, 0u);
  return r;
}

TEST(EngineGoldenTest, CorpUnderCrashes) {
  expect_golden(crash_run(Method::kCorp), kCorpUnderCrashes);
}

TEST(EngineGoldenTest, RccrUnderCrashes) {
  expect_golden(crash_run(Method::kRccr), kRccrUnderCrashes);
}

TEST(EngineGoldenTest, CloudScaleReprovisionsUnderCrashes) {
  // Runs past several window boundaries, where the demand-based methods
  // re-size every reservation at the serial reprovision barrier.
  const SimulationResult r = crash_run(Method::kCloudScale);
  EXPECT_GT(r.slots_simulated, 3 * kWindow);
  expect_golden(r, kCloudScaleReprovisionsUnderCrashes);
}

TEST(EngineGoldenTest, DraReprovisionsUnderCrashes) {
  const SimulationResult r = crash_run(Method::kDra);
  EXPECT_GT(r.slots_simulated, 3 * kWindow);
  expect_golden(r, kDraReprovisionsUnderCrashes);
}

TEST(EngineGoldenTest, AdaptivePredAwareUnderCrashes) {
  const SimulationResult r = crash_run(Method::kPredAware);
  EXPECT_LT(r.trust_lambda, 1.0);
  expect_golden(r, kAdaptivePredAwareUnderCrashes);
}

/// The experiment harness's mid-aggressiveness stack: loose enough that
/// the Eq. 21 gate unlocks on a short run.
predict::StackConfig permissive_stack() {
  predict::StackConfig stack;
  stack.probability_threshold = 0.72;
  stack.confidence_level = 0.73;
  stack.error_tolerance = 1.0;
  return stack;
}

TEST(EngineGoldenTest, OpportunisticLeasesUnderCrashes) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  RunSpec spec;
  spec.stack = permissive_stack();
  spec.faults = fault::scaled_fault_config(0.5);
  const SimulationResult r =
      run_spec(spec, testfix::tiny_trace(env, 120, 41, 160),
               testfix::tiny_trace(env, 150, 42, 20));
  EXPECT_GT(r.opportunistic_placements, 0u);
  EXPECT_GT(r.lease_promotions, 0u);
  EXPECT_GT(r.vm_crashes, 0u);
  EXPECT_GT(r.job_retries, 0u);
  expect_golden(r, kOpportunisticLeasesUnderCrashes);
}

TEST(EngineGoldenTest, PartitionCapsHoldBackReservations) {
  // A cap tight enough to bind on the compute partition: the capped run
  // must differ from the same run with the cap lifted.
  cluster::EnvironmentConfig env =
      cluster::EnvironmentConfig::SlurmHeterogeneous();
  env.partitions[0].max_reserved_jobs = 8;
  const trace::Trace training = testfix::tiny_trace(env, 60, 61);
  const trace::Trace eval = testfix::tiny_trace(env, 120, 62);
  RunSpec spec;
  spec.environment = env;
  spec.method = Method::kDra;
  const SimulationResult capped = run_spec(spec, training, eval);
  spec.environment.partitions[0].max_reserved_jobs = 0;
  const SimulationResult uncapped = run_spec(spec, training, eval);
  EXPECT_NE(capped.slots_simulated, uncapped.slots_simulated);
  EXPECT_GT(capped.reserved_placements, 0u);
  expect_golden(capped, kPartitionCapsHoldBackReservations);
}

TEST(EngineGoldenTest, GraceCutoffForcesCompletions) {
  // An overloaded 30-VM fleet cut off two slots past the horizon: jobs
  // are still running, queued and (under crashes) waiting to retry, and
  // all of them are force-completed as violations.
  const auto env = cluster::EnvironmentConfig::AmazonEc2();
  RunSpec spec;
  spec.environment = env;
  spec.method = Method::kDra;
  spec.faults = testfix::heavy_faults();
  spec.grace_slots = 2;
  spec.record_timeline = true;
  const SimulationResult r = run_spec(spec, testfix::tiny_trace(env, 50, 71),
                                      testfix::tiny_trace(env, 400, 72));
  EXPECT_GT(r.jobs_forced, 0u);
  ASSERT_FALSE(r.timeline.empty());
  const TimelineSample& last = r.timeline.samples().back();
  EXPECT_GT(last.running_reserved + last.running_opportunistic, 0u);
  EXPECT_GT(last.queued, 0u);
  expect_golden(r, kGraceCutoffForcesCompletions);
}

TEST(EngineGoldenTest, SparseTimelineSkipsIdleValleys) {
  // The event clock jumps the idle valley, landing on the crash and
  // recovery transitions inside it, and fast-forwards the timeline.
  const auto env = cluster::EnvironmentConfig::AmazonEc2();
  RunSpec spec;
  spec.environment = env;
  spec.faults.vm_mttf_slots = 150.0;
  spec.faults.vm_mttr_slots = 40.0;
  spec.record_timeline = true;
  const SimulationResult r =
      run_spec(spec, testfix::tiny_trace(env, 50, 81),
               testfix::sparse_trace(env, 20, 2, 200, 82));
  EXPECT_GT(r.slots_skipped, 0);
  EXPECT_GT(r.vm_crashes, 0u);
  EXPECT_EQ(static_cast<std::int64_t>(r.timeline.samples().size()),
            r.slots_simulated);
  expect_golden(r, kSparseTimelineSkipsIdleValleys);
}

}  // namespace
}  // namespace corp::sim
