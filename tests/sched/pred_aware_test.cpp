// Method pred-aware (CorpScheduler built with a trust input) differential
// and TrustController unit tests.
//
// The λ endpoints are contracts, not approximations: λ=1 must reproduce
// default CORP decision-for-decision (same pools, same carve sizing,
// same tie-breaking) and λ=0 must reproduce CORP with opportunistic
// placement disabled. The blend expressions are chosen to be IEEE-exact
// at the endpoints, so these tests EXPECT_EQ doubles.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sched/corp_scheduler.hpp"
#include "sched/scheduler.hpp"
#include "sched/trust.hpp"

namespace corp::sched {
namespace {

Job make_job(std::uint64_t id, double cpu, double mem, double sto) {
  Job job;
  job.id = id;
  job.duration_slots = 2;
  job.request = ResourceVector(cpu, mem, sto);
  job.usage.assign(2, ResourceVector(cpu / 2, mem / 2, sto / 2));
  return job;
}

struct Fixture {
  std::vector<VmView> views;
  util::Rng rng{99};

  SchedulerContext context() {
    SchedulerContext ctx;
    ctx.vms = views;
    ctx.max_vm_capacity = ResourceVector(8, 32, 180);
    ctx.rng = &rng;
    return ctx;
  }
};

/// Mixed availability: an unlocked predicted-unused pool, a locked one,
/// and plain unallocated capacity — enough texture that the opportunistic
/// and fresh paths both see real choices.
Fixture mixed_fixture() {
  Fixture f;
  VmView v0;
  v0.vm_id = 0;
  v0.predicted_unused = ResourceVector(4, 16, 90);
  v0.unlocked = true;
  v0.unallocated = ResourceVector(0.5, 2, 10);
  VmView v1;
  v1.vm_id = 1;
  v1.predicted_unused = ResourceVector(2, 8, 40);
  v1.unlocked = false;  // gate locked: fresh-only
  v1.unallocated = ResourceVector(8, 32, 180);
  VmView v2;
  v2.vm_id = 2;
  v2.predicted_unused = ResourceVector(3, 10, 50);
  v2.unlocked = true;
  v2.unallocated = ResourceVector(4, 16, 90);
  f.views = {v0, v1, v2};
  return f;
}

std::vector<Job> make_batch_jobs() {
  return {make_job(1, 1.0, 4.0, 10.0), make_job(2, 2.0, 0.5, 5.0),
          make_job(3, 0.5, 8.0, 5.0), make_job(4, 1.5, 6.0, 20.0)};
}

std::vector<const Job*> pointers(const std::vector<Job>& jobs) {
  std::vector<const Job*> batch;
  for (const Job& job : jobs) batch.push_back(&job);
  return batch;
}

/// Method pred-aware at a fixed trust λ.
CorpScheduler pred_aware_at(double lambda, CorpSchedulerConfig config = {},
                            std::uint64_t seed = 42) {
  return CorpScheduler(config, Method::kPredAware, lambda, false, seed);
}

/// Method pred-aware with λ driven by the trust signals.
CorpScheduler adaptive_pred_aware() {
  return CorpScheduler({}, Method::kPredAware, 1.0, true);
}

void expect_identical(const std::vector<PlacementDecision>& lhs,
                      const std::vector<PlacementDecision>& rhs) {
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].batch_indices, rhs[i].batch_indices) << "decision " << i;
    EXPECT_EQ(lhs[i].vm_id, rhs[i].vm_id) << "decision " << i;
    EXPECT_EQ(lhs[i].kind, rhs[i].kind) << "decision " << i;
    EXPECT_EQ(lhs[i].allocated, rhs[i].allocated) << "decision " << i;
    EXPECT_EQ(lhs[i].request_fraction, rhs[i].request_fraction)
        << "decision " << i;
  }
}

TEST(PredAwareDifferentialTest, FullTrustMatchesCorpExactly) {
  const std::vector<Job> jobs = make_batch_jobs();
  const std::vector<const Job*> batch = pointers(jobs);

  Fixture corp_fixture = mixed_fixture();
  CorpScheduler corp;
  const auto corp_ctx = corp_fixture.context();
  const auto corp_decisions = corp.place(batch, corp_ctx);

  Fixture pa_fixture = mixed_fixture();
  CorpScheduler pred_aware = pred_aware_at(1.0);
  const auto pa_ctx = pa_fixture.context();
  const auto pa_decisions = pred_aware.place(batch, pa_ctx);

  ASSERT_FALSE(corp_decisions.empty());
  expect_identical(pa_decisions, corp_decisions);
  EXPECT_EQ(pred_aware.method(), Method::kPredAware);
  EXPECT_EQ(corp.method(), Method::kCorp);
  EXPECT_EQ(pred_aware.current_trust(), 1.0);
}

TEST(PredAwareDifferentialTest, ZeroTrustMatchesDemandBasedCorp) {
  const std::vector<Job> jobs = make_batch_jobs();
  const std::vector<const Job*> batch = pointers(jobs);

  Fixture corp_fixture = mixed_fixture();
  CorpSchedulerConfig demand_based;
  demand_based.enable_opportunistic = false;
  CorpScheduler corp(demand_based);
  const auto corp_ctx = corp_fixture.context();
  const auto corp_decisions = corp.place(batch, corp_ctx);

  Fixture pa_fixture = mixed_fixture();
  CorpScheduler pred_aware = pred_aware_at(0.0);
  const auto pa_ctx = pa_fixture.context();
  const auto pa_decisions = pred_aware.place(batch, pa_ctx);

  ASSERT_FALSE(corp_decisions.empty());
  expect_identical(pa_decisions, corp_decisions);
  for (const PlacementDecision& d : pa_decisions) {
    EXPECT_EQ(d.kind, AllocationKind::kReserved);
    EXPECT_EQ(d.request_fraction, 1.0);
  }
}

TEST(PredAwareDifferentialTest, TrustOutsideUnitIntervalIsClamped) {
  const std::vector<Job> jobs = make_batch_jobs();
  const std::vector<const Job*> batch = pointers(jobs);

  Fixture reference_fixture = mixed_fixture();
  CorpScheduler at_one = pred_aware_at(1.0);
  const auto ref_ctx = reference_fixture.context();
  const auto reference = at_one.place(batch, ref_ctx);

  Fixture clamped_fixture = mixed_fixture();
  CorpScheduler clamped = pred_aware_at(7.5);
  const auto clamped_ctx = clamped_fixture.context();
  expect_identical(clamped.place(batch, clamped_ctx), reference);
  EXPECT_EQ(clamped.current_trust(), 1.0);
}

TEST(PredAwareDifferentialTest, InteriorTrustBlendsCarveSizing) {
  const std::vector<Job> jobs = make_batch_jobs();
  const std::vector<const Job*> batch = pointers(jobs);

  Fixture f = mixed_fixture();
  CorpScheduler pred_aware = pred_aware_at(0.5);
  const auto ctx = f.context();
  const auto decisions = pred_aware.place(batch, ctx);

  const CorpSchedulerConfig& config = pred_aware.config();
  const double expected_fraction = 0.5 * config.opportunistic_sizing + 0.5;
  bool saw_opportunistic = false;
  for (const PlacementDecision& d : decisions) {
    if (d.kind != AllocationKind::kOpportunistic) continue;
    saw_opportunistic = true;
    EXPECT_EQ(d.request_fraction, expected_fraction);
    // Interior carve is wider than the fully-trusting one: as trust
    // falls the scheduler admits fewer entities but sizes each closer to
    // its worst-case demand.
    EXPECT_GT(d.request_fraction, config.opportunistic_sizing);
    EXPECT_LT(d.request_fraction, 1.0);
  }
  EXPECT_TRUE(saw_opportunistic);
}

TEST(PredAwareDifferentialTest, OpportunisticAdmissionShrinksWithTrust) {
  const std::vector<Job> jobs = make_batch_jobs();
  const std::vector<const Job*> batch = pointers(jobs);
  std::size_t previous = 0;
  bool first = true;
  for (const double lambda : {1.0, 0.6, 0.2, 0.0}) {
    Fixture f = mixed_fixture();
    CorpScheduler pred_aware = pred_aware_at(lambda);
    const auto ctx = f.context();
    std::size_t opportunistic = 0;
    for (const PlacementDecision& d : pred_aware.place(batch, ctx)) {
      if (d.kind == AllocationKind::kOpportunistic) ++opportunistic;
    }
    if (!first) {
      EXPECT_LE(opportunistic, previous) << "lambda " << lambda;
    }
    previous = opportunistic;
    first = false;
  }
  EXPECT_EQ(previous, 0u);  // λ=0 never places opportunistically
}

TEST(PredAwareDifferentialTest, DisabledOpportunisticOverridesTrust) {
  const std::vector<Job> jobs = make_batch_jobs();
  const std::vector<const Job*> batch = pointers(jobs);
  Fixture f = mixed_fixture();
  CorpSchedulerConfig config;
  config.enable_opportunistic = false;
  CorpScheduler pred_aware = pred_aware_at(1.0, config);
  const auto ctx = f.context();
  for (const PlacementDecision& d : pred_aware.place(batch, ctx)) {
    EXPECT_EQ(d.kind, AllocationKind::kReserved);
  }
}

TEST(PredAwareTieBreakTest, InteriorTrustTiesResolveWithinTiedSet) {
  // Two unlocked VMs with identical predicted-unused pools: every feasible
  // volume is an exact tie, which the reference rule would resolve to the
  // lower VM index forever. At interior λ the tie-break stream picks among
  // the tied set; the choice must stay within it and be reproducible.
  Fixture f;
  for (std::uint32_t id = 0; id < 2; ++id) {
    VmView vm;
    vm.vm_id = id;
    vm.predicted_unused = ResourceVector(4, 16, 90);
    vm.unlocked = true;
    vm.unallocated = ResourceVector(8, 32, 180);
    f.views.push_back(vm);
  }
  const Job job = make_job(1, 1.0, 4.0, 10.0);
  const std::vector<const Job*> batch{&job};

  CorpScheduler first = pred_aware_at(0.5, {}, 7);
  CorpScheduler second = pred_aware_at(0.5, {}, 7);
  const auto ctx = f.context();
  const auto a = first.place(batch, ctx);
  const auto b = second.place(batch, ctx);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].kind, AllocationKind::kOpportunistic);
  EXPECT_LE(a[0].vm_id, 1u);
  // Same seed, same fixture: the draw is reproducible.
  EXPECT_EQ(a[0].vm_id, b[0].vm_id);
}

TEST(PredAwareTieBreakTest, EndpointsNeverDraw) {
  // At λ=1 the tied set must resolve exactly like default CORP (first
  // candidate), whatever the tie-break seed says.
  Fixture f;
  for (std::uint32_t id = 0; id < 3; ++id) {
    VmView vm;
    vm.vm_id = id;
    vm.predicted_unused = ResourceVector(4, 16, 90);
    vm.unlocked = true;
    vm.unallocated = ResourceVector(8, 32, 180);
    f.views.push_back(vm);
  }
  const Job job = make_job(1, 1.0, 4.0, 10.0);
  const std::vector<const Job*> batch{&job};
  for (const std::uint64_t seed : {7ULL, 1234567ULL}) {
    CorpScheduler pred_aware = pred_aware_at(1.0, {}, seed);
    CorpScheduler corp;
    const auto ctx = f.context();
    const auto pa = pred_aware.place(batch, ctx);
    const auto reference = corp.place(batch, ctx);
    ASSERT_EQ(pa.size(), 1u);
    ASSERT_EQ(reference.size(), 1u);
    EXPECT_EQ(pa[0].vm_id, reference[0].vm_id) << "seed " << seed;
  }
}

TEST(PredAwareAdaptiveTest, AdaptiveModeFollowsSignals) {
  const std::vector<Job> jobs = make_batch_jobs();
  const std::vector<const Job*> batch = pointers(jobs);
  CorpScheduler pred_aware = adaptive_pred_aware();

  // Healthy signals: full trust, matches default CORP.
  Fixture healthy = mixed_fixture();
  TrustSignals good;
  auto ctx = healthy.context();
  ctx.trust = &good;
  const auto trusting = pred_aware.place(batch, ctx);
  EXPECT_EQ(pred_aware.current_trust(), 1.0);
  Fixture corp_fixture = mixed_fixture();
  CorpScheduler corp;
  const auto corp_ctx = corp_fixture.context();
  expect_identical(trusting, corp.place(batch, corp_ctx));

  // Reserved-only signals: trust collapses to 0 and every placement is
  // a demand-based reservation.
  Fixture degraded = mixed_fixture();
  TrustSignals bad;
  bad.tier = predict::DegradationTier::kReservedOnly;
  auto bad_ctx = degraded.context();
  bad_ctx.trust = &bad;
  for (const PlacementDecision& d : pred_aware.place(batch, bad_ctx)) {
    EXPECT_EQ(d.kind, AllocationKind::kReserved);
  }
  EXPECT_EQ(pred_aware.current_trust(), 0.0);
}

TEST(PredAwareAdaptiveTest, MissingSignalsDefaultToFullTrust) {
  const std::vector<Job> jobs = make_batch_jobs();
  const std::vector<const Job*> batch = pointers(jobs);
  CorpScheduler pred_aware = adaptive_pred_aware();
  Fixture f = mixed_fixture();
  const auto ctx = f.context();  // ctx.trust left null
  pred_aware.place(batch, ctx);
  EXPECT_EQ(pred_aware.current_trust(), 1.0);
}

TEST(TrustControllerTest, HealthySignalsGiveFullTrust) {
  TrustController controller;
  EXPECT_EQ(controller.update(TrustSignals{}), 1.0);
  EXPECT_EQ(controller.lambda(), 1.0);
}

TEST(TrustControllerTest, ReservedOnlyGivesZeroRegardlessOfFloor) {
  TrustController controller;
  TrustSignals signals;
  signals.tier = predict::DegradationTier::kReservedOnly;
  signals.window_fault_fraction = 0.0;
  signals.min_gate_probability = 1.0;
  EXPECT_EQ(controller.update(signals), 0.0);
}

TEST(TrustControllerTest, FallbackTierCapsTrust) {
  TrustController controller;
  TrustSignals signals;
  signals.tier = predict::DegradationTier::kFallback;
  const double lambda = controller.update(signals);
  EXPECT_EQ(lambda, 0.45);
}

TEST(TrustControllerTest, FaultFractionPenaltyIsContinuous) {
  TrustController controller;
  double previous = 1.0;
  for (const double fraction : {0.0, 0.05, 0.10, 0.25, 0.5, 1.0}) {
    TrustSignals signals;
    signals.window_fault_fraction = fraction;
    const double lambda = controller.update(signals);
    EXPECT_LE(lambda, previous) << "fraction " << fraction;
    previous = lambda;
  }
  // Exponent 2: a 10% faulty window costs 19% trust, not a cliff.
  TrustSignals ten_percent;
  ten_percent.window_fault_fraction = 0.10;
  EXPECT_NEAR(controller.update(ten_percent), 0.81, 1e-12);
  TrustSignals all_faulty;
  all_faulty.window_fault_fraction = 1.0;
  EXPECT_EQ(controller.update(all_faulty), 0.0);
}

TEST(TrustControllerTest, GateMarginScalesTrust) {
  TrustController controller;
  TrustSignals signals;
  signals.min_gate_probability = 0.475;
  signals.probability_threshold = 0.95;
  EXPECT_NEAR(controller.update(signals), 0.5, 1e-12);
  // At or above threshold the margin saturates at 1.
  signals.min_gate_probability = 2.0;
  EXPECT_EQ(controller.update(signals), 1.0);
  // A zero threshold cannot divide; the margin term drops out.
  signals.probability_threshold = 0.0;
  signals.min_gate_probability = 0.0;
  EXPECT_EQ(controller.update(signals), 1.0);
}

}  // namespace
}  // namespace corp::sched
