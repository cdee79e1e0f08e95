#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace corp::fault {
namespace {

TEST(FaultConfigTest, DefaultIsInert) {
  const FaultConfig config;
  EXPECT_FALSE(config.any());
  const FaultInjector injector(config, 1, 16, 1000);
  EXPECT_FALSE(injector.enabled());
  EXPECT_TRUE(injector.plan().transitions().empty());
}

TEST(FaultConfigTest, AnyTripsOnEachFaultClass) {
  FaultConfig mttf;
  mttf.vm_mttf_slots = 100.0;
  EXPECT_TRUE(mttf.any());
  FaultConfig gap;
  gap.telemetry_gap_rate = 0.1;
  EXPECT_TRUE(gap.any());
  FaultConfig straggler;
  straggler.straggler_rate = 0.1;
  EXPECT_TRUE(straggler.any());
  FaultConfig predictor;
  predictor.predictor_fault_rate = 0.1;
  EXPECT_TRUE(predictor.any());
}

TEST(ScaledFaultConfigTest, ZeroIntensityIsInert) {
  EXPECT_FALSE(scaled_fault_config(0.0).any());
  EXPECT_FALSE(scaled_fault_config(-1.0).any());
}

TEST(ScaledFaultConfigTest, IntensityScalesMonotonically) {
  const FaultConfig lo = scaled_fault_config(0.25);
  const FaultConfig hi = scaled_fault_config(1.0);
  EXPECT_TRUE(lo.any());
  EXPECT_TRUE(hi.any());
  EXPECT_GT(lo.vm_mttf_slots, hi.vm_mttf_slots);  // rarer crashes at low a
  EXPECT_LT(lo.telemetry_gap_rate, hi.telemetry_gap_rate);
  EXPECT_LT(lo.straggler_rate, hi.straggler_rate);
  EXPECT_LT(lo.predictor_fault_rate, hi.predictor_fault_rate);
}

TEST(FaultPlanTest, TransitionsSortedAndAlternating) {
  FaultConfig config;
  config.vm_mttf_slots = 40.0;
  config.vm_mttr_slots = 10.0;
  const FaultPlan plan(config, 99, 8, 2000);
  const auto& all = plan.transitions();
  ASSERT_FALSE(all.empty());
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const VmTransition& a, const VmTransition& b) {
                               return a.slot < b.slot ||
                                      (a.slot == b.slot && a.vm_id < b.vm_id);
                             }));
  // Per VM the schedule alternates crash, recovery, crash, ...
  for (std::uint32_t v = 0; v < 8; ++v) {
    bool expect_up = false;
    std::int64_t prev_slot = -1;
    for (const auto& tr : all) {
      if (tr.vm_id != v) continue;
      EXPECT_EQ(tr.up, expect_up);
      EXPECT_GT(tr.slot, prev_slot);
      prev_slot = tr.slot;
      expect_up = !expect_up;
    }
  }
  EXPECT_GT(plan.crash_count(), 0u);
}

TEST(FaultPlanTest, DeterministicAndSeedSensitive) {
  FaultConfig config;
  config.vm_mttf_slots = 50.0;
  const FaultPlan a(config, 7, 4, 1000);
  const FaultPlan b(config, 7, 4, 1000);
  const FaultPlan c(config, 8, 4, 1000);
  ASSERT_EQ(a.transitions().size(), b.transitions().size());
  for (std::size_t i = 0; i < a.transitions().size(); ++i) {
    EXPECT_EQ(a.transitions()[i].slot, b.transitions()[i].slot);
    EXPECT_EQ(a.transitions()[i].vm_id, b.transitions()[i].vm_id);
    EXPECT_EQ(a.transitions()[i].up, b.transitions()[i].up);
  }
  // A different seed produces a different schedule (overwhelmingly).
  bool differs = a.transitions().size() != c.transitions().size();
  for (std::size_t i = 0; !differs && i < a.transitions().size(); ++i) {
    differs = a.transitions()[i].slot != c.transitions()[i].slot ||
              a.transitions()[i].vm_id != c.transitions()[i].vm_id;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultPlanTest, VmScheduleInvariantToClusterSize) {
  // VM k's schedule must not change when more VMs are added — each VM has
  // its own derived stream.
  FaultConfig config;
  config.vm_mttf_slots = 60.0;
  const FaultPlan small(config, 3, 2, 1500);
  const FaultPlan large(config, 3, 16, 1500);
  auto vm_schedule = [](const FaultPlan& plan, std::uint32_t vm) {
    std::vector<std::int64_t> slots;
    for (const auto& tr : plan.transitions()) {
      if (tr.vm_id == vm) slots.push_back(tr.slot * 2 + (tr.up ? 1 : 0));
    }
    return slots;
  };
  EXPECT_EQ(vm_schedule(small, 0), vm_schedule(large, 0));
  EXPECT_EQ(vm_schedule(small, 1), vm_schedule(large, 1));
}

TEST(FaultInjectorTest, TransitionsAtCursorWalksThePlan) {
  FaultConfig config;
  config.vm_mttf_slots = 30.0;
  FaultInjector injector(config, 5, 6, 800);
  std::size_t seen = 0;
  for (std::int64_t t = 0; t < 800; ++t) {
    for (const auto& tr : injector.transitions_at(t)) {
      EXPECT_EQ(tr.slot, t);
      ++seen;
    }
  }
  EXPECT_EQ(seen, injector.plan().transitions().size());
}

TEST(FaultInjectorTest, TelemetryGapsDeterministicAndBursty) {
  FaultConfig config;
  config.telemetry_gap_rate = 0.05;
  config.telemetry_gap_mean_slots = 4.0;
  const FaultInjector a(config, 11, 0, 0);
  const FaultInjector b(config, 11, 0, 0);
  std::size_t gaps = 0;
  for (std::uint64_t job = 0; job < 20; ++job) {
    for (std::int64_t t = 0; t < 200; ++t) {
      EXPECT_EQ(a.telemetry_gap(job, t), b.telemetry_gap(job, t));
      if (a.telemetry_gap(job, t)) ++gaps;
    }
  }
  // ~5% opening rate with mean length ~4: expect well above zero and well
  // below everything.
  EXPECT_GT(gaps, 100u);
  EXPECT_LT(gaps, 2000u);
}

TEST(FaultInjectorTest, GapQueriesAreOrderIndependent) {
  FaultConfig config;
  config.telemetry_gap_rate = 0.1;
  const FaultInjector injector(config, 21, 0, 0);
  std::vector<bool> forward, backward;
  for (std::int64_t t = 0; t < 100; ++t) {
    forward.push_back(injector.telemetry_gap(7, t));
  }
  for (std::int64_t t = 99; t >= 0; --t) {
    backward.push_back(injector.telemetry_gap(7, t));
  }
  std::reverse(backward.begin(), backward.end());
  EXPECT_EQ(forward, backward);
}

TEST(FaultInjectorTest, StragglerRateApproximatelyHonored) {
  FaultConfig config;
  config.straggler_rate = 0.2;
  config.straggler_demand_factor = 1.5;
  const FaultInjector injector(config, 31, 0, 0);
  std::size_t stragglers = 0;
  for (std::uint64_t job = 0; job < 1000; ++job) {
    if (injector.is_straggler(job)) {
      ++stragglers;
      EXPECT_DOUBLE_EQ(injector.demand_multiplier(job), 1.5);
    } else {
      EXPECT_DOUBLE_EQ(injector.demand_multiplier(job), 1.0);
    }
  }
  EXPECT_GT(stragglers, 120u);
  EXPECT_LT(stragglers, 300u);
}

TEST(FaultInjectorTest, PredictorFaultsMixNanAndExplode) {
  FaultConfig config;
  config.predictor_fault_rate = 0.3;
  const FaultInjector injector(config, 41, 0, 0);
  std::size_t nan = 0, explode = 0, none = 0;
  for (std::uint64_t job = 0; job < 50; ++job) {
    for (std::int64_t t = 0; t < 50; ++t) {
      switch (injector.predictor_fault(job, t, 0)) {
        case PredictorFaultKind::kNone: ++none; break;
        case PredictorFaultKind::kNan: ++nan; break;
        case PredictorFaultKind::kExplode: ++explode; break;
      }
    }
  }
  EXPECT_GT(nan, 0u);
  EXPECT_GT(explode, 0u);
  EXPECT_GT(none, nan + explode);
}

TEST(FaultInjectorTest, RetryBackoffDoublesAndCaps) {
  constexpr std::int64_t kBase = FaultInjector::kRetryBackoffBaseSlots;
  constexpr std::int64_t kCap = FaultInjector::kRetryBackoffCapSlots;
  const FaultInjector injector(FaultConfig{}, 1, 0, 0);
  // 2, 4, 8, 16, 32 — then the doubling would pass the cap of 48.
  std::size_t attempt = 1;
  for (std::int64_t delay = kBase; delay < kCap; delay *= 2, ++attempt) {
    EXPECT_EQ(injector.retry_backoff(attempt), delay) << attempt;
  }
  EXPECT_EQ(attempt, 6u);
  EXPECT_EQ(injector.retry_backoff(attempt), kCap);
  EXPECT_EQ(injector.retry_backoff(10), kCap);  // capped
}

TEST(FaultInjectorTest, InertInjectorAnswersNoToEverything) {
  FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  EXPECT_FALSE(injector.telemetry_gap(0, 0));
  EXPECT_FALSE(injector.is_straggler(0));
  EXPECT_DOUBLE_EQ(injector.demand_multiplier(0), 1.0);
  EXPECT_EQ(injector.predictor_fault(0, 0, 0), PredictorFaultKind::kNone);
  EXPECT_TRUE(injector.transitions_at(0).empty());
}

}  // namespace
}  // namespace corp::fault
