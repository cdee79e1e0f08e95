#include "predict/health_monitor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>

namespace corp::predict {
namespace {

constexpr std::size_t kWindow = PredictorHealthMonitor::kFaultWindow;
constexpr std::size_t kDemote = PredictorHealthMonitor::kDemoteFaults;
constexpr std::size_t kPromote = PredictorHealthMonitor::kPromoteHealthy;
// The hysteresis tests below rely on a recovery of one full window being
// shorter than the promotion streak.
static_assert(kWindow < kPromote);

/// Feeds `n` copies of `value`.
void observe_n(PredictorHealthMonitor& monitor, std::size_t n, double value) {
  for (std::size_t i = 0; i < n; ++i) monitor.observe(value);
}

TEST(HealthMonitorTest, HealthyForecastsKeepPrimary) {
  PredictorHealthMonitor monitor;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(monitor.observe(0.5));
  }
  EXPECT_EQ(monitor.tier(), DegradationTier::kPrimary);
  EXPECT_EQ(monitor.faults_observed(), 0u);
  EXPECT_EQ(monitor.demotions(), 0u);
}

TEST(HealthMonitorTest, HealthyClassification) {
  const PredictorHealthMonitor monitor;
  EXPECT_TRUE(monitor.healthy(0.0));
  EXPECT_TRUE(monitor.healthy(1.0));
  EXPECT_TRUE(monitor.healthy(-0.1));
  EXPECT_FALSE(monitor.healthy(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_FALSE(monitor.healthy(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(monitor.healthy(1e9));  // past the explosion threshold
}

TEST(HealthMonitorTest, AccumulatedFaultsDemote) {
  PredictorHealthMonitor monitor;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(monitor.observe(nan));
  EXPECT_EQ(monitor.tier(), DegradationTier::kPrimary);
  for (std::size_t fault = 2; fault < kDemote; ++fault) {
    monitor.observe(nan);
    EXPECT_EQ(monitor.tier(), DegradationTier::kPrimary) << fault;
  }
  monitor.observe(nan);  // kDemote-th fault in the window -> demote
  EXPECT_EQ(monitor.tier(), DegradationTier::kFallback);
  EXPECT_EQ(monitor.demotions(), 1u);
}

TEST(HealthMonitorTest, RepeatedFaultsReachReservedOnlyAndStay) {
  PredictorHealthMonitor monitor;
  for (int i = 0; i < 100; ++i) monitor.observe(1e12);
  EXPECT_EQ(monitor.tier(), DegradationTier::kReservedOnly);
  // No rung below reserved-only.
  monitor.observe(1e12);
  EXPECT_EQ(monitor.tier(), DegradationTier::kReservedOnly);
  EXPECT_GE(monitor.demotions(), 2u);
}

TEST(HealthMonitorTest, PromotionRequiresHealthyStreak) {
  PredictorHealthMonitor monitor;
  observe_n(monitor, kDemote, 1e12);
  ASSERT_EQ(monitor.tier(), DegradationTier::kFallback);
  // One healthy observation short of the promotion streak.
  observe_n(monitor, kPromote - 1, 0.4);
  EXPECT_EQ(monitor.tier(), DegradationTier::kFallback);
  monitor.observe(0.4);
  EXPECT_EQ(monitor.tier(), DegradationTier::kPrimary);
  EXPECT_EQ(monitor.promotions(), 1u);
}

TEST(HealthMonitorTest, FaultResetsHealthyStreakHysteresis) {
  PredictorHealthMonitor monitor;
  observe_n(monitor, kDemote, 1e12);
  ASSERT_EQ(monitor.tier(), DegradationTier::kFallback);
  // A flapping predictor: kPromote - 1 healthy then a fault, repeatedly.
  // The streak never reaches kPromote, so the monitor never promotes.
  for (int round = 0; round < 10; ++round) {
    observe_n(monitor, kPromote - 1, 0.4);
    monitor.observe(std::numeric_limits<double>::quiet_NaN());
  }
  EXPECT_NE(monitor.tier(), DegradationTier::kPrimary);
  EXPECT_EQ(monitor.promotions(), 0u);
}

TEST(HealthMonitorTest, ResetRestoresPristineState) {
  PredictorHealthMonitor monitor;
  for (int i = 0; i < 50; ++i) monitor.observe(1e12);
  monitor.reset();
  EXPECT_EQ(monitor.tier(), DegradationTier::kPrimary);
  EXPECT_EQ(monitor.faults_observed(), 0u);
  EXPECT_EQ(monitor.demotions(), 0u);
  EXPECT_EQ(monitor.promotions(), 0u);
}

TEST(HealthMonitorTest, ExactDemoteThresholdBoundary) {
  // The demotion comparison is >=: kDemote - 1 faults in the window is
  // safe no matter how often the pattern repeats, provided earlier faults
  // roll out of the window before the next ones land.
  PredictorHealthMonitor monitor;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int round = 0; round < 20; ++round) {
    observe_n(monitor, kDemote - 1, nan);  // one short of the threshold
    // A full window of healthy observations: every fault leaves it.
    observe_n(monitor, kWindow, 0.4);
    ASSERT_EQ(monitor.tier(), DegradationTier::kPrimary) << round;
  }
  EXPECT_EQ(monitor.demotions(), 0u);
  // One fault short of re-filling the window to the threshold...
  observe_n(monitor, kDemote - 1, nan);
  EXPECT_EQ(monitor.tier(), DegradationTier::kPrimary);
  // ...and the exact kDemote-th fault demotes: the boundary is inclusive.
  monitor.observe(nan);
  EXPECT_EQ(monitor.tier(), DegradationTier::kFallback);
  EXPECT_EQ(monitor.demotions(), 1u);
}

TEST(HealthMonitorTest, ExactPromoteThresholdBoundary) {
  PredictorHealthMonitor monitor;
  observe_n(monitor, kDemote, 1e12);
  ASSERT_EQ(monitor.tier(), DegradationTier::kFallback);
  // kPromote - 1 healthy observations: still one short.
  observe_n(monitor, kPromote - 1, 0.4);
  EXPECT_EQ(monitor.tier(), DegradationTier::kFallback);
  EXPECT_EQ(monitor.promotions(), 0u);
  // The exact kPromote-th healthy observation re-enters primary.
  monitor.observe(0.4);
  EXPECT_EQ(monitor.tier(), DegradationTier::kPrimary);
  EXPECT_EQ(monitor.promotions(), 1u);
}

TEST(HealthMonitorTest, OscillationIsDamped) {
  // A predictor that alternates short fault bursts with sub-streak
  // recoveries must neither promote nor demote further: demotion cleared
  // the window evidence, the bursts stay below kDemote, and the
  // recoveries stay below kPromote. The ladder holds still instead of
  // flapping resources open and shut.
  PredictorHealthMonitor monitor;
  observe_n(monitor, kDemote, 1e12);
  ASSERT_EQ(monitor.tier(), DegradationTier::kFallback);
  // Bursts of kDemote - 1 faults, each followed by a window of healthy
  // observations: the window never holds kDemote faults, and the healthy
  // streak peaks at kWindow < kPromote.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int round = 0; round < 50; ++round) {
    observe_n(monitor, kDemote - 1, nan);
    observe_n(monitor, kWindow, 0.4);
    ASSERT_EQ(monitor.tier(), DegradationTier::kFallback) << round;
  }
  EXPECT_EQ(monitor.demotions(), 1u);
  EXPECT_EQ(monitor.promotions(), 0u);
}

TEST(HealthMonitorTest, FullRecoveryFromReservedOnly) {
  // Reserved-only back to primary is two rungs: each costs a full
  // kPromote streak (promotion resets the streak, so the climbs cannot
  // share evidence).
  PredictorHealthMonitor monitor;
  observe_n(monitor, 2 * kDemote, 1e12);
  ASSERT_EQ(monitor.tier(), DegradationTier::kReservedOnly);
  observe_n(monitor, kPromote, 0.4);
  EXPECT_EQ(monitor.tier(), DegradationTier::kFallback);
  // One observation short of the second climb.
  observe_n(monitor, kPromote - 1, 0.4);
  EXPECT_EQ(monitor.tier(), DegradationTier::kFallback);
  monitor.observe(0.4);
  EXPECT_EQ(monitor.tier(), DegradationTier::kPrimary);
  EXPECT_EQ(monitor.promotions(), 2u);
  // Recovered state is fully functional: the demote path works again.
  observe_n(monitor, kDemote, 1e12);
  EXPECT_EQ(monitor.tier(), DegradationTier::kFallback);
}

TEST(HealthMonitorTest, WindowFaultFractionTracksWindow) {
  PredictorHealthMonitor monitor;
  EXPECT_EQ(monitor.window_fault_fraction(), 0.0);
  monitor.observe(0.4);
  EXPECT_EQ(monitor.window_fault_fraction(), 0.0);
  monitor.observe(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(monitor.window_fault_fraction(), 0.5);  // 1 fault / 2 seen
  observe_n(monitor, kWindow - 2, 0.4);  // the window is now full
  const double one_in_window = 1.0 / static_cast<double>(kWindow);
  EXPECT_EQ(monitor.window_fault_fraction(), one_in_window);
  // The fault sits at the second slot of the full window, so it takes
  // two more observations to roll out.
  monitor.observe(0.4);
  EXPECT_EQ(monitor.window_fault_fraction(), one_in_window);
  monitor.observe(0.4);
  EXPECT_EQ(monitor.window_fault_fraction(), 0.0);
}

TEST(HealthMonitorTest, DemotionClearsFaultFractionEvidence) {
  PredictorHealthMonitor monitor;
  observe_n(monitor, kDemote, 1e12);
  ASSERT_EQ(monitor.tier(), DegradationTier::kFallback);
  // Demotion consumed the window: the continuous signal restarts at 0
  // so the next rung is judged on fresh evidence only.
  EXPECT_EQ(monitor.window_fault_fraction(), 0.0);
}

TEST(HealthMonitorTest, TierNames) {
  EXPECT_STREQ(tier_name(DegradationTier::kPrimary), "primary");
  EXPECT_STREQ(tier_name(DegradationTier::kFallback), "fallback");
  EXPECT_STREQ(tier_name(DegradationTier::kReservedOnly), "reserved-only");
}

}  // namespace
}  // namespace corp::predict
