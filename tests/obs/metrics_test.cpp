// MetricRegistry semantics: counter/gauge/phase/histogram behaviour,
// quantile extraction on known distributions, concurrent updates through
// util::ThreadPool, the enabled/disabled gate, and the JSON export schema
// (docs/observability.md).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "util/thread_pool.hpp"

namespace corp::obs {
namespace {

TEST(CounterTest, AddsAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  g.set(-1.25);
  EXPECT_EQ(g.value(), -1.25);
  g.reset();
  EXPECT_EQ(g.value(), 0.0);
}

TEST(PhaseStatTest, AggregatesCallsTotalAndMax) {
  PhaseStat phase;
  phase.add(2.0);
  phase.add(5.0);
  phase.add(3.0);
  EXPECT_EQ(phase.calls(), 3u);
  EXPECT_DOUBLE_EQ(phase.total_ms(), 10.0);
  EXPECT_DOUBLE_EQ(phase.max_ms(), 5.0);
  phase.reset();
  EXPECT_EQ(phase.calls(), 0u);
  EXPECT_EQ(phase.total_ms(), 0.0);
  EXPECT_EQ(phase.max_ms(), 0.0);
}

TEST(HistogramTest, BucketsValuesByUpperBound) {
  Histogram hist({1.0, 2.0, 3.0, 4.0});
  // A value equal to a bound lands in that bound's bucket (le semantics);
  // anything past the last bound lands in the overflow bucket.
  hist.observe(0.5);
  hist.observe(2.0);
  hist.observe(2.5);
  hist.observe(9.0);
  const std::vector<std::uint64_t> counts = hist.bucket_counts();
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 0u);
  EXPECT_EQ(counts[4], 1u);
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 14.0);
  EXPECT_DOUBLE_EQ(hist.min(), 0.5);
  EXPECT_DOUBLE_EQ(hist.max(), 9.0);
}

TEST(HistogramTest, RejectsNonIncreasingBounds) {
  EXPECT_THROW(Histogram({1.0, 1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(HistogramTest, QuantilesOnUniformDistribution) {
  // 1..100 over decade-of-10 buckets: the interpolated quantiles land on
  // the exact uniform-distribution values.
  Histogram hist({10, 20, 30, 40, 50, 60, 70, 80, 90});
  for (int v = 1; v <= 100; ++v) hist.observe(static_cast<double>(v));
  EXPECT_DOUBLE_EQ(hist.quantile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(hist.quantile(0.90), 90.0);
  // p99 falls in the overflow bucket, interpolated toward max() = 100.
  EXPECT_DOUBLE_EQ(hist.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(hist.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(hist.quantile(1.0), 100.0);
  // Monotone in q.
  EXPECT_LE(hist.quantile(0.25), hist.quantile(0.5));
  EXPECT_LE(hist.quantile(0.5), hist.quantile(0.75));
}

TEST(HistogramTest, QuantileClampsToObservedRange) {
  // All mass on one value: every quantile must report that value, not an
  // interpolation across the (much wider) bucket.
  Histogram hist({100.0});
  hist.observe(42.0);
  hist.observe(42.0);
  hist.observe(42.0);
  EXPECT_DOUBLE_EQ(hist.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(hist.quantile(0.99), 42.0);
  EXPECT_DOUBLE_EQ(hist.min(), 42.0);
  EXPECT_DOUBLE_EQ(hist.max(), 42.0);
}

TEST(HistogramTest, EmptyReportsZeroes) {
  Histogram hist({1.0, 2.0});
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.min(), 0.0);
  EXPECT_EQ(hist.max(), 0.0);
  EXPECT_EQ(hist.quantile(0.5), 0.0);
}

TEST(HistogramTest, ResetClearsEverythingIncludingMinMax) {
  Histogram hist({1.0});
  hist.observe(0.25);
  hist.observe(7.0);
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.min(), 0.0);
  EXPECT_EQ(hist.max(), 0.0);
  // Min/max must re-seed from the next observation, not keep old extremes.
  hist.observe(3.0);
  EXPECT_DOUBLE_EQ(hist.min(), 3.0);
  EXPECT_DOUBLE_EQ(hist.max(), 3.0);
}

TEST(RegistryTest, HandlesAreStableAndSurviveReset) {
  MetricRegistry reg;
  Counter& a = reg.counter("stable");
  a.add(5);
  Counter& b = reg.counter("stable");
  EXPECT_EQ(&a, &b);
  reg.reset();
  EXPECT_EQ(a.value(), 0u);
  a.add(1);
  EXPECT_EQ(reg.counter("stable").value(), 1u);
  // Reset keeps the names registered.
  reg.reset();
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_TRUE(snap.counters.count("stable"));
  EXPECT_EQ(snap.counters.at("stable"), 0u);
}

TEST(RegistryTest, HistogramBoundsFixedOnFirstCreation) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("h", {1.0, 2.0});
  Histogram& again = reg.histogram("h", {999.0});
  EXPECT_EQ(&h, &again);
  ASSERT_EQ(again.bounds().size(), 2u);
  EXPECT_DOUBLE_EQ(again.bounds()[1], 2.0);
}

TEST(RegistryTest, GatedHelpersAreNoOpsWhenDisabled) {
  MetricRegistry& reg = registry();
  const bool was_enabled = reg.enabled();
  reg.set_enabled(false);
  obs::count("gate_test.counter", 3);
  obs::set_gauge("gate_test.gauge", 1.0);
  obs::observe("gate_test.hist", 1.0);
  MetricsSnapshot snap = reg.snapshot();
  EXPECT_FALSE(snap.counters.count("gate_test.counter"));
  EXPECT_FALSE(snap.gauges.count("gate_test.gauge"));
  EXPECT_FALSE(snap.histograms.count("gate_test.hist"));

  reg.set_enabled(true);
  obs::count("gate_test.counter", 3);
  snap = reg.snapshot();
  ASSERT_TRUE(snap.counters.count("gate_test.counter"));
  EXPECT_EQ(snap.counters.at("gate_test.counter"), 3u);
  reg.set_enabled(was_enabled);
}

TEST(ScopedTimerTest, RecordsOnlyWhenEnabled) {
  MetricRegistry reg;
  reg.set_enabled(false);
  { ScopedTimer t("phase_a", reg); }
  EXPECT_TRUE(reg.snapshot().phases.empty());

  reg.set_enabled(true);
  { ScopedTimer t("phase_a", reg); }
  { ScopedTimer t("phase_a", reg); }
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_TRUE(snap.phases.count("phase_a"));
  EXPECT_EQ(snap.phases.at("phase_a").calls, 2u);
  EXPECT_GE(snap.phases.at("phase_a").total_ms, 0.0);
  EXPECT_GE(snap.phases.at("phase_a").max_ms, 0.0);
}

TEST(RegistryTest, ConcurrentIncrementsFromThreadPool) {
  MetricRegistry reg;
  reg.set_enabled(true);
  constexpr std::size_t kTasks = 20000;
  // Hoisted handles, as the instrumented hot paths do.
  Counter& counter = reg.counter("parallel.counter");
  Histogram& hist = reg.histogram("parallel.hist", {0.25, 0.5, 0.75});
  PhaseStat& phase = reg.phase("parallel.phase");
  util::ThreadPool pool(4);
  pool.parallel_for(kTasks, [&](std::size_t i) {
    counter.add(1);
    hist.observe(static_cast<double>(i % 100) / 100.0);
    phase.add(0.001);
  });
  EXPECT_EQ(counter.value(), kTasks);
  EXPECT_EQ(hist.count(), kTasks);
  EXPECT_EQ(phase.calls(), kTasks);
  EXPECT_NEAR(phase.total_ms(), kTasks * 0.001, 1e-6);

  // Snapshot invariants the CI validator also enforces: cumulative bucket
  // counts are monotone and end at count.
  const MetricsSnapshot snap = reg.snapshot();
  const HistogramSnapshot& h = snap.histograms.at("parallel.hist");
  ASSERT_EQ(h.cumulative.size(), h.bounds.size() + 1);
  std::uint64_t prev = 0;
  for (std::uint64_t c : h.cumulative) {
    EXPECT_GE(c, prev);
    prev = c;
  }
  EXPECT_EQ(h.cumulative.back(), h.count);
}

TEST(ExportTest, MetricsJsonCarriesAllSections) {
  MetricRegistry reg;
  reg.set_enabled(true);
  reg.counter("c").add(3);
  reg.gauge("g").set(1.5);
  reg.histogram("h", {1.0}).observe(0.5);
  { ScopedTimer t("p", reg); }
  const std::string json = metrics_json(reg.snapshot());
  EXPECT_NE(json.find("\"counters\":{\"c\":3}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\":{\"g\":1.5}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\":{\"h\":{\"count\":1"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"phases\":{\"p\":{\"calls\":1"), std::string::npos)
      << json;
}

TEST(ExportTest, SnapshotJsonEnvelope) {
  MetricRegistry reg;
  reg.counter("c").add(1);
  const std::string json = snapshot_json(reg.snapshot(), "test-run");
  EXPECT_EQ(json.rfind("{\"schema_version\":1,\"run_id\":\"test-run\",", 0),
            0u)
      << json;
  EXPECT_EQ(json.back(), '}');
}

TEST(ExportTest, NonFiniteValuesSerializeAsNull) {
  MetricRegistry reg;
  reg.gauge("nan").set(std::numeric_limits<double>::quiet_NaN());
  reg.gauge("inf").set(std::numeric_limits<double>::infinity());
  const std::string json = metrics_json(reg.snapshot());
  EXPECT_NE(json.find("\"nan\":null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"inf\":null"), std::string::npos) << json;
}

TEST(ExportTest, JsonEscapesMetricNames) {
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("tab\there"), "tab\\there");
}

}  // namespace
}  // namespace corp::obs
