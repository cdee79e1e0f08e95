#include "predict/backtest.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace corp::predict {
namespace {

SeriesCorpus corpus(std::uint64_t seed, std::size_t count = 4,
                    std::size_t length = 150) {
  util::Rng rng(seed);
  SeriesCorpus out;
  for (std::size_t s = 0; s < count; ++s) {
    std::vector<double> series;
    double level = 0.5;
    for (std::size_t i = 0; i < length; ++i) {
      level += 0.3 * (0.5 - level) + rng.normal(0.0, 0.04);
      series.push_back(std::clamp(level, 0.0, 1.0));
    }
    out.push_back(std::move(series));
  }
  return out;
}

TEST(BacktestTest, EmptyCorpusGivesZeroForecasts) {
  util::Rng rng(1);
  auto stack = make_stack(Method::kDra, StackConfig{}, rng);
  stack->train(corpus(2));
  const BacktestReport report = backtest(*stack, {});
  EXPECT_EQ(report.forecasts, 0u);
  EXPECT_DOUBLE_EQ(report.rmse, 0.0);
}

TEST(BacktestTest, ForecastCountMatchesOrigins) {
  util::Rng rng(1);
  auto stack = make_stack(Method::kDra, StackConfig{}, rng);
  stack->train(corpus(2));
  SeriesCorpus one = corpus(3, 1, 60);
  const BacktestReport report = backtest(*stack, one);
  // 12-slot warm-up, stride 6, horizon 6. Origins: 12, 18, 24, ..., 54
  // -> 8 forecasts.
  EXPECT_EQ(report.forecasts, 8u);
}

TEST(BacktestTest, MeanPredictorNearUnbiasedOnStationarySeries) {
  util::Rng rng(5);
  auto stack = make_stack(Method::kDra, StackConfig{}, rng);
  stack->train(corpus(7));
  const BacktestReport report = backtest(*stack, corpus(11, 6, 300));
  EXPECT_GT(report.forecasts, 100u);
  EXPECT_NEAR(report.bias, 0.0, 0.03);
  EXPECT_NEAR(report.coverage, 0.5, 0.15);
}

TEST(BacktestTest, CorpStackIsConservative) {
  util::Rng rng(5);
  StackConfig config;
  config.confidence_level = 0.8;
  auto stack = make_stack(Method::kCorp, config, rng);
  const SeriesCorpus train = corpus(7);
  stack->train(train);
  const BacktestReport report = backtest(*stack, corpus(13, 4, 200));
  // The Eq. 19 lower bound puts most outcomes above the forecast.
  EXPECT_GT(report.coverage, 0.6);
  EXPECT_GT(report.bias, 0.0);
  EXPECT_GT(report.band_rate, 0.4);
}

TEST(BacktestTest, OnlineFeedbackChangesState) {
  util::Rng rng(9);
  auto stack = make_stack(Method::kRccr, StackConfig{}, rng);
  stack->train(corpus(7));
  const SeriesCorpus eval = corpus(19, 3, 120);
  const double gate_before = stack->gate_probability();
  backtest(*stack, eval);
  // Not asserting direction — only that outcomes flowed into the tracker.
  EXPECT_NE(stack->gate_probability(), gate_before);
}

}  // namespace
}  // namespace corp::predict
