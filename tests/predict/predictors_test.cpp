// Tests for the individual series predictors: DNN, ETS, PRESS/Markov and
// sliding mean.
#include <gtest/gtest.h>

#include <cmath>

#include "predict/dnn_predictor.hpp"
#include "predict/ets_predictor.hpp"
#include "predict/markov_predictor.hpp"
#include "predict/mean_predictor.hpp"
#include "util/stats.hpp"

namespace corp::predict {
namespace {

SeriesCorpus sine_corpus(std::size_t series_count, std::size_t length) {
  SeriesCorpus corpus;
  for (std::size_t s = 0; s < series_count; ++s) {
    std::vector<double> series;
    for (std::size_t i = 0; i < length; ++i) {
      series.push_back(
          0.5 + 0.3 * std::sin(0.25 * static_cast<double>(i + s * 3)));
    }
    corpus.push_back(std::move(series));
  }
  return corpus;
}

SeriesCorpus noisy_corpus(std::size_t series_count, std::size_t length,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  SeriesCorpus corpus;
  for (std::size_t s = 0; s < series_count; ++s) {
    std::vector<double> series;
    double level = 0.5;
    for (std::size_t i = 0; i < length; ++i) {
      level += 0.3 * (0.5 - level) + rng.normal(0.0, 0.05);
      series.push_back(std::clamp(level, 0.0, 1.0));
    }
    corpus.push_back(std::move(series));
  }
  return corpus;
}


/// Query-form shorthand: every scalar call in these tests goes through the
/// PredictionQuery entry point (the deprecated span/horizon shim is gone).
double predict_at(SeriesPredictor& predictor, std::span<const double> history,
                  std::size_t horizon) {
  return predictor.predict(
      PredictionQuery{.horizon = horizon, .history = history});
}

// ------------------------------------------------------------------ DNN --

TEST(DnnPredictorTest, RejectsBadConfig) {
  util::Rng rng(1);
  DnnPredictorConfig config;
  config.history_slots = 0;
  EXPECT_THROW(DnnPredictor(config, rng), std::invalid_argument);
}

TEST(DnnPredictorTest, PredictBeforeTrainThrows) {
  util::Rng rng(1);
  DnnPredictor dnn({}, rng);
  EXPECT_THROW(predict_at(dnn, std::vector<double>{1.0}, 6), std::logic_error);
}

TEST(DnnPredictorTest, EmptyCorpusThrows) {
  util::Rng rng(1);
  DnnPredictor dnn({}, rng);
  EXPECT_THROW(dnn.train({}), std::invalid_argument);
}

TEST(DnnPredictorTest, TooShortSeriesThrows) {
  util::Rng rng(1);
  DnnPredictor dnn({}, rng);
  SeriesCorpus corpus{{1.0, 2.0, 3.0}};
  EXPECT_THROW(dnn.train(corpus), std::invalid_argument);
}

TEST(DnnPredictorTest, LearnsSmoothSeries) {
  util::Rng rng(5);
  DnnPredictorConfig config;
  config.history_slots = 8;
  config.horizon_slots = 2;
  config.trainer.max_epochs = 30;
  DnnPredictor dnn(config, rng);
  const SeriesCorpus corpus = sine_corpus(4, 200);
  dnn.train(corpus);
  EXPECT_TRUE(dnn.trained());

  // Walk-forward accuracy on a fresh phase-shifted sine.
  std::vector<double> test;
  for (int i = 0; i < 100; ++i) {
    test.push_back(0.5 + 0.3 * std::sin(0.25 * i + 1.0));
  }
  double se = 0.0;
  int n = 0;
  for (std::size_t end = 8; end + 2 <= test.size(); ++end) {
    const std::span<const double> history(test.data(), end);
    const double pred = predict_at(dnn, history, 2);
    const double actual = 0.5 * (test[end] + test[end + 1]);
    se += (pred - actual) * (pred - actual);
    ++n;
  }
  EXPECT_LT(std::sqrt(se / n), 0.12);
}

TEST(DnnPredictorTest, HandlesShortHistories) {
  util::Rng rng(5);
  DnnPredictorConfig config;
  config.history_slots = 12;
  DnnPredictor dnn(config, rng);
  dnn.train(sine_corpus(2, 120));
  // Histories shorter than the input width must still produce finite,
  // in-range predictions (tiled padding).
  for (std::size_t len : {1u, 2u, 5u, 11u}) {
    std::vector<double> history(len, 0.6);
    const double pred = predict_at(dnn, history, 6);
    EXPECT_TRUE(std::isfinite(pred));
    EXPECT_GT(pred, -0.5);
    EXPECT_LT(pred, 1.5);
  }
}

TEST(DnnPredictorTest, AdaptsToLevelShift) {
  // Residual learning: a series sitting at a different level than the
  // training corpus should still be predicted near its own level.
  util::Rng rng(6);
  DnnPredictorConfig config;
  config.history_slots = 8;
  config.horizon_slots = 2;
  DnnPredictor dnn(config, rng);
  dnn.train(noisy_corpus(3, 200, 42));  // trained around level 0.5
  std::vector<double> high_level(30, 0.8);
  const double pred = predict_at(dnn, high_level, 2);
  EXPECT_NEAR(pred, 0.8, 0.15);
}

// ------------------------------------------------------------------ ETS --

TEST(EtsPredictorTest, ConstantSeriesForecastsConstant) {
  EtsPredictor ets;
  ets.train({{5.0, 5.0, 5.0, 5.0, 5.0, 5.0}});
  const std::vector<double> history(20, 5.0);
  EXPECT_NEAR(predict_at(ets, history, 3), 5.0, 1e-9);
}

TEST(EtsPredictorTest, TracksLevelChanges) {
  EtsPredictor ets;
  ets.train(noisy_corpus(3, 150, 7));
  std::vector<double> history(30, 0.2);
  for (int i = 0; i < 30; ++i) history.push_back(0.8);
  // After a long stretch at 0.8 the forecast should be near 0.8.
  EXPECT_NEAR(predict_at(ets, history, 1), 0.8, 0.15);
}

TEST(EtsPredictorTest, ShortHistories) {
  EtsPredictor ets;
  ets.train({{1.0, 2.0, 1.5, 1.8, 1.2, 1.6}});
  EXPECT_DOUBLE_EQ(predict_at(ets, {}, 3), 0.0);
  EXPECT_DOUBLE_EQ(predict_at(ets, std::vector<double>{4.2}, 3), 4.2);
}

TEST(EtsPredictorTest, GridSearchPicksBounds) {
  EtsPredictor ets;
  ets.train(sine_corpus(2, 100));
  EXPECT_GT(ets.alpha(), 0.0);
  EXPECT_LT(ets.alpha(), 1.0);
  EXPECT_GE(ets.beta(), 0.0);
  EXPECT_LT(ets.beta(), 1.0);
}

TEST(EtsPredictorTest, DampedTrendBounded) {
  // An upward-trending history must not explode over a long horizon.
  EtsPredictor ets;
  ets.train({{0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}});
  std::vector<double> rising;
  for (int i = 0; i < 20; ++i) rising.push_back(0.05 * i);
  const double forecast = predict_at(ets, rising, 50);
  EXPECT_LT(forecast, 3.0);
}

// --------------------------------------------------------------- Markov --

TEST(MarkovPredictorTest, PredictBeforeTrainThrows) {
  MarkovChainPredictor markov;
  EXPECT_THROW(predict_at(markov, std::vector<double>{1.0}, 1),
               std::logic_error);
}

TEST(MarkovPredictorTest, EmptyCorpusThrows) {
  MarkovChainPredictor markov;
  EXPECT_THROW(markov.train({}), std::invalid_argument);
}

TEST(MarkovPredictorTest, BinsPartitionRange) {
  constexpr std::size_t kBins = MarkovChainPredictor::kNumBins;
  constexpr auto kBinsD = static_cast<double>(kBins);
  MarkovChainPredictor markov;
  markov.train({{0.0, 1.0}});
  EXPECT_EQ(markov.bin_of(0.0), 0u);
  EXPECT_EQ(markov.bin_of(1.0), kBins - 1);
  EXPECT_EQ(markov.bin_of(3.5 / kBinsD), 3u);
  EXPECT_EQ(markov.bin_of(-5.0), 0u);          // clamped
  EXPECT_EQ(markov.bin_of(99.0), kBins - 1);   // clamped
  EXPECT_NEAR(markov.bin_center(0), 0.5 / kBinsD, 1e-12);
}

TEST(MarkovPredictorTest, DetectsPeriodicSignature) {
  // Strongly periodic series: the signature path should engage.
  std::vector<double> periodic;
  for (int i = 0; i < 300; ++i) {
    periodic.push_back(0.5 + 0.4 * std::sin(2.0 * M_PI * i / 12.0));
  }
  MarkovChainPredictor markov;
  markov.train({periodic});
  EXPECT_EQ(markov.signature_period(), 12u);
  // Signature replay: forecast ~ the value one period back.
  const double pred = predict_at(markov, periodic, 12);
  EXPECT_NEAR(pred, periodic.back(), 0.1);
}

TEST(MarkovPredictorTest, NoSignatureOnNoise) {
  MarkovChainPredictor markov;
  markov.train(noisy_corpus(3, 200, 19));
  EXPECT_EQ(markov.signature_period(), 0u);
}

TEST(MarkovPredictorTest, MultiStepRegressesTowardMean) {
  MarkovChainPredictor markov;
  markov.train(noisy_corpus(3, 300, 23));
  std::vector<double> low_history(10, 0.1);
  const double near = predict_at(markov, low_history, 1);
  const double far = predict_at(markov, low_history, 50);
  // Far forecasts converge toward the stationary mean (~0.5), closer
  // forecasts stay near the recent level — the weakening correlation the
  // paper describes.
  EXPECT_LT(near, far);
  EXPECT_NEAR(far, 0.5, 0.15);
}

TEST(MarkovPredictorTest, EmptyHistoryUsesMiddleBin) {
  MarkovChainPredictor markov;
  markov.train({{0.0, 1.0, 0.5, 0.2, 0.8}});
  const double pred = predict_at(markov, {}, 3);
  EXPECT_GT(pred, 0.0);
  EXPECT_LT(pred, 1.0);
}

// ----------------------------------------------------------------- Mean --

TEST(MeanPredictorTest, WindowedMean) {
  constexpr std::size_t kWindow = SlidingMeanPredictor::kWindow;
  SlidingMeanPredictor mean;
  mean.train({{1.0}});
  // An old outlier, then a full window of 1..kWindow: only the window
  // is averaged.
  std::vector<double> history{1000.0};
  for (std::size_t i = 1; i <= kWindow; ++i) {
    history.push_back(static_cast<double>(i));
  }
  EXPECT_DOUBLE_EQ(predict_at(mean, history, 6),
                   static_cast<double>(kWindow + 1) / 2.0);
}

TEST(MeanPredictorTest, EmptyHistoryFallsBackToCorpusMean) {
  SlidingMeanPredictor mean;
  mean.train({{2.0, 4.0}, {6.0}});
  EXPECT_DOUBLE_EQ(predict_at(mean, {}, 6), 4.0);
}

TEST(MeanPredictorTest, EmptyCorpusGivesZeroFallback) {
  SlidingMeanPredictor mean;
  mean.train({});
  EXPECT_DOUBLE_EQ(predict_at(mean, {}, 6), 0.0);
}

}  // namespace
}  // namespace corp::predict
