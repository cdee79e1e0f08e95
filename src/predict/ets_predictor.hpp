// Exponential smoothing (ETS) forecaster — the prediction engine of the
// RCCR baseline ("we first used a time series forecasting technique, i.e.,
// Exponential Smoothing (ETS), to predict the amount of unused resource",
// Sec. IV). Holt's linear variant with the trend damped for multi-step
// forecasts; train() grid-searches (alpha, beta) on one-step-ahead error
// over the corpus, which is exactly where the method's pattern assumption
// bites on pattern-free short-job series.
#pragma once

#include "predict/predictor.hpp"

namespace corp::predict {

class EtsPredictor final : public SeriesPredictor {
 public:
  void train(const SeriesCorpus& corpus) override;
  double predict(const PredictionQuery& query) override;
  std::string_view name() const override { return "ets"; }

  double alpha() const { return alpha_; }
  double beta() const { return beta_; }

 private:
  /// Sum of squared one-step errors of (alpha, beta) over a series.
  static double sse_one_step(std::span<const double> series, double alpha,
                             double beta);

  double alpha_ = 0.5;
  double beta_ = 0.1;
};

}  // namespace corp::predict
