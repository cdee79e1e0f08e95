#include "predict/backtest.hpp"

#include <cmath>

namespace corp::predict {

namespace {

/// Slots of history exposed at the first origin.
constexpr std::size_t kWarmupSlots = 12;
/// Origin stride: one score per forecast window.
constexpr std::size_t kStride = 6;
/// Forecast horizon in slots; the target is the window mean.
constexpr std::size_t kHorizon = 6;
/// Band width eps for the Eq. 21 rate, in series units.
constexpr double kEpsilon = 0.3;

}  // namespace

BacktestReport backtest(PredictionStack& stack, const SeriesCorpus& corpus) {
  BacktestReport report;
  double se = 0.0, ae = 0.0, bias = 0.0;
  std::size_t covered = 0, in_band = 0;

  for (const auto& series : corpus) {
    if (series.size() < kWarmupSlots + kHorizon) continue;
    for (std::size_t origin = kWarmupSlots; origin + kHorizon <= series.size();
         origin += kStride) {
      const std::span<const double> history(series.data(), origin);
      const double predicted = stack.predict(history);
      double actual = 0.0;
      for (std::size_t h = 0; h < kHorizon; ++h) {
        actual += series[origin + h];
      }
      actual /= static_cast<double>(kHorizon);

      const double delta = actual - predicted;
      se += delta * delta;
      ae += std::abs(delta);
      bias += delta;
      if (delta >= 0.0) ++covered;
      if (delta >= 0.0 && delta < kEpsilon) ++in_band;
      ++report.forecasts;

      stack.record_outcome(actual, predicted);
    }
  }
  if (report.forecasts > 0) {
    const auto n = static_cast<double>(report.forecasts);
    report.rmse = std::sqrt(se / n);
    report.mae = ae / n;
    report.bias = bias / n;
    report.coverage = static_cast<double>(covered) / n;
    report.band_rate = static_cast<double>(in_band) / n;
  }
  return report;
}

}  // namespace corp::predict
