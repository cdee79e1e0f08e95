#include "predict/ets_predictor.hpp"

#include <cmath>
#include <limits>

namespace corp::predict {

namespace {

/// Grid resolution for the (alpha, beta) search in (0, 1).
constexpr std::size_t kGridSteps = 9;
/// Damping applied to the trend per extrapolated step.
constexpr double kTrendDamping = 0.95;

}  // namespace

double EtsPredictor::sse_one_step(std::span<const double> series, double alpha,
                                  double beta) {
  if (series.size() < 3) return 0.0;
  double level = series[0];
  double trend = series[1] - series[0];
  double sse = 0.0;
  for (std::size_t t = 1; t < series.size(); ++t) {
    const double forecast = level + trend;
    const double err = series[t] - forecast;
    sse += err * err;
    const double prev_level = level;
    level = alpha * series[t] + (1.0 - alpha) * (level + trend);
    trend = beta * (level - prev_level) + (1.0 - beta) * trend;
  }
  return sse;
}

void EtsPredictor::train(const SeriesCorpus& corpus) {
  double best_sse = std::numeric_limits<double>::infinity();
  const std::size_t n = kGridSteps;
  for (std::size_t ai = 1; ai <= n; ++ai) {
    const double alpha = static_cast<double>(ai) / static_cast<double>(n + 1);
    // beta > 0 always: the trend component is what RCCR's forecaster
    // carries, and on pattern-free bursty series it is also what
    // extrapolates burst edges into the future wrongly — the failure mode
    // Sec. IV attributes to time-series forecasting.
    for (std::size_t bi = 1; bi <= n; ++bi) {
      const double beta = static_cast<double>(bi) / static_cast<double>(n + 1);
      double sse = 0.0;
      for (const auto& series : corpus) {
        sse += sse_one_step(series, alpha, beta);
      }
      if (sse < best_sse) {
        best_sse = sse;
        alpha_ = alpha;
        beta_ = beta;
      }
    }
  }
}

double EtsPredictor::predict(const PredictionQuery& query) {
  const std::span<const double> history = query.history;
  const std::size_t horizon = query.horizon;
  if (history.empty()) return 0.0;
  if (history.size() == 1) return history[0];
  double level = history[0];
  double trend = history[1] - history[0];
  for (std::size_t t = 1; t < history.size(); ++t) {
    const double prev_level = level;
    level = alpha_ * history[t] + (1.0 - alpha_) * (level + trend);
    trend = beta_ * (level - prev_level) + (1.0 - beta_) * trend;
  }
  // Damped-trend extrapolation h steps ahead.
  double forecast = level;
  double damp = kTrendDamping;
  for (std::size_t h = 0; h < horizon; ++h) {
    forecast += trend * damp;
    damp *= kTrendDamping;
  }
  return forecast;
}

}  // namespace corp::predict
