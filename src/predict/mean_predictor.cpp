#include "predict/mean_predictor.hpp"

#include <algorithm>

namespace corp::predict {

void SlidingMeanPredictor::train(const SeriesCorpus& corpus) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& series : corpus) {
    for (double x : series) {
      sum += x;
      ++n;
    }
  }
  corpus_mean_ = n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double SlidingMeanPredictor::predict(const PredictionQuery& query) {
  const std::span<const double> history = query.history;  // horizon unused
  if (history.empty()) return corpus_mean_;
  const std::size_t take = std::min(kWindow, history.size());
  double sum = 0.0;
  for (std::size_t i = history.size() - take; i < history.size(); ++i) {
    sum += history[i];
  }
  return sum / static_cast<double>(take);
}

}  // namespace corp::predict
