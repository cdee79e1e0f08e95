#include "predict/markov_predictor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace corp::predict {

namespace {

/// Minimum autocorrelation to accept a signature period.
constexpr double kSignatureThreshold = 0.8;
/// Candidate periods searched for a signature (in slots).
constexpr std::size_t kMinPeriod = 4;
constexpr std::size_t kMaxPeriod = 60;

}  // namespace

double MarkovChainPredictor::autocorrelation(std::span<const double> series,
                                             std::size_t lag) {
  if (series.size() <= lag + 1) return 0.0;
  double mean = 0.0;
  for (double x : series) mean += x;
  mean /= static_cast<double>(series.size());
  double num = 0.0, den = 0.0;
  for (std::size_t t = 0; t < series.size(); ++t) {
    const double d = series[t] - mean;
    den += d * d;
    if (t + lag < series.size()) {
      num += d * (series[t + lag] - mean);
    }
  }
  return den > 0.0 ? num / den : 0.0;
}

std::size_t MarkovChainPredictor::bin_of(double value) const {
  const double range = max_value_ - min_value_;
  if (range <= 0.0) return 0;
  const double frac = (value - min_value_) / range;
  const auto bin = static_cast<std::ptrdiff_t>(
      frac * static_cast<double>(kNumBins));
  return static_cast<std::size_t>(std::clamp<std::ptrdiff_t>(
      bin, 0, static_cast<std::ptrdiff_t>(kNumBins) - 1));
}

double MarkovChainPredictor::bin_center(std::size_t bin) const {
  const double width = (max_value_ - min_value_) /
                       static_cast<double>(kNumBins);
  return min_value_ + (static_cast<double>(bin) + 0.5) * width;
}

void MarkovChainPredictor::train(const SeriesCorpus& corpus) {
  // Value range across the corpus.
  bool any = false;
  for (const auto& series : corpus) {
    for (double x : series) {
      if (!any) {
        min_value_ = max_value_ = x;
        any = true;
      } else {
        min_value_ = std::min(min_value_, x);
        max_value_ = std::max(max_value_, x);
      }
    }
  }
  if (!any) {
    throw std::invalid_argument("MarkovChainPredictor::train: empty corpus");
  }

  // Signature search: does any candidate period dominate on average?
  signature_period_ = 0;
  double best_corr = kSignatureThreshold;
  for (std::size_t period = kMinPeriod; period <= kMaxPeriod;
       ++period) {
    double corr = 0.0;
    std::size_t counted = 0;
    for (const auto& series : corpus) {
      if (series.size() > 2 * period) {
        corr += autocorrelation(series, period);
        ++counted;
      }
    }
    if (counted == 0) continue;
    corr /= static_cast<double>(counted);
    if (corr > best_corr) {
      best_corr = corr;
      signature_period_ = period;
    }
  }

  // Markov transition counts with add-one smoothing.
  const std::size_t n = kNumBins;
  std::vector<std::vector<double>> counts(n, std::vector<double>(n, 1.0));
  for (const auto& series : corpus) {
    for (std::size_t t = 0; t + 1 < series.size(); ++t) {
      counts[bin_of(series[t])][bin_of(series[t + 1])] += 1.0;
    }
  }
  transition_.assign(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (double c : counts[i]) row_sum += c;
    for (std::size_t j = 0; j < n; ++j) {
      transition_[i][j] = counts[i][j] / row_sum;
    }
  }
  trained_ = true;
}

double MarkovChainPredictor::predict(const PredictionQuery& query) {
  const std::span<const double> history = query.history;
  const std::size_t horizon = query.horizon;
  if (!trained_) {
    throw std::logic_error("MarkovChainPredictor::predict before train");
  }
  if (history.empty()) return bin_center(kNumBins / 2);

  // Signature replay when the trace showed a repeating pattern and the
  // history is long enough to index into the period: the forecast for the
  // slot `horizon` steps past the end is the most recent sample at the
  // same phase of the period.
  if (signature_period_ > 0 && history.size() >= signature_period_ &&
      horizon > 0) {
    const std::size_t periods_back =
        (horizon + signature_period_ - 1) / signature_period_;
    const std::size_t offset = periods_back * signature_period_ - horizon;
    if (offset < history.size()) {
      return history[history.size() - 1 - offset];
    }
  }

  // Multi-step Markov: propagate the state distribution `horizon` steps
  // and return the expected bin center. As the paper notes, correlation
  // with the actual demand weakens with each extra step.
  const std::size_t n = kNumBins;
  std::vector<double> dist(n, 0.0);
  dist[bin_of(history.back())] = 1.0;
  for (std::size_t step = 0; step < std::max<std::size_t>(horizon, 1);
       ++step) {
    std::vector<double> next(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (dist[i] == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        next[j] += dist[i] * transition_[i][j];
      }
    }
    dist = std::move(next);
  }
  double expected = 0.0;
  for (std::size_t i = 0; i < n; ++i) expected += dist[i] * bin_center(i);
  return expected;
}

}  // namespace corp::predict
