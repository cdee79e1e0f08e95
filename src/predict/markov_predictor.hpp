// PRESS-style signature + discrete-time Markov-chain forecaster — the
// prediction engine of the CloudScale baseline (Sec. IV: "we first used the
// prediction model developed in [37] (PRESS) and a discrete-time Markov
// chain to predict the amount of unused resource").
//
// PRESS first looks for a repeating signature (a dominant period found via
// autocorrelation); when a signature exists, the forecast replays it. When
// no pattern is found — the common case for short-lived jobs, which is the
// paper's whole point — it falls back to a quantized Markov chain: values
// are binned into states, a transition matrix is learned, and the
// multi-step forecast is the expected bin center after `horizon`
// transitions of the state distribution.
#pragma once

#include <vector>

#include "predict/predictor.hpp"

namespace corp::predict {

class MarkovChainPredictor final : public SeriesPredictor {
 public:
  /// Number of quantization bins (PRESS uses coarse state spaces).
  static constexpr std::size_t kNumBins = 12;

  void train(const SeriesCorpus& corpus) override;
  double predict(const PredictionQuery& query) override;
  std::string_view name() const override { return "press-markov"; }

  /// Detected signature period (0 = none found, Markov fallback in use).
  std::size_t signature_period() const { return signature_period_; }

  /// Bin index for a raw value (exposed for tests).
  std::size_t bin_of(double value) const;
  /// Center value of a bin.
  double bin_center(std::size_t bin) const;

 private:
  /// Lag-k autocorrelation of a series.
  static double autocorrelation(std::span<const double> series,
                                std::size_t lag);

  double min_value_ = 0.0;
  double max_value_ = 1.0;
  /// Row-stochastic transition matrix over bins.
  std::vector<std::vector<double>> transition_;
  std::size_t signature_period_ = 0;
  bool trained_ = false;
};

}  // namespace corp::predict
