// Sliding-window mean estimator — the prediction engine of the DRA
// baseline ("we used the run-time software to periodically estimate the
// amount of unused resource of VMs based on the historical resource usage
// data", Sec. IV). No fluctuation handling, no confidence levels — exactly
// the deficiencies Figs. 6-9 attribute to DRA.
#pragma once

#include "predict/predictor.hpp"

namespace corp::predict {

class SlidingMeanPredictor final : public SeriesPredictor {
 public:
  /// Number of trailing samples averaged.
  static constexpr std::size_t kWindow = 12;

  /// Stateless in the corpus: train() only records a fallback mean used
  /// when predict() is handed an empty history.
  void train(const SeriesCorpus& corpus) override;
  double predict(const PredictionQuery& query) override;
  std::string_view name() const override { return "sliding-mean"; }

 private:
  double corpus_mean_ = 0.0;
};

}  // namespace corp::predict
