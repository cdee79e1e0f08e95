// DNN forecast of the temporarily-unused amount (Sec. III-A1a).
//
// Input: the last Delta slots of the unused-resource series, min-max
// normalized. Output: the unused amount at t + L. Architecture per Table
// II: 4 hidden layers x 50 sigmoid units with a linear regression head,
// trained by per-sample SGD with validation-convergence stopping and
// autoencoder pretraining.
#pragma once

#include <memory>

#include "dnn/network.hpp"
#include "dnn/normalizer.hpp"
#include "dnn/trainer.hpp"
#include "predict/predictor.hpp"
#include "util/rng.hpp"

namespace corp::predict {

struct DnnPredictorConfig {
  /// History slots fed to the network (Delta).
  std::size_t history_slots = 12;
  /// Forecast horizon in slots (L = 6, one minute).
  std::size_t horizon_slots = 6;
  std::size_t hidden_layers = 4;   // Table II
  std::size_t hidden_units = 50;   // Table II
  dnn::TrainerConfig trainer;
};

class DnnPredictor final : public SeriesPredictor {
 public:
  DnnPredictor(const DnnPredictorConfig& config, util::Rng& rng);

  void train(const SeriesCorpus& corpus) override;
  double predict(const PredictionQuery& query) override;

  /// GEMM path: packs every non-empty history into one N x Delta input
  /// matrix, runs a single blocked forward pass (sharded over
  /// request.pool when provided), and un-normalizes per row. Each value is
  /// bit-identical to predict() on the same query.
  BatchResult predict_batch(const BatchRequest& request) override;

  std::string_view name() const override { return "dnn"; }

  bool trained() const { return trained_; }
  const dnn::TrainReport& last_report() const { return report_; }
  const DnnPredictorConfig& config() const { return config_; }

 private:
  /// Mean of the trailing horizon-length span of a normalized input
  /// window — the level anchor the network's residual output adds to.
  double window_anchor(std::span<const double> window) const;

  /// Tiles + normalizes a history into a Delta-slot window (the scalar
  /// path and every batch row go through this same routine).
  void fill_window(std::span<const double> history, std::span<double> window)
      const;

  DnnPredictorConfig config_;
  util::Rng rng_;
  dnn::MinMaxNormalizer normalizer_;
  std::unique_ptr<dnn::Network> network_;
  dnn::TrainReport report_;
  bool trained_ = false;
};

}  // namespace corp::predict
