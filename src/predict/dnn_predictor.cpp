#include "predict/dnn_predictor.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace corp::predict {

namespace {

/// SGD learning rate, the mu of Eq. 8.
constexpr double kLearningRate = 0.05;

}  // namespace

DnnPredictor::DnnPredictor(const DnnPredictorConfig& config, util::Rng& rng)
    : config_(config), rng_(rng.fork()) {
  if (config.history_slots == 0 || config.horizon_slots == 0) {
    throw std::invalid_argument("DnnPredictor: zero history or horizon");
  }
}

void DnnPredictor::train(const SeriesCorpus& corpus) {
  // Pool all samples to fit the normalizer, then build one windowed
  // dataset across series (windows never straddle series boundaries).
  std::vector<double> pooled;
  for (const auto& series : corpus) {
    pooled.insert(pooled.end(), series.begin(), series.end());
  }
  if (pooled.empty()) {
    throw std::invalid_argument("DnnPredictor::train: empty corpus");
  }
  normalizer_.fit(pooled);

  // Level-free residual learning: the target is the next window's mean
  // MINUS the anchor (mean of the most recent window of inputs). The
  // network then models fluctuation structure rather than absolute
  // levels, which keeps it calibrated on jobs whose baseline utilization
  // differs from the training trace's.
  dnn::Dataset data;
  for (const auto& series : corpus) {
    const std::vector<double> norm = normalizer_.transform(series);
    dnn::Dataset part = dnn::make_windowed_dataset(
        norm, config_.history_slots, config_.horizon_slots);
    for (std::size_t s = 0; s < part.inputs.size(); ++s) {
      part.targets[s][0] -= window_anchor(part.inputs[s]);
    }
    for (auto& in : part.inputs) data.inputs.push_back(std::move(in));
    for (auto& tg : part.targets) data.targets.push_back(std::move(tg));
  }
  if (data.size() == 0) {
    throw std::invalid_argument(
        "DnnPredictor::train: corpus series too short for window");
  }

  dnn::NetworkConfig net_config;
  net_config.input_size = config_.history_slots;
  net_config.output_size = 1;
  net_config.hidden_layers = config_.hidden_layers;
  net_config.hidden_units = config_.hidden_units;
  network_ = std::make_unique<dnn::Network>(net_config, rng_);

  dnn::Trainer trainer(config_.trainer, rng_);
  report_ = trainer.fit(*network_, kLearningRate, data);
  trained_ = true;
}

double DnnPredictor::predict(const PredictionQuery& query) {
  if (!trained_) throw std::logic_error("DnnPredictor::predict before train");
  if (query.history.empty()) return normalizer_.inverse(0.5);

  std::vector<double> window(config_.history_slots);
  fill_window(query.history, window);
  const double out = network_->predict(window).front();
  return normalizer_.inverse(window_anchor(window) + out);
}

BatchResult DnnPredictor::predict_batch(const BatchRequest& request) {
  if (!trained_) throw std::logic_error("DnnPredictor::predict before train");
  const std::size_t n = request.queries.size();
  BatchResult result;
  result.values.assign(n, 0.0);

  if (obs::registry().enabled()) {
    obs::registry().counter("predict.batch.calls").add(1);
    obs::registry().counter("predict.batch.rows").add(n);
  }

  // Empty histories resolve to the scalar path's constant without entering
  // the network; the remaining queries become GEMM rows in query order.
  std::vector<std::size_t> gemm_rows;
  gemm_rows.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (request.queries[i].history.empty()) {
      result.values[i] = normalizer_.inverse(0.5);
    } else {
      gemm_rows.push_back(i);
    }
  }
  if (gemm_rows.empty()) return result;

  dnn::Matrix inputs(gemm_rows.size(), config_.history_slots);
  std::vector<double> anchors(gemm_rows.size());
  for (std::size_t k = 0; k < gemm_rows.size(); ++k) {
    const std::span<double> window = inputs.row(k);
    fill_window(request.queries[gemm_rows[k]].history, window);
    anchors[k] = window_anchor(window);
  }
  const dnn::Matrix out = network_->forward_batch(inputs, request.pool);
  for (std::size_t k = 0; k < gemm_rows.size(); ++k) {
    result.values[gemm_rows[k]] = normalizer_.inverse(anchors[k] + out(k, 0));
  }
  return result;
}

void DnnPredictor::fill_window(std::span<const double> history,
                               std::span<double> window) const {
  // Short histories are left-padded by *tiling* the available samples:
  // a run of constant padding is far outside the training distribution
  // (real windows always fluctuate) and provokes erratic outputs, while
  // a tiled window is locally realistic.
  const std::size_t have = std::min(history.size(), config_.history_slots);
  const std::size_t pad = config_.history_slots - have;
  const std::size_t base = history.size() - have;
  for (std::size_t i = 0; i < pad; ++i) {
    window[i] = history[base + i % have];
  }
  for (std::size_t i = 0; i < have; ++i) {
    window[pad + i] = history[base + i];
  }
  for (double& x : window) x = normalizer_.transform(x);
}

double DnnPredictor::window_anchor(std::span<const double> window) const {
  const std::size_t take = std::min(config_.horizon_slots, window.size());
  double sum = 0.0;
  for (std::size_t i = window.size() - take; i < window.size(); ++i) {
    sum += window[i];
  }
  return sum / static_cast<double>(take);
}

}  // namespace corp::predict
