// Feed-forward network: the paper's DNN (Fig. 2, Table II: h = 4 hidden
// layers of N_n = 50 units, sigmoid activations) with a linear regression
// head for predicting the amount of unused resource.
#pragma once

#include <vector>

#include "dnn/layer.hpp"
#include "dnn/loss.hpp"

namespace corp::util {
class ThreadPool;
}  // namespace corp::util

namespace corp::dnn {

/// Batches below this many rows always run serially: sharding tiny batches
/// costs more in task dispatch than the GEMM saves, and the same constant
/// lets callers avoid spinning up a pool they can never use.
inline constexpr std::size_t kForwardBatchShardMinRows = 64;

struct NetworkConfig {
  std::size_t input_size = 12;            // Delta history slots
  std::size_t output_size = 1;            // predicted unused amount
  std::size_t hidden_layers = 4;          // Table II: h = 4
  std::size_t hidden_units = 50;          // Table II: N_n = 50
};

class Network {
 public:
  Network(const NetworkConfig& config, util::Rng& rng);

  const NetworkConfig& config() const { return config_; }
  std::size_t layer_count() const { return layers_.size(); }
  DenseLayer& layer(std::size_t i) { return layers_[i]; }
  const DenseLayer& layer(std::size_t i) const { return layers_[i]; }

  /// Non-owning pointers to all layers, for SgdOptimizer::bind.
  std::vector<DenseLayer*> layer_pointers();

  /// Feed-forward evaluation caching per-layer state for backward().
  Vector forward(std::span<const double> input);

  /// Inference without keeping gradient state correct for training (same
  /// computation; named for call-site clarity).
  Vector predict(std::span<const double> input) { return forward(input); }

  /// Pure batched inference over N samples (N x input_size -> N x
  /// output_size). Each output row is bit-identical to predict() on the
  /// corresponding input row. When a pool is supplied and the batch has at
  /// least kForwardBatchShardMinRows rows, contiguous row chunks are
  /// evaluated concurrently; chunk boundaries depend only on (rows, pool
  /// size) and every row's arithmetic is independent, so the sharded result
  /// is bit-identical to the serial one.
  Matrix forward_batch(const Matrix& batch,
                       util::ThreadPool* pool = nullptr) const;

  /// Runs backward over all layers given dLoss/dPrediction, accumulating
  /// gradients. Must follow a forward() on the same sample.
  void backward(std::span<const double> output_grad);

  void zero_grad();

  /// One full training sample: forward, MSE loss, backward. Returns the
  /// sample loss. Gradients accumulate (caller steps the optimizer).
  double train_sample(std::span<const double> input,
                      std::span<const double> target);

  std::size_t parameter_count() const;

 private:
  NetworkConfig config_;
  std::vector<DenseLayer> layers_;
};

}  // namespace corp::dnn
