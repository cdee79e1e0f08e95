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

  /// Feed-forward evaluation caching per-layer state for train_step().
  /// Returns the head's cached output, valid until the next forward().
  const Vector& forward(std::span<const double> input);

  /// Inference through the same cached per-sample path (same
  /// computation; named for call-site clarity).
  const Vector& predict(std::span<const double> input) {
    return forward(input);
  }

  /// Pure batched inference over N samples (N x input_size -> N x
  /// output_size). Each output row is bit-identical to predict() on the
  /// corresponding input row. When a pool is supplied and the batch has at
  /// least kForwardBatchShardMinRows rows, contiguous row chunks are
  /// evaluated concurrently; chunk boundaries depend only on (rows, pool
  /// size) and every row's arithmetic is independent, so the sharded result
  /// is bit-identical to the serial one.
  Matrix forward_batch(const Matrix& batch,
                       util::ThreadPool* pool = nullptr) const;

  /// One per-sample SGD step (Eq. 5-8): forward into each layer's cached
  /// output, MSE loss, then each layer's fused backward_step() from the
  /// head down, which updates its weights in place; the first layer,
  /// whose dLoss/dInput has no reader, takes update_step(). Returns the
  /// sample loss. Allocation-free after the first call; throws unless
  /// learning_rate > 0.
  double train_step(std::span<const double> input,
                    std::span<const double> target, double learning_rate);

  std::size_t parameter_count() const;

 private:
  NetworkConfig config_;
  std::vector<DenseLayer> layers_;
  /// dLoss/dPrediction scratch of train_step().
  Vector output_grad_;
};

}  // namespace corp::dnn
