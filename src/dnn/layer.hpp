// Fully connected layer with cached forward state for back-propagation.
//
// Forward (Eq. 5):  g_i(d) = F(sum_j w_ij * g_j(d-1) + e_i)
// Backward (Eq. 6/7): error terms flow through W^T scaled by F'(g).
// Gradients accumulate into grad_weights/grad_bias; SgdOptimizer applies
// them (Eq. 8).
#pragma once

#include <span>

#include "dnn/activation.hpp"
#include "dnn/matrix.hpp"

namespace corp::dnn {

class DenseLayer {
 public:
  DenseLayer(std::size_t inputs, std::size_t outputs, Activation activation,
             util::Rng& rng);

  std::size_t inputs() const { return weights_.cols(); }
  std::size_t outputs() const { return weights_.rows(); }
  Activation activation() const { return activation_; }

  Matrix& weights() { return weights_; }
  const Matrix& weights() const { return weights_; }
  Vector& bias() { return bias_; }
  const Vector& bias() const { return bias_; }
  Matrix& grad_weights() { return grad_weights_; }
  const Matrix& grad_weights() const { return grad_weights_; }
  Vector& grad_bias() { return grad_bias_; }
  const Vector& grad_bias() const { return grad_bias_; }

  /// Computes activations for one sample, caching input and output for a
  /// subsequent backward() call.
  const Vector& forward(std::span<const double> input);

  /// Pure batched forward: activations for N samples (N x inputs) without
  /// touching the cached training state, so concurrent calls are safe and
  /// each output row is bit-identical to forward() on the same input row.
  Matrix forward_batch(const Matrix& batch) const;

  /// Given dLoss/dOutput of this layer, accumulates weight/bias gradients
  /// and returns dLoss/dInput. Must follow a forward() on the same sample.
  Vector backward(std::span<const double> output_grad);

  /// Zeroes accumulated gradients (start of each batch).
  void zero_grad();

  /// Number of trainable parameters.
  std::size_t parameter_count() const;

 private:
  Matrix weights_;        // outputs x inputs
  Vector bias_;           // outputs
  Matrix grad_weights_;   // same shape as weights_
  Vector grad_bias_;      // same shape as bias_
  Activation activation_;

  // Cached forward state (single-sample training as in the paper, which
  // updates weights per input).
  Vector last_input_;
  Vector last_output_;
};

}  // namespace corp::dnn
