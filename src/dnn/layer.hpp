// Fully connected layer with cached forward state for back-propagation.
//
// Forward (Eq. 5):  g_i(d) = F(sum_j w_ij * g_j(d-1) + e_i)
// Backward (Eq. 6/7): error terms flow through W^T scaled by F'(g).
// backward_step() applies the Eq. 8 update in place as it goes: the
// paper updates the weights after every input, so no gradient is kept.
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

  /// Computes activations for one sample into the layer's cached output
  /// buffer (returned), keeping a copy of the input for a subsequent
  /// backward_step(). Allocation-free after the first call.
  const Vector& forward(std::span<const double> input);

  /// Pure batched forward: activations for N samples (N x inputs) without
  /// touching the cached training state, so concurrent calls are safe and
  /// each output row is bit-identical to forward() on the same input row.
  Matrix forward_batch(const Matrix& batch) const;

  /// One per-sample SGD step for the sample of the last forward(): given
  /// dLoss/dOutput, computes the error terms (Eq. 6/7), then in one sweep
  /// over the weight rows accumulates dLoss/dInput from the pre-update
  /// weights and applies Eq. 8 (w -= learning_rate * delta * input,
  /// e -= learning_rate * delta). Returns dLoss/dInput in a buffer the
  /// layer owns, valid until the next call. Allocation-free after the
  /// first call; throws unless learning_rate > 0.
  const Vector& backward_step(std::span<const double> output_grad,
                              double learning_rate);

  /// backward_step() for a caller that discards dLoss/dInput (the first
  /// layer of a network, a pretraining encoder): the same Eq. 6-8
  /// update, leaving weights and biases bit-identical, without the
  /// W^T delta sweep.
  void update_step(std::span<const double> output_grad, double learning_rate);

  /// Number of trainable parameters.
  std::size_t parameter_count() const;

 private:
  /// Checks a step's arguments and fills delta_ (Eq. 6/7).
  void compute_delta(std::span<const double> output_grad,
                     double learning_rate);
  /// e -= learning_rate * delta (Eq. 8 for the biases).
  void update_bias(double learning_rate);

  Matrix weights_;        // outputs x inputs
  Vector bias_;           // outputs
  Activation activation_;

  // Per-sample training state (the paper updates weights per input).
  Vector last_input_;
  Vector last_output_;
  Vector delta_;
  Vector input_grad_;
};

}  // namespace corp::dnn
