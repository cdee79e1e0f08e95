#include "dnn/layer.hpp"

#include <cmath>
#include <stdexcept>

namespace corp::dnn {

DenseLayer::DenseLayer(std::size_t inputs, std::size_t outputs,
                       Activation activation, util::Rng& rng)
    : weights_(Matrix::xavier(outputs, inputs, rng)),
      bias_(outputs, 0.0),
      grad_weights_(outputs, inputs, 0.0),
      grad_bias_(outputs, 0.0),
      activation_(activation) {
  if (inputs == 0 || outputs == 0) {
    throw std::invalid_argument("DenseLayer: zero-sized layer");
  }
}

const Vector& DenseLayer::forward(std::span<const double> input) {
  if (input.size() != inputs()) {
    throw std::invalid_argument("DenseLayer::forward: input size mismatch");
  }
  last_input_.assign(input.begin(), input.end());
  last_output_ = weights_.multiply(input);
  for (std::size_t i = 0; i < last_output_.size(); ++i) {
    last_output_[i] = activate(activation_, last_output_[i] + bias_[i]);
  }
  return last_output_;
}

Matrix DenseLayer::forward_batch(const Matrix& batch) const {
  if (batch.cols() != inputs()) {
    throw std::invalid_argument(
        "DenseLayer::forward_batch: input size mismatch");
  }
  Matrix out = weights_.multiply_batch(batch);
  // Hoist the activation dispatch out of the element loop; the inlined
  // branches evaluate the exact activate() expression, so results stay
  // bit-identical to the scalar path (which dispatches per element).
  switch (activation_) {
    case Activation::kSigmoid:
      for (std::size_t n = 0; n < out.rows(); ++n) {
        for (std::size_t i = 0; i < out.cols(); ++i) {
          out(n, i) = 1.0 / (1.0 + std::exp(-(out(n, i) + bias_[i])));
        }
      }
      break;
    case Activation::kIdentity:
      for (std::size_t n = 0; n < out.rows(); ++n) {
        for (std::size_t i = 0; i < out.cols(); ++i) {
          out(n, i) += bias_[i];
        }
      }
      break;
  }
  return out;
}

Vector DenseLayer::backward(std::span<const double> output_grad) {
  if (output_grad.size() != outputs()) {
    throw std::invalid_argument("DenseLayer::backward: grad size mismatch");
  }
  if (last_input_.size() != inputs()) {
    throw std::logic_error("DenseLayer::backward without forward");
  }
  // delta_i = dLoss/dOut_i * F'(g_i), Eq. 6/7 applied at this layer.
  Vector delta(outputs());
  for (std::size_t i = 0; i < delta.size(); ++i) {
    delta[i] = output_grad[i] *
               activate_derivative_from_output(activation_, last_output_[i]);
  }
  // Accumulate gradients (Eq. 8: dW_ij = delta_i * g_j(d-1)).
  grad_weights_.add_outer(delta, last_input_, 1.0);
  for (std::size_t i = 0; i < delta.size(); ++i) grad_bias_[i] += delta[i];
  // Propagate to the previous layer: dLoss/dIn = W^T delta.
  return weights_.multiply_transposed(delta);
}

void DenseLayer::zero_grad() {
  grad_weights_.fill(0.0);
  for (double& g : grad_bias_) g = 0.0;
}

std::size_t DenseLayer::parameter_count() const {
  return weights_.size() + bias_.size();
}

}  // namespace corp::dnn
