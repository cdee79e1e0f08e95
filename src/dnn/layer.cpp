#include "dnn/layer.hpp"

#include <cmath>
#include <stdexcept>

namespace corp::dnn {

DenseLayer::DenseLayer(std::size_t inputs, std::size_t outputs,
                       Activation activation, util::Rng& rng)
    : weights_(Matrix::xavier(outputs, inputs, rng)),
      bias_(outputs, 0.0),
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
  last_output_.resize(outputs());
  weights_.multiply(last_input_, last_output_);
  // activate() inlined as in forward_batch(). The sigmoid runs one pass
  // per step, so the adds and divides vectorize around the scalar
  // std::exp calls; each element still evaluates
  // 1.0 / (1.0 + std::exp(-(y + b))) in that order.
  double* y = last_output_.data();
  const std::size_t n = last_output_.size();
  switch (activation_) {
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) y[i] = -(y[i] + bias_[i]);
      for (std::size_t i = 0; i < n; ++i) y[i] = std::exp(y[i]);
      for (std::size_t i = 0; i < n; ++i) y[i] = 1.0 / (1.0 + y[i]);
      break;
    case Activation::kIdentity:
      for (std::size_t i = 0; i < n; ++i) y[i] += bias_[i];
      break;
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

void DenseLayer::compute_delta(std::span<const double> output_grad,
                               double learning_rate) {
  if (output_grad.size() != outputs()) {
    throw std::invalid_argument("DenseLayer step: grad size mismatch");
  }
  if (last_input_.size() != inputs()) {
    throw std::logic_error("DenseLayer step without forward");
  }
  if (!(learning_rate > 0.0)) {
    throw std::invalid_argument("DenseLayer step: learning_rate must be > 0");
  }
  // delta_i = dLoss/dOut_i * F'(g_i), Eq. 6/7 applied at this layer,
  // with activate_derivative_from_output() inlined per activation.
  delta_.resize(outputs());
  const std::size_t n = delta_.size();
  switch (activation_) {
    case Activation::kSigmoid:
      for (std::size_t i = 0; i < n; ++i) {
        const double y = last_output_[i];
        delta_[i] = output_grad[i] * (y * (1.0 - y));
      }
      break;
    case Activation::kIdentity:  // F' = 1, and g * 1.0 == g exactly
      for (std::size_t i = 0; i < n; ++i) delta_[i] = output_grad[i];
      break;
  }
}

void DenseLayer::update_bias(double learning_rate) {
  for (std::size_t i = 0; i < delta_.size(); ++i) {
    bias_[i] -= learning_rate * delta_[i];
  }
}

const Vector& DenseLayer::backward_step(std::span<const double> output_grad,
                                        double learning_rate) {
  compute_delta(output_grad, learning_rate);
  // dLoss/dIn = W^T delta from the pre-update rows, fused with Eq. 8's
  // dW_ij = -learning_rate * delta_i * g_j(d-1) (matrix.cpp states the
  // bit-identity contract).
  input_grad_.assign(inputs(), 0.0);
  weights_.backprop_update(delta_, last_input_, learning_rate, input_grad_);
  update_bias(learning_rate);
  return input_grad_;
}

void DenseLayer::update_step(std::span<const double> output_grad,
                             double learning_rate) {
  compute_delta(output_grad, learning_rate);
  weights_.update_rows(delta_, last_input_, learning_rate);
  update_bias(learning_rate);
}

std::size_t DenseLayer::parameter_count() const {
  return weights_.size() + bias_.size();
}

}  // namespace corp::dnn
