// Dense row-major matrix for the feed-forward network.
//
// The paper's DNN is tiny (Table II: 4 layers x 50 units). Its hot kernels
// are the per-sample gemv of the forward pass, the fused back-propagation
// sweep that applies Eq. 8 in place, and the batched GEMM of inference;
// matrix.cpp states the bit-identity contract they keep.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace corp::dnn {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    return std::span<double>(data_.data() + r * cols_, cols_);
  }
  std::span<const double> row(std::size_t r) const {
    return std::span<const double>(data_.data() + r * cols_, cols_);
  }

  std::span<double> flat() { return data_; }
  std::span<const double> flat() const { return data_; }

  void fill(double value);

  /// y = A x (x.size() == cols, y.size() == rows), written into the
  /// caller's span: y[r] is one accumulator starting at 0.0 that adds
  /// A(r, c) * x[c] over ascending c.
  void multiply(std::span<const double> x, std::span<double> y) const;

  /// Y = X A^T for a batch X of N row-major inputs (N x cols), producing
  /// N x rows outputs — one gemv per input row, blocked over the batch so a
  /// weight row streamed from cache serves a whole tile of inputs. The
  /// per-element accumulation order is identical to multiply() (ascending
  /// column index within each output element), so multiply_batch(X).row(n)
  /// is bit-identical to multiply(X.row(n)) for every n.
  Matrix multiply_batch(const Matrix& inputs) const;

  /// The fused back-propagation sweep of one layer (Eq. 7 and 8) for
  /// error terms `delta` (size rows) of input `x` (size cols): for each
  /// row r in ascending order with delta[r] != 0, first
  /// input_grad += delta[r] * A(r, :) from the pre-update row, then
  /// A(r, c) += (-learning_rate) * (delta[r] * x[c]). input_grad (size
  /// cols) accumulates onto what the caller put there, normally zeros.
  void backprop_update(std::span<const double> delta,
                       std::span<const double> x, double learning_rate,
                       std::span<double> input_grad);

  /// Xavier/Glorot uniform init: U(-limit, limit), limit = sqrt(6/(in+out)).
  static Matrix xavier(std::size_t rows, std::size_t cols, util::Rng& rng);

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace corp::dnn
