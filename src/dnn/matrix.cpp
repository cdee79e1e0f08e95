#include "dnn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace corp::dnn {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::fill(double value) {
  for (double& x : data_) x = value;
}

namespace {

// target_clones emits an ifunc whose resolver runs during relocation,
// before the TSan runtime has initialized — the binary then segfaults at
// load under -fsanitize=thread. The clones are a pure dispatch
// optimization (both emit the same FP op sequence, see the contract
// below), so TSan builds simply take the single portable compilation of
// each kernel.
#if defined(__SANITIZE_THREAD__)
#define CORP_TARGET_CLONES
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CORP_TARGET_CLONES
#else
#define CORP_TARGET_CLONES [[gnu::target_clones("default", "avx2")]]
#endif
#else
#define CORP_TARGET_CLONES [[gnu::target_clones("default", "avx2")]]
#endif

// Bit-identity contract of the per-sample kernels. Training is pinned
// bit for bit by the goldens, so the fused step below must reproduce the
// three-pass step it replaced (zero the gradient buffers, accumulate
// delta x^T and W^T delta, then W += (-mu) * G and b -= mu * g_b):
//  - Forward: y[r] is `acc = 0.0; acc += A(r, c) * x[c]` over ascending
//    c. gemv() interleaves kGemvRows rows so their accumulator chains
//    overlap, but never reassociates within a row.
//  - No FMA: both target_clones variants ("default" and "avx2") leave
//    FMA off, so no multiply and add can contract into one rounding and
//    every SIMD lane performs the scalar op sequence.
//  - Backward: rows run in ascending order and rows with delta[r] == 0
//    are skipped, as the old accumulate and transpose passes skipped
//    them. A skipped row's old update added (-mu) * 0.0, which leaves
//    every weight unchanged. A live row first adds delta[r] * A(r, c)
//    to input_grad[c] from the pre-update weight, then applies
//    A(r, c) += (-mu) * (delta[r] * x[c]).
//  - The old update applied (-mu) * (0.0 + delta[r] * x[c]). The two
//    differ only when the product is -0.0 and the weight is -0.0 too
//    (the 0.0 + turns -0.0 into +0.0), and the same holds for biases.
//    No weight or bias is ever -0.0: libstdc++'s Xavier draw computes
//    (2l) * u + (-l), which is at worst +0.0; biases start at +0.0; and
//    under round-to-nearest a sum is -0.0 only when both operands are.
//    So the fused and three-pass trajectories match bit for bit.
//  - Layer order: a layer updates its weights before the layer below
//    runs its backward pass, which reads only its own pre-update
//    weights and the input_grad computed from this layer's pre-update
//    weights, so the interleaving is invisible.

/// Rows per gemv() block: independent accumulator chains that the core
/// overlaps, where one row alone is a latency-bound add chain.
constexpr std::size_t kGemvRows = 4;

CORP_TARGET_CLONES
void gemv(const double* __restrict a, std::size_t rows, std::size_t cols,
          const double* __restrict x, double* __restrict y) {
  std::size_t r = 0;
  for (; r + kGemvRows <= rows; r += kGemvRows) {
    const double* __restrict a0 = a + r * cols;
    const double* __restrict a1 = a0 + cols;
    const double* __restrict a2 = a1 + cols;
    const double* __restrict a3 = a2 + cols;
    double acc0 = 0.0;
    double acc1 = 0.0;
    double acc2 = 0.0;
    double acc3 = 0.0;
    for (std::size_t c = 0; c < cols; ++c) {
      const double xc = x[c];
      acc0 += a0[c] * xc;
      acc1 += a1[c] * xc;
      acc2 += a2[c] * xc;
      acc3 += a3[c] * xc;
    }
    y[r] = acc0;
    y[r + 1] = acc1;
    y[r + 2] = acc2;
    y[r + 3] = acc3;
  }
  for (; r < rows; ++r) {
    const double* __restrict row = a + r * cols;
    double acc = 0.0;
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

CORP_TARGET_CLONES
void backprop_rows(double* __restrict a, std::size_t rows, std::size_t cols,
                   const double* __restrict delta,
                   const double* __restrict x, double neg_rate,
                   double* __restrict input_grad) {
  for (std::size_t r = 0; r < rows; ++r) {
    const double d = delta[r];
    if (d == 0.0) continue;
    double* __restrict row = a + r * cols;
    for (std::size_t c = 0; c < cols; ++c) {
      input_grad[c] += d * row[c];
      row[c] += neg_rate * (d * x[c]);
    }
  }
}

/// True when the two spans share any element.
bool overlaps(std::span<const double> a, std::span<const double> b) {
  const std::less<const double*> before;
  return before(a.data(), b.data() + b.size()) &&
         before(b.data(), a.data() + a.size());
}

}  // namespace

void Matrix::multiply(std::span<const double> x, std::span<double> y) const {
  if (x.size() != cols_ || y.size() != rows_) {
    throw std::invalid_argument("Matrix::multiply: dimension mismatch");
  }
  if (overlaps(x, y)) {
    throw std::invalid_argument("Matrix::multiply: x and y overlap");
  }
  gemv(data_.data(), rows_, cols_, x.data(), y.data());
}

void Matrix::backprop_update(std::span<const double> delta,
                             std::span<const double> x, double learning_rate,
                             std::span<double> input_grad) {
  if (delta.size() != rows_ || x.size() != cols_ ||
      input_grad.size() != cols_) {
    throw std::invalid_argument("Matrix::backprop_update: dimension mismatch");
  }
  if (overlaps(input_grad, x) || overlaps(input_grad, delta) ||
      overlaps(input_grad, data_) || overlaps(x, data_) ||
      overlaps(delta, data_)) {
    throw std::invalid_argument("Matrix::backprop_update: operands overlap");
  }
  backprop_rows(data_.data(), rows_, cols_, delta.data(), x.data(),
                -learning_rate, input_grad.data());
}

namespace {

/// Batch-row tile staged column-major per GEMM call; kBlock accumulators
/// per weight row live in registers across a full column sweep. The 4-row
/// by 8-element shape saturates the FP ports on the deployment hosts:
/// each staged column load is reused by four weight rows, so the kernel
/// is arithmetic-bound rather than load-bound.
constexpr std::size_t kTile = 128;
constexpr std::size_t kBlock = 8;

/// Hot micro-kernel of multiply_batch: kBlock output elements of one
/// weight row, their accumulators register-resident for the entire
/// ascending-column sweep (the fixed trip count is what lets the compiler
/// keep them out of memory). target_clones compiles the same source once
/// for generic x86-64 and once for AVX2, picked at load time; neither
/// variant enables FMA, so no mul+add can fuse and every lane performs
/// the exact scalar op sequence — the dispatch changes throughput, never
/// bits.
CORP_TARGET_CLONES
void gemm_block(const double* weight_row, std::size_t cols,
                const double* staged, double* out_block) {
  double acc[kBlock] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const double w = weight_row[c];
    const double* col = staged + c * kTile;
    for (std::size_t i = 0; i < kBlock; ++i) acc[i] += w * col[i];
  }
  for (std::size_t i = 0; i < kBlock; ++i) out_block[i] = acc[i];
}

/// Four-weight-row variant: reuses each staged column load for four output
/// rows, quartering load traffic per FLOP. Per-element recurrences are the
/// same as gemm_block's.
CORP_TARGET_CLONES
void gemm_block4(const double* row0, const double* row1, const double* row2,
                 const double* row3, std::size_t cols, const double* staged,
                 double* out4) {
  double acc0[kBlock] = {};
  double acc1[kBlock] = {};
  double acc2[kBlock] = {};
  double acc3[kBlock] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const double w0 = row0[c];
    const double w1 = row1[c];
    const double w2 = row2[c];
    const double w3 = row3[c];
    const double* col = staged + c * kTile;
    for (std::size_t i = 0; i < kBlock; ++i) {
      acc0[i] += w0 * col[i];
      acc1[i] += w1 * col[i];
      acc2[i] += w2 * col[i];
      acc3[i] += w3 * col[i];
    }
  }
  for (std::size_t i = 0; i < kBlock; ++i) {
    out4[i] = acc0[i];
    out4[kBlock + i] = acc1[i];
    out4[2 * kBlock + i] = acc2[i];
    out4[3 * kBlock + i] = acc3[i];
  }
}

/// Remainder variant for the tail block (fewer than kBlock rows): same
/// recurrence, runtime trip count.
CORP_TARGET_CLONES
void gemm_block_tail(const double* weight_row, std::size_t cols,
                     const double* staged, double* out_block,
                     std::size_t rows) {
  double acc[kBlock] = {};
  for (std::size_t c = 0; c < cols; ++c) {
    const double w = weight_row[c];
    const double* col = staged + c * kTile;
    for (std::size_t i = 0; i < rows; ++i) acc[i] += w * col[i];
  }
  for (std::size_t i = 0; i < rows; ++i) out_block[i] = acc[i];
}

}  // namespace

Matrix Matrix::multiply_batch(const Matrix& inputs) const {
  if (inputs.cols_ != cols_) {
    throw std::invalid_argument("Matrix::multiply_batch: dimension mismatch");
  }
  Matrix out(inputs.rows_, rows_);
  // Tiny batches would pay more for staging than the tiled kernel saves;
  // the per-row loop is bit-identical (it *is* multiply() per row).
  if (inputs.rows_ < 8) {
    for (std::size_t n = 0; n < inputs.rows_; ++n) {
      for (std::size_t r = 0; r < rows_; ++r) {
        const double* row_ptr = data_.data() + r * cols_;
        const double* x = inputs.data_.data() + n * cols_;
        double acc = 0.0;
        for (std::size_t c = 0; c < cols_; ++c) acc += row_ptr[c] * x[c];
        out.data_[n * rows_ + r] = acc;
      }
    }
    return out;
  }
  // Each output element keeps multiply()'s exact recurrence — one
  // accumulator walking the columns in ascending order — but the kernel
  // runs that recurrence for kBlock batch rows at once with the
  // accumulators held in registers. Staging the tile column-major makes
  // the block loads unit-stride, so the micro-kernel vectorizes and
  // pipelines where the scalar dot product is a latency-bound add chain.
  // That independence across rows, not any reassociation within a row, is
  // where the batched speedup comes from; the per-element FP op sequence
  // is unchanged, so multiply_batch(X).row(n) stays bit-identical to
  // multiply(X.row(n)).
  // Reused scratch: every element read below [0, tile) is written first,
  // so stale contents from a previous call are never observed. thread_local
  // keeps concurrent pool shards on disjoint buffers.
  thread_local std::vector<double> staged;
  thread_local std::vector<double> out_block;
  if (staged.size() < cols_ * kTile) staged.resize(cols_ * kTile);
  if (out_block.size() < 4 * kBlock) out_block.resize(4 * kBlock);
  for (std::size_t n0 = 0; n0 < inputs.rows_; n0 += kTile) {
    const std::size_t tile = std::min(inputs.rows_ - n0, kTile);
    for (std::size_t c = 0; c < cols_; ++c) {
      double* col = staged.data() + c * kTile;
      for (std::size_t n = 0; n < tile; ++n) {
        col[n] = inputs.data_[(n0 + n) * cols_ + c];
      }
    }
    // Block loop outside the row loop: one kBlock slice of the staged
    // tile (cols_ cache lines) stays L1-resident across every weight row.
    for (std::size_t b0 = 0; b0 < tile; b0 += kBlock) {
      const std::size_t block = std::min(tile - b0, kBlock);
      const double* slice = staged.data() + b0;
      std::size_t r = 0;
      if (block == kBlock) {
        for (; r + 4 <= rows_; r += 4) {
          gemm_block4(data_.data() + r * cols_, data_.data() + (r + 1) * cols_,
                      data_.data() + (r + 2) * cols_,
                      data_.data() + (r + 3) * cols_, cols_, slice,
                      out_block.data());
          for (std::size_t q = 0; q < 4; ++q) {
            for (std::size_t n = 0; n < kBlock; ++n) {
              out.data_[(n0 + b0 + n) * rows_ + r + q] =
                  out_block[q * kBlock + n];
            }
          }
        }
        for (; r < rows_; ++r) {
          gemm_block(data_.data() + r * cols_, cols_, slice,
                     out_block.data());
          for (std::size_t n = 0; n < kBlock; ++n) {
            out.data_[(n0 + b0 + n) * rows_ + r] = out_block[n];
          }
        }
      } else {
        for (; r < rows_; ++r) {
          gemm_block_tail(data_.data() + r * cols_, cols_, slice,
                          out_block.data(), block);
          for (std::size_t n = 0; n < block; ++n) {
            out.data_[(n0 + b0 + n) * rows_ + r] = out_block[n];
          }
        }
      }
    }
  }
  return out;
}

Matrix Matrix::xavier(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  const double limit = std::sqrt(6.0 / static_cast<double>(rows + cols));
  for (double& x : m.data_) x = rng.uniform(-limit, limit);
  return m;
}

}  // namespace corp::dnn
