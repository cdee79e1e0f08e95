#include "dnn/matrix.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <span>
#include <vector>

namespace corp::dnn {
namespace {

/// The recurrence Matrix::multiply() promises, one row at a time:
/// acc = 0.0, then acc += A(r, c) * x[c] over ascending c.
std::vector<double> reference_multiply(const Matrix& a,
                                       std::span<const double> x) {
  std::vector<double> y(a.rows());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) acc += a(r, c) * x[c];
    y[r] = acc;
  }
  return y;
}

/// A value from one of five classes: +0.0, -0.0, a subnormal, a large
/// magnitude (2^400 to 2^490, so no product or 53-term sum overflows and
/// no NaN can arise) or an ordinary value in [-1, 1].
double draw_hostile(util::Rng& rng) {
  const std::int64_t kind = rng.uniform_int(0, 9);
  const double sign = rng.bernoulli(0.5) ? -1.0 : 1.0;
  switch (kind) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2: {
      const auto mantissa = static_cast<std::uint64_t>(
          rng.uniform_int(1, (std::int64_t{1} << 52) - 1));
      return sign * std::bit_cast<double>(mantissa);
    }
    case 3:
      return sign * std::ldexp(rng.uniform(1.0, 2.0),
                               static_cast<int>(rng.uniform_int(400, 490)));
    default:
      return rng.uniform(-1.0, 1.0);
  }
}

TEST(MatrixTest, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m.fill(0.0);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);
}

TEST(MatrixTest, EmptyDefault) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

TEST(MatrixTest, RowAccess) {
  Matrix m(2, 2);
  m(1, 0) = 3.0;
  m(1, 1) = 4.0;
  auto row = m.row(1);
  EXPECT_DOUBLE_EQ(row[0], 3.0);
  EXPECT_DOUBLE_EQ(row[1], 4.0);
}

TEST(MatrixTest, MultiplyKnownValues) {
  Matrix m(2, 3);
  // [1 2 3; 4 5 6] * [1, 0, -1]^T = [-2, -2]
  m(0, 0) = 1; m(0, 1) = 2; m(0, 2) = 3;
  m(1, 0) = 4; m(1, 1) = 5; m(1, 2) = 6;
  Vector y(2);
  m.multiply(std::vector<double>{1.0, 0.0, -1.0}, y);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

// The gemv kernel vectorizes across rows in blocks with row and column
// tails; every shape around those block edges must reproduce the scalar
// recurrence bit for bit, on values that expose any reordering: signed
// zeros, subnormals and magnitudes far apart.
TEST(MatrixTest, MultiplyMatchesScalarRecurrenceBitForBit) {
  util::Rng rng(2016);
  const std::size_t kSizes[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 50};
  std::vector<std::size_t> row_counts(std::begin(kSizes), std::end(kSizes));
  std::vector<std::size_t> col_counts = row_counts;
  row_counts.push_back(51);
  col_counts.push_back(53);
  for (std::size_t rows : row_counts) {
    for (std::size_t cols : col_counts) {
      Matrix a(rows, cols);
      std::vector<double> x(cols);
      Vector y(rows);
      for (int trial = 0; trial < 20; ++trial) {
        for (double& w : a.flat()) w = draw_hostile(rng);
        for (double& v : x) v = draw_hostile(rng);
        a.multiply(x, y);
        const std::vector<double> expected = reference_multiply(a, x);
        const int cmp =
            std::memcmp(y.data(), expected.data(), rows * sizeof(double));
        ASSERT_EQ(cmp, 0) << rows << "x" << cols << " trial " << trial;
      }
    }
  }
}

TEST(MatrixTest, MultiplyDimensionMismatchThrows) {
  Matrix m(2, 3);
  Vector y(2);
  EXPECT_THROW(m.multiply(std::vector<double>{1.0}, y),
               std::invalid_argument);
  Vector short_y(1);
  EXPECT_THROW(m.multiply(std::vector<double>{1.0, 2.0, 3.0}, short_y),
               std::invalid_argument);
  // The kernel's operands are restrict-qualified: overlap is rejected.
  Matrix square(2, 2);
  Vector xy{1.0, 2.0};
  EXPECT_THROW(square.multiply(xy, xy), std::invalid_argument);
}

TEST(MatrixTest, BackpropUpdateInputGradIsTransposeProduct) {
  Matrix m(2, 3);
  m(0, 0) = 1; m(0, 1) = 2; m(0, 2) = 3;
  m(1, 0) = 4; m(1, 1) = 5; m(1, 2) = 6;
  // Pre-update m^T * [1, 2]^T = [9, 12, 15], whatever the update does.
  Vector input_grad(3, 0.0);
  m.backprop_update(std::vector<double>{1.0, 2.0},
                    std::vector<double>{0.5, -1.0, 2.0}, 0.25, input_grad);
  EXPECT_DOUBLE_EQ(input_grad[0], 9.0);
  EXPECT_DOUBLE_EQ(input_grad[1], 12.0);
  EXPECT_DOUBLE_EQ(input_grad[2], 15.0);
}

TEST(MatrixTest, BackpropUpdateAppliesScaledOuterProduct) {
  // Eq. 8: A(r, c) -= learning_rate * delta[r] * x[c]; rows with
  // delta == 0 stay untouched and add nothing to input_grad.
  Matrix m(3, 2, 1.0);
  Vector input_grad(2, 0.0);
  m.backprop_update(std::vector<double>{1.0, 0.0, 2.0},
                    std::vector<double>{3.0, 4.0}, 0.5, input_grad);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0 - 0.5 * 3.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 1.0 - 0.5 * 4.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(m(2, 0), 1.0 - 0.5 * 6.0);
  EXPECT_DOUBLE_EQ(m(2, 1), 1.0 - 0.5 * 8.0);
  EXPECT_DOUBLE_EQ(input_grad[0], 3.0);
  EXPECT_DOUBLE_EQ(input_grad[1], 3.0);
}

TEST(MatrixTest, BackpropUpdateShapeMismatchThrows) {
  Matrix m(2, 2);
  Vector input_grad(2, 0.0);
  EXPECT_THROW(m.backprop_update(std::vector<double>{1.0},
                                 std::vector<double>{1.0, 2.0}, 0.1,
                                 input_grad),
               std::invalid_argument);
  EXPECT_THROW(m.backprop_update(std::vector<double>{1.0, 2.0},
                                 std::vector<double>{1.0}, 0.1, input_grad),
               std::invalid_argument);
  Vector short_grad(1, 0.0);
  EXPECT_THROW(m.backprop_update(std::vector<double>{1.0, 2.0},
                                 std::vector<double>{1.0, 2.0}, 0.1,
                                 short_grad),
               std::invalid_argument);
  Vector shared{1.0, 2.0};
  EXPECT_THROW(m.backprop_update(std::vector<double>{1.0, 2.0}, shared, 0.1,
                                 shared),
               std::invalid_argument);
}

// The update-only sweep applies exactly the fused sweep's weight update
// (rows with delta == 0 stay untouched) and leaves no input gradient.
TEST(MatrixTest, UpdateRowsMatchesBackpropUpdateWeights) {
  util::Rng rng(5);
  Matrix fused = Matrix::xavier(7, 5, rng);
  Matrix update_only = fused;
  const std::vector<double> delta{0.5, 0.0, -1.25, 2.0, 0.0, -0.0, 0.75};
  const std::vector<double> x{0.25, 0.0, -2.0, 1.5, -0.0};
  Vector input_grad(5, 0.0);
  fused.backprop_update(delta, x, 0.05, input_grad);
  update_only.update_rows(delta, x, 0.05);
  const int cmp = std::memcmp(fused.flat().data(), update_only.flat().data(),
                              fused.size() * sizeof(double));
  EXPECT_EQ(cmp, 0);
}

TEST(MatrixTest, UpdateRowsShapeMismatchThrows) {
  Matrix m(2, 2);
  EXPECT_THROW(m.update_rows(std::vector<double>{1.0},
                             std::vector<double>{1.0, 2.0}, 0.1),
               std::invalid_argument);
  EXPECT_THROW(m.update_rows(std::vector<double>{1.0, 2.0},
                             std::vector<double>{1.0}, 0.1),
               std::invalid_argument);
  EXPECT_THROW(m.update_rows(std::vector<double>{1.0, 2.0}, m.row(0), 0.1),
               std::invalid_argument);
}

TEST(MatrixTest, XavierWithinLimit) {
  util::Rng rng(3);
  const Matrix m = Matrix::xavier(10, 20, rng);
  const double limit = std::sqrt(6.0 / 30.0);
  for (double x : m.flat()) {
    EXPECT_GE(x, -limit);
    EXPECT_LE(x, limit);
  }
}

TEST(MatrixTest, XavierNotAllZero) {
  util::Rng rng(3);
  const Matrix m = Matrix::xavier(5, 5, rng);
  double sum_abs = 0.0;
  for (double x : m.flat()) sum_abs += std::abs(x);
  EXPECT_GT(sum_abs, 0.0);
}

TEST(MatrixTest, MultiplyAccumulatesInDoublePrecision) {
  // Width-regression canary for the -Wconversion / CORP-FLT-001 wall:
  // the multiply accumulator must stay double. A narrowed float
  // accumulator collapses 1.0 + 2^-40 to exactly 1.0 (float carries 24
  // mantissa bits), so this test fails under any silent float rewrite.
  const double tiny = std::ldexp(1.0, -40);
  Matrix m(1, 2);
  m(0, 0) = 1.0;
  m(0, 1) = tiny;
  Vector y(1);
  m.multiply(std::vector<double>{1.0, 1.0}, y);
  EXPECT_GT(y[0], 1.0);
  EXPECT_DOUBLE_EQ(y[0] - 1.0, tiny);
}

TEST(MatrixTest, MultiplyBatchMatchesMultiplyBitExact) {
  // The GEMM path tiles over batch rows but must keep the scalar path's
  // per-element accumulation order, so every output is bit-identical to
  // multiply() on the same row. Sizes straddle the internal tile width.
  util::Rng rng(11);
  const Matrix weights = Matrix::xavier(7, 5, rng);
  for (std::size_t batch : {1u, 31u, 32u, 33u, 64u, 65u}) {
    Matrix inputs(batch, 5);
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t c = 0; c < 5; ++c) {
        inputs(n, c) = rng.uniform(-2.0, 2.0);
      }
    }
    const Matrix out = weights.multiply_batch(inputs);
    ASSERT_EQ(out.rows(), batch);
    ASSERT_EQ(out.cols(), 7u);
    Vector y(7);
    for (std::size_t n = 0; n < batch; ++n) {
      weights.multiply(inputs.row(n), y);
      for (std::size_t r = 0; r < 7; ++r) {
        EXPECT_EQ(out(n, r), y[r]) << "batch " << batch << " row " << n;
      }
    }
  }
}

TEST(MatrixTest, MultiplyBatchDimensionMismatchThrows) {
  Matrix m(2, 3);
  Matrix narrow(4, 2);
  EXPECT_THROW(m.multiply_batch(narrow), std::invalid_argument);
}

}  // namespace
}  // namespace corp::dnn
