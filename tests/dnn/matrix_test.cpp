#include "dnn/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace corp::dnn {
namespace {

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

TEST(VectorOpsTest, AxpyAndDot) {
  std::vector<double> y{1.0, 2.0};
  axpy(2.0, std::vector<double>{3.0, 4.0}, y);
  EXPECT_DOUBLE_EQ(y[0], 7.0);
  EXPECT_DOUBLE_EQ(y[1], 10.0);
  EXPECT_DOUBLE_EQ(
      dot(std::vector<double>{1.0, 2.0}, std::vector<double>{3.0, 4.0}),
      11.0);
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

TEST(VectorOpsTest, DotKeepsDoublePrecision) {
  // Same canary for the shared dot() kernel used by the DNN layers.
  const double tiny = std::ldexp(1.0, -40);
  const double s = dot(std::vector<double>{1.0, tiny},
                       std::vector<double>{1.0, 1.0});
  EXPECT_GT(s, 1.0);
  EXPECT_DOUBLE_EQ(s - 1.0, tiny);
}

}  // namespace
}  // namespace corp::dnn
