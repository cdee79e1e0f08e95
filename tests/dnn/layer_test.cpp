#include "dnn/layer.hpp"

#include <gtest/gtest.h>

#include "dnn/loss.hpp"

namespace corp::dnn {
namespace {

TEST(DenseLayerTest, ShapesAndParameterCount) {
  util::Rng rng(1);
  DenseLayer layer(4, 3, Activation::kSigmoid, rng);
  EXPECT_EQ(layer.inputs(), 4u);
  EXPECT_EQ(layer.outputs(), 3u);
  EXPECT_EQ(layer.parameter_count(), 4u * 3u + 3u);
}

TEST(DenseLayerTest, RejectsZeroSizes) {
  util::Rng rng(1);
  EXPECT_THROW(DenseLayer(0, 3, Activation::kSigmoid, rng),
               std::invalid_argument);
  EXPECT_THROW(DenseLayer(3, 0, Activation::kSigmoid, rng),
               std::invalid_argument);
}

TEST(DenseLayerTest, ForwardComputesEq5) {
  util::Rng rng(1);
  DenseLayer layer(2, 1, Activation::kIdentity, rng);
  layer.weights()(0, 0) = 2.0;
  layer.weights()(0, 1) = -1.0;
  layer.bias()[0] = 0.5;
  const Vector& out = layer.forward(std::vector<double>{3.0, 1.0});
  // 2*3 - 1*1 + 0.5 = 5.5
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0], 5.5);
}

TEST(DenseLayerTest, ForwardWrongSizeThrows) {
  util::Rng rng(1);
  DenseLayer layer(2, 1, Activation::kIdentity, rng);
  EXPECT_THROW(layer.forward(std::vector<double>{1.0}),
               std::invalid_argument);
}

TEST(DenseLayerTest, BackwardBeforeForwardThrows) {
  util::Rng rng(1);
  DenseLayer layer(2, 1, Activation::kIdentity, rng);
  EXPECT_THROW(layer.backward_step(std::vector<double>{1.0}, 0.1),
               std::logic_error);
}

// Numerical gradient check of the fused step: the update it applies,
// (W_before - W_after) / mu (likewise for biases), and the dLoss/dInput it
// returns must match central differences of 0.5*(t - g)^2 taken at the
// pre-update parameters.
TEST(DenseLayerTest, GradientsMatchFiniteDifferences) {
  util::Rng rng(42);
  DenseLayer layer(3, 2, Activation::kSigmoid, rng);
  const std::vector<double> input{0.3, -0.7, 1.1};
  const std::vector<double> target{0.6, 0.2};
  constexpr double kRate = 0.1;

  DenseLayer before = layer;
  auto loss_of = [&](DenseLayer& l) {
    const Vector out = l.forward(input);
    return mse(out, target);
  };

  // Analytic step on `layer`; `before` keeps the pre-update parameters.
  const Vector out = layer.forward(input);
  Vector grad(out.size());
  mse_gradient(out, target, grad);
  const Vector input_grad = layer.backward_step(grad, kRate);

  const double h = 1e-6;
  // Weights.
  for (std::size_t r = 0; r < before.outputs(); ++r) {
    for (std::size_t c = 0; c < before.inputs(); ++c) {
      const double orig = before.weights()(r, c);
      before.weights()(r, c) = orig + h;
      const double lp = loss_of(before);
      before.weights()(r, c) = orig - h;
      const double lm = loss_of(before);
      before.weights()(r, c) = orig;
      const double applied = (orig - layer.weights()(r, c)) / kRate;
      EXPECT_NEAR(applied, (lp - lm) / (2 * h), 1e-6)
          << "weight (" << r << "," << c << ")";
    }
  }
  // Biases.
  for (std::size_t r = 0; r < before.outputs(); ++r) {
    const double orig = before.bias()[r];
    before.bias()[r] = orig + h;
    const double lp = loss_of(before);
    before.bias()[r] = orig - h;
    const double lm = loss_of(before);
    before.bias()[r] = orig;
    const double applied = (orig - layer.bias()[r]) / kRate;
    EXPECT_NEAR(applied, (lp - lm) / (2 * h), 1e-6) << "bias " << r;
  }
  // Inputs (Eq. 7 back-propagated error terms).
  for (std::size_t c = 0; c < before.inputs(); ++c) {
    std::vector<double> ip = input, im = input;
    ip[c] += h;
    im[c] -= h;
    const double lp = mse(before.forward(ip), target);
    const double lm = mse(before.forward(im), target);
    EXPECT_NEAR(input_grad[c], (lp - lm) / (2 * h), 1e-6) << "input " << c;
  }
}

}  // namespace
}  // namespace corp::dnn
