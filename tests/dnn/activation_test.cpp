#include "dnn/activation.hpp"

#include <gtest/gtest.h>

namespace corp::dnn {
namespace {

TEST(ActivationTest, SigmoidValues) {
  EXPECT_DOUBLE_EQ(activate(Activation::kSigmoid, 0.0), 0.5);
  EXPECT_NEAR(activate(Activation::kSigmoid, 100.0), 1.0, 1e-12);
  EXPECT_NEAR(activate(Activation::kSigmoid, -100.0), 0.0, 1e-12);
}

TEST(ActivationTest, IdentityPassesThrough) {
  EXPECT_DOUBLE_EQ(activate(Activation::kIdentity, -7.5), -7.5);
}

TEST(ActivationTest, DerivativesFromOutput) {
  // sigmoid'(0) = 0.25, expressed via y = 0.5.
  EXPECT_DOUBLE_EQ(
      activate_derivative_from_output(Activation::kSigmoid, 0.5), 0.25);
  EXPECT_DOUBLE_EQ(
      activate_derivative_from_output(Activation::kIdentity, 123.0), 1.0);
}

// Property: the output-based derivative matches the finite difference of
// the forward function for every activation kind.
class ActivationGradTest : public ::testing::TestWithParam<Activation> {};

TEST_P(ActivationGradTest, DerivativeMatchesFiniteDifference) {
  const Activation a = GetParam();
  for (double x : {-1.5, -0.3, 0.2, 0.9, 2.0}) {
    const double h = 1e-6;
    const double fd =
        (activate(a, x + h) - activate(a, x - h)) / (2.0 * h);
    const double y = activate(a, x);
    EXPECT_NEAR(activate_derivative_from_output(a, y), fd, 1e-5)
        << "x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(AllActivations, ActivationGradTest,
                         ::testing::Values(Activation::kSigmoid,
                                           Activation::kIdentity));

}  // namespace
}  // namespace corp::dnn
