#include "dnn/optimizer.hpp"

#include <gtest/gtest.h>

#include "dnn/loss.hpp"
#include "dnn/network.hpp"

namespace corp::dnn {
namespace {

TEST(SgdOptimizerTest, AppliesScaledGradient) {
  util::Rng rng(1);
  DenseLayer layer(1, 1, Activation::kIdentity, rng);
  layer.weights()(0, 0) = 1.0;
  layer.bias()[0] = 0.0;
  layer.grad_weights()(0, 0) = 2.0;
  layer.grad_bias()[0] = 4.0;
  SgdOptimizer opt(0.1);
  opt.bind({&layer});
  opt.step();
  EXPECT_NEAR(layer.weights()(0, 0), 1.0 - 0.1 * 2.0, 1e-12);
  EXPECT_NEAR(layer.bias()[0], -0.4, 1e-12);
}

TEST(SgdOptimizerTest, RejectsBadHyperparameters) {
  EXPECT_THROW(SgdOptimizer(0.0), std::invalid_argument);
  EXPECT_THROW(SgdOptimizer(-1.0), std::invalid_argument);
}

// Per-sample SGD must drive a tiny regression problem to low loss.
TEST(SgdOptimizerTest, LearnsLinearFunction) {
  util::Rng rng(7);
  NetworkConfig config;
  config.input_size = 2;
  config.hidden_layers = 1;
  config.hidden_units = 8;
  config.output_size = 1;
  Network net(config, rng);

  SgdOptimizer opt(0.05);
  opt.bind(net.layer_pointers());

  // Target: y = 0.3 x0 - 0.2 x1 + 0.1
  auto target_fn = [](double a, double b) { return 0.3 * a - 0.2 * b + 0.1; };
  util::Rng data_rng(11);
  double final_loss = 1.0;
  for (int epoch = 0; epoch < 400; ++epoch) {
    const double a = data_rng.uniform(-1, 1);
    const double b = data_rng.uniform(-1, 1);
    net.zero_grad();
    final_loss = net.train_sample(std::vector<double>{a, b},
                                  std::vector<double>{target_fn(a, b)});
    opt.step();
  }
  EXPECT_LT(final_loss, 0.01);
}

}  // namespace
}  // namespace corp::dnn
