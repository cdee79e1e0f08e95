#include "dnn/network.hpp"

#include <gtest/gtest.h>

#include "dnn/loss.hpp"

namespace corp::dnn {
namespace {

NetworkConfig paper_config() {
  NetworkConfig config;
  config.input_size = 12;
  config.output_size = 1;
  config.hidden_layers = 4;   // Table II
  config.hidden_units = 50;   // Table II
  return config;
}

TEST(NetworkTest, PaperArchitectureShapes) {
  util::Rng rng(1);
  Network net(paper_config(), rng);
  EXPECT_EQ(net.layer_count(), 5u);  // 4 hidden + output head
  EXPECT_EQ(net.layer(0).inputs(), 12u);
  EXPECT_EQ(net.layer(0).outputs(), 50u);
  EXPECT_EQ(net.layer(4).inputs(), 50u);
  EXPECT_EQ(net.layer(4).outputs(), 1u);
  EXPECT_EQ(net.layer(0).activation(), Activation::kSigmoid);
  EXPECT_EQ(net.layer(4).activation(), Activation::kIdentity);
}

TEST(NetworkTest, ParameterCount) {
  util::Rng rng(1);
  Network net(paper_config(), rng);
  const std::size_t expected = (12 * 50 + 50) + 3 * (50 * 50 + 50) +
                               (50 * 1 + 1);
  EXPECT_EQ(net.parameter_count(), expected);
}

TEST(NetworkTest, RejectsInvalidConfigs) {
  util::Rng rng(1);
  NetworkConfig config = paper_config();
  config.input_size = 0;
  EXPECT_THROW(Network(config, rng), std::invalid_argument);
  config = paper_config();
  config.hidden_layers = 0;
  EXPECT_THROW(Network(config, rng), std::invalid_argument);
}

TEST(NetworkTest, ForwardDeterministic) {
  util::Rng rng(1);
  Network net(paper_config(), rng);
  const std::vector<double> input(12, 0.5);
  const Vector a = net.predict(input);
  const Vector b = net.predict(input);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_DOUBLE_EQ(a[0], b[0]);
}

TEST(NetworkTest, TrainSampleRejectsWrongTargetSize) {
  util::Rng rng(1);
  Network net(paper_config(), rng);
  EXPECT_THROW(net.train_step(std::vector<double>(12, 0.1),
                              std::vector<double>{1.0, 2.0}, 0.05),
               std::invalid_argument);
}

// The update train_step applies to every layer, (W_before - W_after) / mu,
// must match central differences of the whole network's loss taken at
// the pre-update weights.
TEST(NetworkTest, FullNetworkGradientCheck) {
  util::Rng rng(13);
  NetworkConfig config;
  config.input_size = 3;
  config.hidden_layers = 2;
  config.hidden_units = 4;
  config.output_size = 2;
  Network net(config, rng);
  const std::vector<double> input{0.2, -0.4, 0.9};
  const std::vector<double> target{0.3, 0.7};
  constexpr double kRate = 0.1;

  Network before = net;
  net.train_step(input, target, kRate);

  const double h = 1e-6;
  for (std::size_t li = 0; li < before.layer_count(); ++li) {
    DenseLayer& layer = before.layer(li);
    // Check a handful of weights per layer (corner + middle).
    const std::size_t rows = layer.outputs();
    const std::size_t cols = layer.inputs();
    const std::pair<std::size_t, std::size_t> picks[] = {
        {0, 0}, {rows - 1, cols - 1}, {rows / 2, cols / 2}};
    for (const auto& [r, c] : picks) {
      const double orig = layer.weights()(r, c);
      layer.weights()(r, c) = orig + h;
      const double lp = mse(before.predict(input), target);
      layer.weights()(r, c) = orig - h;
      const double lm = mse(before.predict(input), target);
      layer.weights()(r, c) = orig;
      const double applied = (orig - net.layer(li).weights()(r, c)) / kRate;
      EXPECT_NEAR(applied, (lp - lm) / (2 * h), 1e-5)
          << "layer " << li << " weight (" << r << "," << c << ")";
    }
  }
}

TEST(NetworkTest, LearnsXorShapedProblem) {
  // A nonlinear problem a linear model cannot fit: XOR on {0,1}^2.
  util::Rng rng(3);
  NetworkConfig config;
  config.input_size = 2;
  config.hidden_layers = 2;
  config.hidden_units = 8;
  config.output_size = 1;
  Network net(config, rng);

  const double xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const double ys[4] = {0, 1, 1, 0};
  for (int epoch = 0; epoch < 2000; ++epoch) {
    for (int s = 0; s < 4; ++s) {
      net.train_step(std::vector<double>{xs[s][0], xs[s][1]},
                     std::vector<double>{ys[s]}, 0.3);
    }
  }
  for (int s = 0; s < 4; ++s) {
    const Vector out =
        net.predict(std::vector<double>{xs[s][0], xs[s][1]});
    EXPECT_NEAR(out[0], ys[s], 0.25) << "sample " << s;
  }
}

}  // namespace
}  // namespace corp::dnn
