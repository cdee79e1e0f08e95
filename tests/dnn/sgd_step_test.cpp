// The fused per-sample SGD step (DenseLayer::backward_step, its
// update-only twin update_step, Network::train_step) against a
// test-local copy of the three-pass step it replaced: zero the gradient
// buffers, accumulate delta x^T and W^T delta in separate passes, then
// apply W += (-mu) * G and b -= mu * g_b. Training is pinned bit for bit
// by the simulation goldens, so every weight, bias, returned
// dLoss/dInput and loss must match exactly (compared as bit patterns),
// step after step. The shapes include odd row counts so the row-blocked
// gemv and the vectorized update sweeps run their tails, inputs include
// exact zeros (the -0.0 products the contract in matrix.cpp reasons
// about), and saturated units give rows whose error term is exactly 0.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "dnn/activation.hpp"
#include "dnn/layer.hpp"
#include "dnn/loss.hpp"
#include "dnn/network.hpp"

namespace corp::dnn {
namespace {

/// The replaced layer, transcribed from the removed
/// Matrix::{multiply, multiply_transposed, add_outer, add_scaled},
/// DenseLayer::{forward, backward, zero_grad} and SgdOptimizer::step.
struct OracleLayer {
  std::size_t inputs;
  std::size_t outputs;
  Activation activation;
  std::vector<double> weights;  // outputs x inputs, row-major
  std::vector<double> bias;
  std::vector<double> grad_weights;
  std::vector<double> grad_bias;
  std::vector<double> last_input;
  std::vector<double> last_output;

  explicit OracleLayer(const DenseLayer& layer)
      : inputs(layer.inputs()),
        outputs(layer.outputs()),
        activation(layer.activation()),
        weights(layer.weights().flat().begin(), layer.weights().flat().end()),
        bias(layer.bias()),
        grad_weights(weights.size(), 0.0),
        grad_bias(bias.size(), 0.0) {}

  const std::vector<double>& forward(std::span<const double> input) {
    last_input.assign(input.begin(), input.end());
    std::vector<double> y(outputs, 0.0);
    for (std::size_t r = 0; r < outputs; ++r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < inputs; ++c) {
        acc += weights[r * inputs + c] * input[c];
      }
      y[r] = acc;
    }
    last_output = y;
    for (std::size_t i = 0; i < outputs; ++i) {
      last_output[i] = activate(activation, last_output[i] + bias[i]);
    }
    return last_output;
  }

  void zero_grad() {
    for (double& g : grad_weights) g = 0.0;
    for (double& g : grad_bias) g = 0.0;
  }

  std::vector<double> backward(std::span<const double> output_grad) {
    std::vector<double> delta(outputs);
    for (std::size_t i = 0; i < outputs; ++i) {
      delta[i] = output_grad[i] *
                 activate_derivative_from_output(activation, last_output[i]);
    }
    // add_outer(delta, last_input, 1.0)
    for (std::size_t r = 0; r < outputs; ++r) {
      const double ar = 1.0 * delta[r];
      if (ar == 0.0) continue;
      for (std::size_t c = 0; c < inputs; ++c) {
        grad_weights[r * inputs + c] += ar * last_input[c];
      }
    }
    for (std::size_t i = 0; i < outputs; ++i) grad_bias[i] += delta[i];
    // multiply_transposed(delta)
    std::vector<double> y(inputs, 0.0);
    for (std::size_t r = 0; r < outputs; ++r) {
      const double xr = delta[r];
      if (xr == 0.0) continue;
      for (std::size_t c = 0; c < inputs; ++c) {
        y[c] += xr * weights[r * inputs + c];
      }
    }
    return y;
  }

  void step(double learning_rate) {
    // add_scaled(grad_weights, -learning_rate)
    const double scale = -learning_rate;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      weights[i] += scale * grad_weights[i];
    }
    for (std::size_t i = 0; i < bias.size(); ++i) {
      bias[i] -= learning_rate * grad_bias[i];
    }
  }
};

/// The replaced Network::{zero_grad, train_sample} plus optimizer step.
struct OracleNetwork {
  std::vector<OracleLayer> layers;

  explicit OracleNetwork(const Network& net) {
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      layers.emplace_back(net.layer(i));
    }
  }

  double train_step(std::span<const double> input,
                    std::span<const double> target, double learning_rate) {
    for (OracleLayer& layer : layers) layer.zero_grad();
    std::vector<double> current(input.begin(), input.end());
    for (OracleLayer& layer : layers) current = layer.forward(current);
    const double loss = mse(current, target);
    std::vector<double> grad(current.size());
    mse_gradient(current, target, grad);
    for (auto it = layers.rbegin(); it != layers.rend(); ++it) {
      grad = it->backward(grad);
    }
    for (OracleLayer& layer : layers) layer.step(learning_rate);
    return loss;
  }
};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Index of the first element whose bits differ, or size when none does.
std::size_t first_mismatch(std::span<const double> a,
                           std::span<const double> b) {
  if (a.size() != b.size()) return 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return i;
  }
  return a.size();
}

void expect_layer_matches(const DenseLayer& fused, const OracleLayer& oracle,
                          const std::string& where) {
  const std::size_t w = first_mismatch(fused.weights().flat(), oracle.weights);
  EXPECT_EQ(w, oracle.weights.size()) << where << ": weight " << w;
  const std::size_t b = first_mismatch(fused.bias(), oracle.bias);
  EXPECT_EQ(b, oracle.bias.size()) << where << ": bias " << b;
}

/// Random inputs in [-1, 1] with about a quarter of the entries exactly
/// 0, so delta * x products of both signs of zero occur.
std::vector<double> draw_input(util::Rng& rng, std::size_t n) {
  std::vector<double> x(n);
  for (double& v : x) {
    v = rng.uniform(0.0, 1.0) < 0.25 ? 0.0 : rng.uniform(-1.0, 1.0);
  }
  return x;
}

constexpr std::size_t kSteps = 400;
constexpr double kRate = 0.05;

struct LayerShape {
  std::size_t inputs;
  std::size_t outputs;
  Activation activation;
};

// Names the instantiations (and gtest's GetParam() listing) by shape, not
// by the struct's raw bytes, whose padding is indeterminate.
void PrintTo(const LayerShape& shape, std::ostream* os) {
  *os << shape.inputs << "x" << shape.outputs
      << (shape.activation == Activation::kSigmoid ? "_sigmoid" : "_identity");
}

class SgdStepLayerTest : public ::testing::TestWithParam<LayerShape> {};

// One layer driven by arbitrary output gradients, a third of them exactly
// 0 (rows the old passes skipped): the returned dLoss/dInput and the
// updated parameters match the three passes at every step.
TEST_P(SgdStepLayerTest, MatchesThreePassStepBitForBit) {
  const LayerShape shape = GetParam();
  util::Rng rng(17 + shape.inputs * 31 + shape.outputs);
  DenseLayer fused(shape.inputs, shape.outputs, shape.activation, rng);
  OracleLayer oracle(fused);
  for (std::size_t step = 0; step < kSteps; ++step) {
    const std::vector<double> x = draw_input(rng, shape.inputs);
    std::vector<double> grad(shape.outputs);
    for (std::size_t r = 0; r < shape.outputs; ++r) {
      grad[r] = (r + step) % 3 == 0 ? 0.0 : rng.uniform(-1.0, 1.0);
    }
    const Vector out = fused.forward(x);
    const std::vector<double> oracle_out = oracle.forward(x);
    ASSERT_EQ(first_mismatch(out, oracle_out), out.size()) << "step " << step;

    const Vector input_grad = fused.backward_step(grad, kRate);
    oracle.zero_grad();
    const std::vector<double> oracle_grad = oracle.backward(grad);
    oracle.step(kRate);
    ASSERT_EQ(first_mismatch(input_grad, oracle_grad), input_grad.size())
        << "step " << step;
    expect_layer_matches(fused, oracle, "step " + std::to_string(step));
    if (HasFailure()) return;
  }
}

// The update-only step (for callers that discard dLoss/dInput) against
// the full step on a copy of the same layer: weights and biases match
// bit for bit at every step, zero error terms included.
TEST_P(SgdStepLayerTest, UpdateStepMatchesBackwardStepBitForBit) {
  const LayerShape shape = GetParam();
  util::Rng rng(23 + shape.inputs * 31 + shape.outputs);
  DenseLayer full(shape.inputs, shape.outputs, shape.activation, rng);
  DenseLayer update_only = full;
  for (std::size_t step = 0; step < kSteps; ++step) {
    const std::vector<double> x = draw_input(rng, shape.inputs);
    std::vector<double> grad(shape.outputs);
    for (std::size_t r = 0; r < shape.outputs; ++r) {
      grad[r] = (r + step) % 3 == 0 ? 0.0 : rng.uniform(-1.0, 1.0);
    }
    const Vector out = full.forward(x);
    const Vector update_out = update_only.forward(x);
    ASSERT_EQ(first_mismatch(out, update_out), out.size()) << "step " << step;
    full.backward_step(grad, kRate);
    update_only.update_step(grad, kRate);
    const std::size_t w =
        first_mismatch(update_only.weights().flat(), full.weights().flat());
    ASSERT_EQ(w, full.weights().size()) << "step " << step << ": weight " << w;
    const std::size_t b = first_mismatch(update_only.bias(), full.bias());
    ASSERT_EQ(b, full.bias().size()) << "step " << step << ": bias " << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SgdStepLayerTest,
    ::testing::Values(LayerShape{1, 1, Activation::kIdentity},
                      LayerShape{1, 1, Activation::kSigmoid},
                      LayerShape{3, 2, Activation::kIdentity},
                      LayerShape{3, 2, Activation::kSigmoid},
                      LayerShape{5, 7, Activation::kSigmoid},
                      LayerShape{50, 13, Activation::kSigmoid}),
    ::testing::PrintToStringParamName());

struct NetShape {
  std::size_t inputs;
  std::size_t hidden_layers;
  std::size_t hidden_units;
  std::size_t outputs;
};

void PrintTo(const NetShape& shape, std::ostream* os) {
  *os << shape.inputs << "_" << shape.hidden_layers << "x"
      << shape.hidden_units << "_" << shape.outputs;
}

class SgdStepNetworkTest : public ::testing::TestWithParam<NetShape> {};

// Whole networks: Network::train_step against the three passes over every
// layer, with one hidden unit saturated (its sigmoid output is exactly
// 1.0, so its error term is exactly 0 on every step).
TEST_P(SgdStepNetworkTest, MatchesThreePassStepBitForBit) {
  const NetShape shape = GetParam();
  util::Rng rng(29 + shape.inputs * 7 + shape.hidden_units);
  NetworkConfig config;
  config.input_size = shape.inputs;
  config.hidden_layers = shape.hidden_layers;
  config.hidden_units = shape.hidden_units;
  config.output_size = shape.outputs;
  Network fused(config, rng);
  fused.layer(0).bias()[shape.hidden_units - 1] = 60.0;
  OracleNetwork oracle(fused);

  for (std::size_t step = 0; step < kSteps; ++step) {
    const std::vector<double> x = draw_input(rng, shape.inputs);
    std::vector<double> target(shape.outputs);
    for (double& t : target) t = rng.uniform(-0.5, 0.5);
    const double loss = fused.train_step(x, target, kRate);
    const double oracle_loss = oracle.train_step(x, target, kRate);
    ASSERT_TRUE(same_bits(loss, oracle_loss))
        << "step " << step << ": " << loss << " vs " << oracle_loss;
    for (std::size_t li = 0; li < fused.layer_count(); ++li) {
      expect_layer_matches(fused.layer(li), oracle.layers[li],
                           "step " + std::to_string(step) + " layer " +
                               std::to_string(li));
    }
    if (HasFailure()) return;
  }
  // The saturated unit really produced zero error terms: its bias never
  // moved.
  EXPECT_EQ(fused.layer(0).bias()[shape.hidden_units - 1], 60.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SgdStepNetworkTest,
    ::testing::Values(NetShape{1, 1, 1, 1}, NetShape{2, 2, 8, 1},
                      NetShape{5, 3, 7, 3}, NetShape{12, 4, 50, 1}),
    ::testing::PrintToStringParamName());

// Steps the layerwise pretraining pair (encoder, transient identity
// decoder) against the three passes: the decoder's fused step runs
// before the encoder's step, where the old code ran both backward passes
// and then one optimizer step over both layers. The encoder takes the
// full step, whose dLoss/dInput must match too, or the update-only step.
void expect_pretrain_pair_matches(std::uint64_t seed,
                                  bool update_only_encoder) {
  util::Rng rng(seed);
  DenseLayer enc(12, 50, Activation::kSigmoid, rng);
  DenseLayer dec(50, 12, Activation::kIdentity, rng);
  OracleLayer oracle_enc(enc);
  OracleLayer oracle_dec(dec);
  Vector recon_grad(12);
  for (std::size_t step = 0; step < kSteps; ++step) {
    const std::vector<double> x = draw_input(rng, 12);
    const Vector& code = enc.forward(x);
    const Vector& recon = dec.forward(code);
    mse_gradient(recon, x, recon_grad);
    const Vector code_grad = dec.backward_step(recon_grad, kRate);
    Vector input_grad;
    if (update_only_encoder) {
      enc.update_step(code_grad, kRate);
    } else {
      input_grad = enc.backward_step(code_grad, kRate);
    }

    oracle_enc.zero_grad();
    oracle_dec.zero_grad();
    const std::vector<double>& oracle_code = oracle_enc.forward(x);
    const std::vector<double> oracle_recon = oracle_dec.forward(oracle_code);
    std::vector<double> oracle_recon_grad(12);
    mse_gradient(oracle_recon, x, oracle_recon_grad);
    const std::vector<double> oracle_code_grad =
        oracle_dec.backward(oracle_recon_grad);
    const std::vector<double> oracle_input_grad =
        oracle_enc.backward(oracle_code_grad);
    oracle_enc.step(kRate);
    oracle_dec.step(kRate);

    ASSERT_EQ(first_mismatch(code_grad, oracle_code_grad), code_grad.size())
        << "step " << step;
    if (!update_only_encoder) {
      ASSERT_EQ(first_mismatch(input_grad, oracle_input_grad),
                input_grad.size())
          << "step " << step;
    }
    expect_layer_matches(enc, oracle_enc,
                         "encoder step " + std::to_string(step));
    expect_layer_matches(dec, oracle_dec,
                         "decoder step " + std::to_string(step));
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(SgdStepPretrainTest, EncoderDecoderPairMatchesThreePassStep) {
  expect_pretrain_pair_matches(41, /*update_only_encoder=*/false);
}

// The pair stepped the way Trainer::pretrain does: the encoder's
// dLoss/dInput has no reader, so it takes the update-only step.
TEST(SgdStepPretrainTest, EncoderUpdateStepMatchesThreePassStep) {
  expect_pretrain_pair_matches(43, /*update_only_encoder=*/true);
}

// Eq. 8 with known numbers: delta = 4 * F'(.) = 4 for an identity unit
// and input 0.5, so w -= 0.1 * 4 * 0.5 and e -= 0.1 * 4.
TEST(SgdOptimizerTest, AppliesScaledGradient) {
  util::Rng rng(1);
  DenseLayer layer(1, 1, Activation::kIdentity, rng);
  layer.weights()(0, 0) = 1.0;
  layer.bias()[0] = 0.0;
  layer.forward(std::vector<double>{0.5});
  layer.backward_step(std::vector<double>{4.0}, 0.1);
  EXPECT_NEAR(layer.weights()(0, 0), 1.0 - 0.1 * 2.0, 1e-12);
  EXPECT_NEAR(layer.bias()[0], -0.4, 1e-12);
}

TEST(SgdOptimizerTest, RejectsBadHyperparameters) {
  util::Rng rng(1);
  NetworkConfig config;
  config.input_size = 2;
  config.hidden_layers = 1;
  config.hidden_units = 3;
  Network net(config, rng);
  const Network untouched = net;
  const std::vector<double> x{0.1, 0.2};
  const std::vector<double> t{0.3};
  EXPECT_THROW(net.train_step(x, t, 0.0), std::invalid_argument);
  EXPECT_THROW(net.train_step(x, t, -1.0), std::invalid_argument);
  // A rejected step leaves every parameter as it was.
  for (std::size_t li = 0; li < net.layer_count(); ++li) {
    EXPECT_EQ(net.layer(li).weights(), untouched.layer(li).weights());
    EXPECT_EQ(net.layer(li).bias(), untouched.layer(li).bias());
  }
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

  // Target: y = 0.3 x0 - 0.2 x1 + 0.1
  auto target_fn = [](double a, double b) { return 0.3 * a - 0.2 * b + 0.1; };
  util::Rng data_rng(11);
  double final_loss = 1.0;
  for (int epoch = 0; epoch < 400; ++epoch) {
    const double a = data_rng.uniform(-1, 1);
    const double b = data_rng.uniform(-1, 1);
    final_loss = net.train_step(std::vector<double>{a, b},
                                std::vector<double>{target_fn(a, b)}, 0.05);
  }
  EXPECT_LT(final_loss, 0.01);
}

}  // namespace
}  // namespace corp::dnn
