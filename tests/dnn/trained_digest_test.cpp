// Golden pins of a whole DNN fit. Trainer::fit with autoencoder
// pretraining runs on a fixed, seeded corpus, and every bit it produces
// is folded into one 64-bit digest: each layer's weights and biases, the
// epoch count, the convergence flag, the final train and best
// validation losses and the validation curve. The per-kernel suites
// compare the kernels with reference transcriptions; these pins catch a
// change that moves the trained network by any route, including the
// pretraining pass and the batched validation sweep.
//
// A mismatch prints the actual digest. Replace the constant only after
// showing that the change is meant to move the trained weights.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "dnn/network.hpp"
#include "dnn/trainer.hpp"
#include "util/rng.hpp"

namespace corp::dnn {
namespace {

/// Order-sensitive running hash over bit patterns.
class Digest {
 public:
  void mix(std::uint64_t v) {
    state_ = util::splitmix64_mix(state_ ^ (v + util::kSplitMix64Gamma));
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0;
};

/// A noisy two-tone utilization series clamped to [0, 1]: about a tenth
/// of the samples clamp to exactly 0.0, so inputs carry exact zeros.
std::vector<double> corpus_series(std::size_t length, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> series(length);
  for (std::size_t i = 0; i < length; ++i) {
    const double t = static_cast<double>(i);
    const double v = 0.4 + 0.3 * std::sin(0.21 * t) +
                     0.1 * std::sin(0.047 * t) + rng.normal(0.0, 0.05);
    series[i] = std::clamp(v, 0.0, 1.0);
  }
  return series;
}

std::uint64_t fit_digest(const NetworkConfig& config, std::size_t horizon,
                         std::uint64_t seed) {
  const std::vector<double> series = corpus_series(700, seed);
  const Dataset data =
      make_windowed_dataset(series, config.input_size, horizon);
  util::Rng rng(seed + 1);
  Network net(config, rng);
  Trainer trainer(TrainerConfig{}, rng);
  const TrainReport report = trainer.fit(net, 0.05, data);

  Digest digest;
  for (std::size_t li = 0; li < net.layer_count(); ++li) {
    const DenseLayer& layer = net.layer(li);
    for (double w : layer.weights().flat()) digest.mix(w);
    for (double b : layer.bias()) digest.mix(b);
  }
  digest.mix(std::uint64_t{report.epochs_run});
  digest.mix(std::uint64_t{report.converged ? 1u : 0u});
  digest.mix(report.final_train_loss);
  digest.mix(report.best_validation_loss);
  digest.mix(std::uint64_t{report.validation_curve.size()});
  for (double loss : report.validation_curve) digest.mix(loss);
  return digest.value();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// The paper's predictor: Table II's 12 -> 4 x 50 sigmoid -> 1 net.
TEST(TrainedDigestTest, TableTwoNetwork) {
  const std::uint64_t actual = fit_digest(NetworkConfig{}, 6, 2016);
  EXPECT_EQ(hex(actual), "0xc5e680890311dd51");
}

// Odd widths everywhere, so every gemv and update sweep runs its row
// and column tails: 7 -> 2 x 13 sigmoid -> 1.
TEST(TrainedDigestTest, OddWidthNetwork) {
  NetworkConfig config;
  config.input_size = 7;
  config.hidden_layers = 2;
  config.hidden_units = 13;
  const std::uint64_t actual = fit_digest(config, 3, 77);
  EXPECT_EQ(hex(actual), "0x96679d9ada686431");
}

}  // namespace
}  // namespace corp::dnn
