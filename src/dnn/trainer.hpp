// Training loop: per-sample SGD epochs with a held-out validation set and
// convergence-based stopping, exactly the procedure of Sec. III-A1a
// ("training continues for multiple training epochs ... until the
// validation set error converges to a low value"), plus the autoencoder
// pretraining step the testing description alludes to ("the algorithm
// autoencodes the input and generates the output").
#pragma once

#include <cstddef>
#include <vector>

#include "dnn/network.hpp"
#include "util/rng.hpp"

namespace corp::dnn {

/// Supervised dataset of fixed-width rows.
struct Dataset {
  std::vector<Vector> inputs;
  std::vector<Vector> targets;

  std::size_t size() const { return inputs.size(); }
  bool consistent() const;

  /// Index of the first validation sample when the last `fraction`
  /// (clamped to [0, 0.9]) of the samples is held out: a chronological
  /// split, so time-series data never leaks future into past. Samples
  /// [0, result) train; at least one does whenever the set is non-empty.
  std::size_t validation_start(double fraction) const;
};

struct TrainerConfig {
  std::size_t max_epochs = 60;
  /// Stop when validation loss has not improved by more than min_delta for
  /// `patience` consecutive epochs.
  std::size_t patience = 5;
  double min_delta = 1e-6;
  /// Epochs of layerwise autoencoder pretraining before supervised
  /// training (0 disables).
  std::size_t pretrain_epochs = 3;
};

struct TrainReport {
  std::size_t epochs_run = 0;
  double final_train_loss = 0.0;
  double best_validation_loss = 0.0;
  bool converged = false;  // stopped via patience rather than max_epochs
  std::vector<double> validation_curve;
};

class Trainer {
 public:
  Trainer(TrainerConfig config, util::Rng& rng);

  /// Trains the network in place by per-sample SGD at `learning_rate`
  /// (the mu of Eq. 8; must be > 0). The last 20% of the samples are held
  /// out for validation, and the training order is reshuffled every
  /// epoch.
  TrainReport fit(Network& network, double learning_rate,
                  const Dataset& data);

  /// Mean loss of the network over a dataset without updating weights:
  /// one batched forward pass (Network::forward_batch), with the sample
  /// losses summed in sample order.
  static double evaluate(const Network& network, const Dataset& data);

 private:
  /// Greedy layerwise denoising-free autoencoder pretraining over the
  /// first `count` samples: each hidden layer is trained to reconstruct
  /// its input through a transient decoder before the supervised pass.
  void pretrain(Network& network, const Dataset& data, std::size_t count);

  TrainerConfig config_;
  util::Rng& rng_;
};

/// Builds a sliding-window dataset from a chronological series: input =
/// `history` consecutive samples, target = the *mean* of the next
/// `horizon` samples. The standard shape for the unused-resource
/// predictor (input: last Delta slots; target: unused amount over the
/// next window (t, t+L] — the window-level quantity Sec. III-A predicts;
/// a single far slot would be dominated by irreducible per-slot noise).
Dataset make_windowed_dataset(std::span<const double> series,
                              std::size_t history, std::size_t horizon);

}  // namespace corp::dnn
