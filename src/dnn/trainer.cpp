#include "dnn/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace corp::dnn {

namespace {
/// Chronological hold-out share of every fit.
constexpr double kValidationFraction = 0.2;
/// SGD rate of the layerwise autoencoder pretraining.
constexpr double kPretrainLearningRate = 0.05;
/// Held-out rows per forward_batch() call: bounds the activations one
/// validation pass allocates (rows x hidden units per layer) whatever the
/// dataset size.
constexpr std::size_t kEvaluateChunkRows = 1024;

/// Samples [begin, end) of `data` packed into forward_batch() inputs of
/// at most kEvaluateChunkRows rows each.
std::vector<Matrix> pack_inputs(const Dataset& data, std::size_t begin,
                                std::size_t end) {
  std::vector<Matrix> chunks;
  if (begin >= end) return chunks;
  chunks.reserve((end - begin + kEvaluateChunkRows - 1) / kEvaluateChunkRows);
  const std::size_t width = data.inputs[begin].size();
  for (std::size_t first = begin; first < end; first += kEvaluateChunkRows) {
    const std::size_t rows = std::min(kEvaluateChunkRows, end - first);
    Matrix& chunk = chunks.emplace_back(rows, width);
    for (std::size_t k = 0; k < rows; ++k) {
      const Vector& input = data.inputs[first + k];
      std::copy(input.begin(), input.end(), chunk.row(k).begin());
    }
  }
  return chunks;
}

/// Mean sample loss over the samples packed in `chunks`, the first of
/// which is data sample `begin`; losses are summed in sample order, so
/// the result is bit-identical to a per-sample predict() sweep.
double mean_loss(const Network& network, const std::vector<Matrix>& chunks,
                 const Dataset& data, std::size_t begin) {
  double total = 0.0;
  std::size_t sample = begin;
  for (const Matrix& chunk : chunks) {
    const Matrix out = network.forward_batch(chunk);
    for (std::size_t k = 0; k < out.rows(); ++k, ++sample) {
      total += mse(out.row(k), data.targets[sample]);
    }
  }
  return total / static_cast<double>(sample - begin);
}

}  // namespace

bool Dataset::consistent() const {
  if (inputs.size() != targets.size()) return false;
  if (inputs.empty()) return true;
  const std::size_t in_w = inputs.front().size();
  const std::size_t out_w = targets.front().size();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].size() != in_w || targets[i].size() != out_w) return false;
  }
  return true;
}

std::size_t Dataset::validation_start(double fraction) const {
  const double f = std::clamp(fraction, 0.0, 0.9);
  const auto val_count =
      static_cast<std::size_t>(static_cast<double>(size()) * f);
  return size() - val_count;
}

Trainer::Trainer(TrainerConfig config, util::Rng& rng)
    : config_(config), rng_(rng) {}

double Trainer::evaluate(const Network& network, const Dataset& data) {
  if (data.size() == 0) return 0.0;
  return mean_loss(network, pack_inputs(data, 0, data.size()), data, 0);
}

void Trainer::pretrain(Network& network, const Dataset& data,
                       std::size_t count) {
  if (config_.pretrain_epochs == 0 || count == 0) return;
  // Greedy layerwise: feed each sample through the already-pretrained
  // prefix, then train (layer, transient decoder) to reconstruct the
  // prefix output.
  const std::size_t hidden = network.layer_count() - 1;  // skip output head
  Vector recon_grad;
  for (std::size_t li = 0; li < hidden; ++li) {
    DenseLayer& enc = network.layer(li);
    DenseLayer dec(enc.outputs(), enc.inputs(), Activation::kIdentity, rng_);
    recon_grad.resize(enc.inputs());
    for (std::size_t epoch = 0; epoch < config_.pretrain_epochs; ++epoch) {
      for (std::size_t s = 0; s < count; ++s) {
        // Propagate through the frozen prefix; `x` views the last prefix
        // layer's cached output, which enc and dec never touch.
        std::span<const double> x = data.inputs[s];
        for (std::size_t p = 0; p < li; ++p) {
          x = network.layer(p).forward(x);
        }
        const Vector& code = enc.forward(x);
        const Vector& recon = dec.forward(code);
        mse_gradient(recon, x, recon_grad);
        // The decoder updates before the encoder steps; the encoder
        // never reads decoder weights, so the order is invisible. Nothing
        // reads the encoder's dLoss/dInput, so it takes the update-only
        // step.
        const Vector& code_grad =
            dec.backward_step(recon_grad, kPretrainLearningRate);
        enc.update_step(code_grad, kPretrainLearningRate);
      }
    }
  }
}

TrainReport Trainer::fit(Network& network, double learning_rate,
                         const Dataset& data) {
  const obs::ScopedTimer fit_timer("dnn.fit");
  if (!(learning_rate > 0.0)) {
    throw std::invalid_argument("Trainer::fit: learning_rate must be > 0");
  }
  if (!data.consistent()) {
    throw std::invalid_argument("Trainer::fit: inconsistent dataset");
  }
  TrainReport report;
  if (data.size() == 0) return report;

  // Samples [0, train_count) train; the chronological tail validates,
  // its inputs packed for the batched forward pass once per fit.
  const std::size_t train_count = data.validation_start(kValidationFraction);
  {
    const obs::ScopedTimer pretrain_timer("dnn.pretrain");
    pretrain(network, data, train_count);
  }
  const std::vector<Matrix> val_inputs =
      pack_inputs(data, train_count, data.size());

  // Hoisted metric handles: one registry lookup per fit, not per epoch.
  // Each epoch's SGD steps add to dnn.fine_tune and its validation pass
  // to dnn.validate.
  obs::MetricRegistry& reg = obs::registry();
  const bool metrics = reg.enabled();
  obs::Histogram* epoch_ms = metrics ? &reg.histogram("dnn.epoch_ms") : nullptr;
  obs::PhaseStat* fine_tune = metrics ? &reg.phase("dnn.fine_tune") : nullptr;
  obs::PhaseStat* validate = metrics ? &reg.phase("dnn.validate") : nullptr;
  obs::Counter* sgd_steps = metrics ? &reg.counter("dnn.sgd_steps") : nullptr;
  obs::Counter* epochs_run = metrics ? &reg.counter("dnn.epochs") : nullptr;

  using Ms = std::chrono::duration<double, std::milli>;
  double best_val = std::numeric_limits<double>::infinity();
  std::size_t since_best = 0;
  for (std::size_t epoch = 0; epoch < config_.max_epochs; ++epoch) {
    const auto epoch_start = std::chrono::steady_clock::now();
    const std::vector<std::size_t> order = rng_.permutation(train_count);
    double train_loss = 0.0;
    for (std::size_t idx : order) {
      train_loss += network.train_step(data.inputs[idx], data.targets[idx],
                                       learning_rate);
    }
    const auto steps_end =
        metrics ? std::chrono::steady_clock::now() : epoch_start;
    report.final_train_loss = train_loss / static_cast<double>(train_count);
    const double val_loss =
        val_inputs.empty()
            ? report.final_train_loss
            : mean_loss(network, val_inputs, data, train_count);
    report.validation_curve.push_back(val_loss);
    report.epochs_run = epoch + 1;

    if (metrics) {
      const auto epoch_end = std::chrono::steady_clock::now();
      epoch_ms->observe(Ms(epoch_end - epoch_start).count());
      fine_tune->add(Ms(steps_end - epoch_start).count());
      validate->add(Ms(epoch_end - steps_end).count());
      sgd_steps->add(order.size());
      epochs_run->add(1);
      obs::set_gauge("dnn.epoch_train_loss", report.final_train_loss);
      obs::set_gauge("dnn.epoch_validation_loss", val_loss);
    }

    if (val_loss < best_val - config_.min_delta) {
      best_val = val_loss;
      since_best = 0;
    } else if (++since_best >= config_.patience) {
      report.converged = true;
      break;
    }
  }
  report.best_validation_loss = best_val;
  if (metrics) {
    reg.counter("dnn.fits").add(1);
    if (report.converged) reg.counter("dnn.fits_converged").add(1);
    obs::set_gauge("dnn.best_validation_loss", report.best_validation_loss);
  }
  return report;
}

Dataset make_windowed_dataset(std::span<const double> series,
                              std::size_t history, std::size_t horizon) {
  Dataset data;
  if (history == 0 || horizon == 0) {
    throw std::invalid_argument("make_windowed_dataset: history and horizon must be > 0");
  }
  if (series.size() < history + horizon) return data;
  const std::size_t count = series.size() - history - horizon + 1;
  data.inputs.reserve(count);
  data.targets.reserve(count);
  for (std::size_t start = 0; start < count; ++start) {
    Vector input(series.begin() + start, series.begin() + start + history);
    data.inputs.push_back(std::move(input));
    double window_mean = 0.0;
    for (std::size_t h = 0; h < horizon; ++h) {
      window_mean += series[start + history + h];
    }
    window_mean /= static_cast<double>(horizon);
    data.targets.push_back({window_mean});
  }
  return data;
}

}  // namespace corp::dnn
