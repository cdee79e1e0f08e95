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

std::pair<Dataset, Dataset> Dataset::split_validation(double fraction) const {
  Dataset train, val;
  const double f = std::clamp(fraction, 0.0, 0.9);
  const auto val_count =
      static_cast<std::size_t>(static_cast<double>(size()) * f);
  const std::size_t train_count = size() - val_count;
  train.inputs.assign(inputs.begin(), inputs.begin() + train_count);
  train.targets.assign(targets.begin(), targets.begin() + train_count);
  val.inputs.assign(inputs.begin() + train_count, inputs.end());
  val.targets.assign(targets.begin() + train_count, targets.end());
  return {std::move(train), std::move(val)};
}

Trainer::Trainer(TrainerConfig config, util::Rng& rng)
    : config_(config), rng_(rng) {}

double Trainer::evaluate(Network& network, const Dataset& data) {
  if (data.size() == 0) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const Vector pred = network.predict(data.inputs[i]);
    total += mse(pred, data.targets[i]);
  }
  return total / static_cast<double>(data.size());
}

void Trainer::pretrain(Network& network, const Dataset& data) {
  if (config_.pretrain_epochs == 0 || data.size() == 0) return;
  // Greedy layerwise: feed each sample through the already-pretrained
  // prefix, then train (layer, transient decoder) to reconstruct the
  // prefix output.
  const std::size_t hidden = network.layer_count() - 1;  // skip output head
  for (std::size_t li = 0; li < hidden; ++li) {
    DenseLayer& enc = network.layer(li);
    DenseLayer dec(enc.outputs(), enc.inputs(), Activation::kIdentity, rng_);
    SgdOptimizer opt(kPretrainLearningRate);
    opt.bind({&enc, &dec});
    for (std::size_t epoch = 0; epoch < config_.pretrain_epochs; ++epoch) {
      for (std::size_t s = 0; s < data.size(); ++s) {
        // Propagate through the frozen prefix.
        Vector x(data.inputs[s]);
        for (std::size_t p = 0; p < li; ++p) {
          x = network.layer(p).forward(x);
        }
        enc.zero_grad();
        dec.zero_grad();
        const Vector& code = enc.forward(x);
        const Vector recon = dec.forward(code);
        Vector grad(recon.size());
        mse_gradient(recon, x, grad);
        const Vector code_grad = dec.backward(grad);
        enc.backward(code_grad);
        opt.step();
      }
    }
  }
}

TrainReport Trainer::fit(Network& network, SgdOptimizer& optimizer,
                         const Dataset& data) {
  const obs::ScopedTimer fit_timer("dnn.fit");
  if (!data.consistent()) {
    throw std::invalid_argument("Trainer::fit: inconsistent dataset");
  }
  TrainReport report;
  if (data.size() == 0) return report;

  auto [train, val] = data.split_validation(kValidationFraction);
  if (train.size() == 0) {
    train = data;  // too little data to hold out; validate on train
    val = data;
  }
  pretrain(network, train);
  optimizer.bind(network.layer_pointers());

  // Hoisted metric handles: one registry lookup per fit, not per epoch.
  obs::MetricRegistry& reg = obs::registry();
  const bool metrics = reg.enabled();
  obs::Histogram* epoch_ms = metrics ? &reg.histogram("dnn.epoch_ms") : nullptr;
  obs::Counter* sgd_steps = metrics ? &reg.counter("dnn.sgd_steps") : nullptr;
  obs::Counter* epochs_run = metrics ? &reg.counter("dnn.epochs") : nullptr;

  double best_val = std::numeric_limits<double>::infinity();
  std::size_t since_best = 0;
  for (std::size_t epoch = 0; epoch < config_.max_epochs; ++epoch) {
    const auto epoch_start = std::chrono::steady_clock::now();
    const std::vector<std::size_t> order = rng_.permutation(train.size());
    double train_loss = 0.0;
    for (std::size_t idx : order) {
      network.zero_grad();
      train_loss += network.train_sample(train.inputs[idx], train.targets[idx]);
      optimizer.step();
    }
    report.final_train_loss = train_loss / static_cast<double>(train.size());
    const double val_loss =
        val.size() > 0 ? evaluate(network, val) : report.final_train_loss;
    report.validation_curve.push_back(val_loss);
    report.epochs_run = epoch + 1;

    if (metrics) {
      const std::chrono::duration<double, std::milli> wall =
          std::chrono::steady_clock::now() - epoch_start;
      epoch_ms->observe(wall.count());
      sgd_steps->add(order.size());
      epochs_run->add(1);
      reg.gauge("dnn.epoch_train_loss").set(report.final_train_loss);
      reg.gauge("dnn.epoch_validation_loss").set(val_loss);
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
    reg.gauge("dnn.best_validation_loss").set(report.best_validation_loss);
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
