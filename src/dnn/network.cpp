#include "dnn/network.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/thread_pool.hpp"

namespace corp::dnn {

Network::Network(const NetworkConfig& config, util::Rng& rng)
    : config_(config) {
  if (config.input_size == 0 || config.output_size == 0) {
    throw std::invalid_argument("NetworkConfig: zero input/output size");
  }
  if (config.hidden_layers == 0) {
    throw std::invalid_argument("NetworkConfig: needs >= 1 hidden layer");
  }
  std::size_t prev = config.input_size;
  for (std::size_t i = 0; i < config.hidden_layers; ++i) {
    layers_.emplace_back(prev, config.hidden_units, Activation::kSigmoid,
                         rng);
    prev = config.hidden_units;
  }
  layers_.emplace_back(prev, config.output_size, Activation::kIdentity, rng);
}

const Vector& Network::forward(std::span<const double> input) {
  // The constructor guarantees at least a hidden layer and the head.
  const Vector* out = &layers_.front().forward(input);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    out = &layers_[i].forward(*out);
  }
  return *out;
}

namespace {

/// Serial layer sweep shared by the unsharded path and each shard.
Matrix forward_batch_serial(const std::vector<DenseLayer>& layers,
                            Matrix batch) {
  for (const DenseLayer& layer : layers) {
    batch = layer.forward_batch(batch);
  }
  return batch;
}

}  // namespace

Matrix Network::forward_batch(const Matrix& batch,
                              util::ThreadPool* pool) const {
  if (batch.cols() != config_.input_size) {
    throw std::invalid_argument("Network::forward_batch: input size mismatch");
  }
  const std::size_t rows = batch.rows();
  if (pool == nullptr || pool->size() <= 1 ||
      rows < kForwardBatchShardMinRows) {
    return forward_batch_serial(layers_, batch);
  }
  // Deterministic sharding: chunk boundaries depend only on (rows, chunks),
  // every row's arithmetic is independent of its neighbors, and each chunk
  // writes a disjoint row range of the output.
  Matrix out(rows, config_.output_size);
  const std::size_t chunks = std::min(pool->size(), rows);
  pool->parallel_for(chunks, [&](std::size_t k) {
    const std::size_t begin = rows * k / chunks;
    const std::size_t end = rows * (k + 1) / chunks;
    if (begin == end) return;
    Matrix chunk(end - begin, batch.cols());
    for (std::size_t n = begin; n < end; ++n) {
      const std::span<const double> src = batch.row(n);
      std::copy(src.begin(), src.end(), chunk.row(n - begin).begin());
    }
    const Matrix result = forward_batch_serial(layers_, std::move(chunk));
    for (std::size_t n = begin; n < end; ++n) {
      const std::span<const double> src = result.row(n - begin);
      std::copy(src.begin(), src.end(), out.row(n).begin());
    }
  });
  return out;
}

double Network::train_step(std::span<const double> input,
                           std::span<const double> target,
                           double learning_rate) {
  const Vector& prediction = forward(input);
  if (prediction.size() != target.size()) {
    throw std::invalid_argument("train_step: target size mismatch");
  }
  const double loss = mse(prediction, target);
  output_grad_.resize(prediction.size());
  mse_gradient(prediction, target, output_grad_);
  // From the head down; the first layer's dLoss/dInput has no reader.
  std::span<const double> grad = output_grad_;
  for (std::size_t i = layers_.size() - 1; i > 0; --i) {
    grad = layers_[i].backward_step(grad, learning_rate);
  }
  layers_.front().update_step(grad, learning_rate);
  return loss;
}

std::size_t Network::parameter_count() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer.parameter_count();
  return n;
}

}  // namespace corp::dnn
