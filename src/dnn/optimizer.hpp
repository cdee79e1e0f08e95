// Gradient-descent optimizer applying Eq. 8 (Delta w = mu * E * g).
#pragma once

#include <vector>

#include "dnn/layer.hpp"

namespace corp::dnn {

/// Plain SGD, the paper's weight update rule: step() subtracts
/// learning_rate times the accumulated layer gradients from the layer
/// parameters. It is called once per sample after the backward pass
/// populated the grads.
class SgdOptimizer {
 public:
  explicit SgdOptimizer(double learning_rate);

  /// Registers the layers whose parameters this optimizer updates. Must
  /// be called once before step().
  void bind(std::vector<DenseLayer*> layers);

  void step();

 private:
  double learning_rate_;
  std::vector<DenseLayer*> layers_;
};

}  // namespace corp::dnn
