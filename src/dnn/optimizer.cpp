#include "dnn/optimizer.hpp"

#include <stdexcept>
#include <utility>

namespace corp::dnn {

SgdOptimizer::SgdOptimizer(double learning_rate)
    : learning_rate_(learning_rate) {
  if (learning_rate <= 0.0) {
    throw std::invalid_argument("SgdOptimizer: learning_rate must be > 0");
  }
}

void SgdOptimizer::bind(std::vector<DenseLayer*> layers) {
  layers_ = std::move(layers);
}

void SgdOptimizer::step() {
  for (DenseLayer* layer : layers_) {
    layer->weights().add_scaled(layer->grad_weights(), -learning_rate_);
    for (std::size_t i = 0; i < layer->bias().size(); ++i) {
      layer->bias()[i] -= learning_rate_ * layer->grad_bias()[i];
    }
  }
}

}  // namespace corp::dnn
