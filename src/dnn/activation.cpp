#include "dnn/activation.hpp"

#include <cmath>

namespace corp::dnn {

double activate(Activation a, double x) {
  switch (a) {
    case Activation::kSigmoid: return 1.0 / (1.0 + std::exp(-x));
    case Activation::kIdentity: return x;
  }
  return x;
}

double activate_derivative_from_output(Activation a, double y) {
  switch (a) {
    case Activation::kSigmoid: return y * (1.0 - y);
    case Activation::kIdentity: return 1.0;
  }
  return 1.0;
}

}  // namespace corp::dnn
