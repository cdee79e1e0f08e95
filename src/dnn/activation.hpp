// Neuron activation functions F and their derivatives F' (Eq. 5-7).
// The paper uses the sigmoid ("Equ. (5) is a sigmoid function") for the
// hidden layers; identity serves the linear output layer a regression
// head needs and the pretraining decoder.
#pragma once

namespace corp::dnn {

// The values are fixed: 1 and 2 named tanh and relu, which the model no
// longer uses, and the two kinds kept their numbers when those went.
enum class Activation { kSigmoid = 0, kIdentity = 3 };

/// F(x).
double activate(Activation a, double x);

/// F'(x) expressed in terms of the *activation value* y = F(x), matching
/// how back-propagation evaluates it (Eq. 6 applies F' to g_i, the cached
/// output): sigmoid' = y(1-y), id' = 1.
double activate_derivative_from_output(Activation a, double y);

}  // namespace corp::dnn
