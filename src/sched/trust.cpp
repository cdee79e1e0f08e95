#include "sched/trust.hpp"

#include <algorithm>
#include <cmath>

namespace corp::sched {

namespace {

/// Trust ceiling while the ladder sits on the ETS fallback rung: the
/// fallback forecast is usable but coarse, so at most this much of it is
/// pledged.
constexpr double kFallbackCap = 0.45;
/// Exponent of the (1 - fault_fraction) penalty; > 1 makes trust fall
/// faster than the fault rate rises (a 10% poisoned window costs ~19%
/// trust).
constexpr double kFaultExponent = 2.0;
/// Lower bound on adaptive trust while the ladder still allows any
/// opportunistic placement: 0 lets trust collapse to pure demand-based
/// admission. Reserved-only always maps to 0 regardless.
constexpr double kFloor = 0.0;

}  // namespace

double TrustController::update(const TrustSignals& signals) {
  double cap = 1.0;
  switch (signals.tier) {
    case predict::DegradationTier::kPrimary:
      cap = 1.0;
      break;
    case predict::DegradationTier::kFallback:
      cap = kFallbackCap;
      break;
    case predict::DegradationTier::kReservedOnly:
      cap = 0.0;
      break;
  }
  if (cap <= 0.0) {
    // Reserved-only: the ladder has withdrawn every forecast, so there is
    // nothing left to trust — the floor does not apply.
    lambda_ = 0.0;
    return lambda_;
  }
  const double fault_fraction =
      std::clamp(signals.window_fault_fraction, 0.0, 1.0);
  const double penalty = std::pow(1.0 - fault_fraction, kFaultExponent);
  double gate_margin = 1.0;
  if (signals.probability_threshold > 0.0) {
    gate_margin = std::clamp(
        signals.min_gate_probability / signals.probability_threshold, 0.0,
        1.0);
  }
  lambda_ = std::clamp(cap * penalty * gate_margin, kFloor, 1.0);
  return lambda_;
}

}  // namespace corp::sched
