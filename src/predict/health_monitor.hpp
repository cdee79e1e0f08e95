// Predictor health monitoring and graceful degradation.
//
// A prediction-driven provisioner has a failure mode the paper never
// exercises: a poisoned model (NaN outputs, exploding magnitudes) that
// keeps "predicting" unused resource and thereby keeps unlocking it
// through the Eq. 21 gate. The gate alone reacts only after bad outcomes
// are *recorded*, one window later — by then the resource was already
// pledged. The health monitor inspects every raw forecast before it is
// used and trips a degradation ladder:
//
//   kPrimary      — the method's full stack (CORP: DNN + HMM + bound)
//   kFallback     — conservative ETS lower-bound stack
//   kReservedOnly — no opportunistic unlocking at all
//
// Demotion is immediate once faults accumulate in the observation window;
// re-promotion requires a long streak of healthy primary forecasts
// (hysteresis), so a flapping predictor cannot oscillate resources open.
// The monitor is pure bookkeeping — it draws no randomness and, on an
// all-healthy run, never changes a value — so enabling it preserves
// bit-identical outputs on fault-free runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

namespace corp::predict {

/// Poisoning applied to a raw forecast by the fault-injection layer
/// (mirrors fault::PredictorFaultKind without depending on corp_fault).
enum class InjectedFault : std::uint8_t { kNone = 0, kNan = 1, kExplode = 2 };

/// Degradation rungs, most capable first.
enum class DegradationTier : std::uint8_t {
  kPrimary = 0,
  kFallback = 1,
  kReservedOnly = 2,
};

const char* tier_name(DegradationTier tier);

/// Tracks raw-forecast health and the current degradation tier. One
/// monitor guards one VectorPredictor (all resource types share the tier,
/// matching the all-types-must-unlock semantics of Eq. 21).
class PredictorHealthMonitor {
 public:
  /// A finite forecast whose magnitude exceeds this is a fault. Forecasts
  /// are request-normalized fractions (healthy range roughly [0, 1]), so
  /// this threshold can never trip on a sane model.
  static constexpr double kExplosionThreshold = 1e3;
  /// Sliding window of recent forecast observations.
  static constexpr std::size_t kFaultWindow = 48;
  /// Faults within the window that force a one-rung demotion.
  static constexpr std::size_t kDemoteFaults = 4;
  /// Consecutive healthy primary forecasts required before promoting one
  /// rung back up (hysteresis against flapping).
  static constexpr std::size_t kPromoteHealthy = 96;

  /// Is this raw forecast healthy? (finite and below the explosion
  /// threshold). Does not mutate state.
  bool healthy(double raw_forecast) const;

  /// Records one raw primary forecast, updating the window, streak and —
  /// when thresholds are crossed — the tier. Returns healthy(raw).
  bool observe(double raw_forecast);

  DegradationTier tier() const { return tier_; }

  /// Faulty fraction of the current observation window (0 while the
  /// window is empty, e.g. right after a demotion consumed the evidence).
  /// Continuous health signal consumed by trust-adaptive scheduling
  /// (sched/trust.hpp).
  double window_fault_fraction() const {
    return window_.empty() ? 0.0
                           : static_cast<double>(window_faults_) /
                                 static_cast<double>(window_.size());
  }

  std::size_t faults_observed() const { return faults_observed_; }
  std::size_t demotions() const { return demotions_; }
  std::size_t promotions() const { return promotions_; }

  void reset();

 private:
  void demote();
  void promote();

  DegradationTier tier_ = DegradationTier::kPrimary;
  std::deque<bool> window_;  // true = fault
  std::size_t window_faults_ = 0;
  std::size_t healthy_streak_ = 0;
  std::size_t faults_observed_ = 0;
  std::size_t demotions_ = 0;
  std::size_t promotions_ = 0;
};

}  // namespace corp::predict
