// Consistency–robustness trust control for prediction-aware allocation:
// the adaptive trust input of CorpScheduler under method pred-aware
// (sched/corp_scheduler.hpp).
//
// Buchbinder et al., "Online Virtual Machine Allocation with Predictions",
// interpolates between an algorithm that follows the forecast (consistency)
// and one with a worst-case guarantee (robustness) through a single trust
// parameter λ in [0, 1]. TrustController computes that λ online from the
// prediction stack's observed health — the continuous counterpart of the
// PredictorHealthMonitor's discrete demote/promote ladder: instead of
// falling off a cliff once `kDemoteFaults` accumulate, trust degrades
// smoothly with the window fault fraction and the Eq. 21 gate margin, and
// recovers as soon as the signals do.
#pragma once

#include "predict/health_monitor.hpp"

namespace corp::sched {

/// Predictor-health signals sampled by the simulation loop right before
/// each placement call (sim/shard_engine.cpp). Every field is a
/// deterministic function of the run so far; the controller draws no
/// randomness, so trust trajectories are bit-identical across shard and
/// thread counts.
struct TrustSignals {
  /// Degradation rung of the health-monitor ladder.
  predict::DegradationTier tier = predict::DegradationTier::kPrimary;
  /// Faulty fraction of the monitor's sliding observation window.
  double window_fault_fraction = 0.0;
  /// Weakest per-resource-type Eq. 21 gate probability
  /// Pr(0 <= delta < eps) — the error tracker's view of recent forecast
  /// error. 1 when no gate has anything to report.
  double min_gate_probability = 1.0;
  /// The P_th the gate probabilities are judged against.
  double probability_threshold = 0.95;
};

/// Maps TrustSignals to λ: tier ceiling x fault penalty x gate margin.
/// The ETS-fallback ceiling (0.45), the fault-penalty exponent (2) and
/// the floor (0) are fixed constants (sched/trust.cpp). Pure between
/// calls except for remembering the last computed value (exposed for
/// diagnostics and the robustness-frontier bench).
///
/// Sampling cadence: the simulation loop samples TrustSignals and calls
/// update() only on placement slots (a non-empty queue), never on idle
/// ones — so the trust trajectory is a pure function of the placement
/// history, and the event-driven slot clock (sim/slot_clock.hpp), which
/// only ever skips idle slots, cannot change it.
class TrustController {
 public:
  /// Deterministic trust update; returns the new λ in [0, 1].
  double update(const TrustSignals& signals);

  double lambda() const { return lambda_; }

 private:
  double lambda_ = 1.0;
};

}  // namespace corp::sched
