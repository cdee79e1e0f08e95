// Deterministic fault injection for the simulation engine.
//
// The paper evaluates a fault-free cluster; opportunistic provisioning is
// exactly the regime where failures hurt most (a crashed VM kills both the
// reserved tenants and the opportunistic jobs riding their unused
// resource, and a misbehaving predictor silently converts "unused" into
// SLO violations). This subsystem gives the reproduction a first-class
// fault model:
//
//   * VM crash/recovery  — per-VM alternating MTTF/MTTR exponentials,
//                          pre-computed into a sorted FaultPlan;
//   * telemetry gaps     — missing slots in the Delta-history fed to the
//                          predictors (bursty: a gap opens with some
//                          per-slot probability and persists for an
//                          exponential number of slots);
//   * demand stragglers  — a fraction of jobs demand a multiple of their
//                          trace usage, stretching everything near them;
//   * predictor faults   — a fraction of raw forecasts are poisoned
//                          (NaN or exploding magnitude) before the health
//                          monitor sees them.
//
// Determinism contract: every decision is a pure function of
// (seed, stream tag, entity id, slot) through SplitMix64 avalanche mixing
// (util::derive_seed / splitmix64_mix) — no shared mutable RNG — so the
// injected fault pattern is independent of thread count, iteration order,
// and of how much randomness the rest of the simulation consumes.
// Parallel replicated runs therefore stay bit-identical to serial, and a
// config with every rate at zero is inert (enabled() == false and no code
// path draws randomness).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace corp::fault {

/// All fault-model knobs. Rates of zero disable the corresponding fault
/// class; an all-zero config makes the injector inert.
struct FaultConfig {
  /// Mean slots between failures of one VM (exponential); 0 = no crashes.
  double vm_mttf_slots = 0.0;
  /// Mean slots a crashed VM stays down (exponential).
  double vm_mttr_slots = 18.0;
  /// Per-(job, slot) probability that a telemetry gap *opens*.
  double telemetry_gap_rate = 0.0;
  /// Mean length in slots of one telemetry gap (exponential, >= 1).
  double telemetry_gap_mean_slots = 3.0;
  /// Per-job probability of being a demand-spike straggler.
  double straggler_rate = 0.0;
  /// Demand multiplier applied to straggler jobs (capped at the request).
  double straggler_demand_factor = 1.6;
  /// Per-(job, slot, resource) probability a raw forecast is poisoned.
  double predictor_fault_rate = 0.0;

  // --- resilience response knobs (consumed by the simulation loop) ---
  /// Crash-kill retries allowed per job before it is dropped as a
  /// permanent SLO failure.
  std::size_t retry_budget = 4;

  /// True when any fault class is active.
  bool any() const {
    return vm_mttf_slots > 0.0 || telemetry_gap_rate > 0.0 ||
           straggler_rate > 0.0 || predictor_fault_rate > 0.0;
  }
};

/// Canonical fault mix at a given intensity in [0, 1], used by the
/// resilience sweeps so "fault intensity" means the same thing across
/// benches, tests, and the CLI. Intensity 0 is the inert config.
FaultConfig scaled_fault_config(double intensity);

/// How a raw forecast is poisoned before the health monitor sees it.
enum class PredictorFaultKind : std::uint8_t {
  kNone = 0,
  kNan = 1,        // forecast becomes NaN
  kExplode = 2,    // forecast magnitude explodes (sigma-blowup analogue)
};

/// One VM up/down edge.
struct VmTransition {
  std::int64_t slot = 0;
  std::uint32_t vm_id = 0;
  bool up = false;  // false = crash, true = recovery
};

/// Pre-computed VM crash/recovery schedule over a horizon: per-VM
/// alternating exponential MTTF/MTTR draws from a dedicated derived
/// stream, merged and sorted by (slot, vm_id).
class FaultPlan {
 public:
  FaultPlan() = default;
  FaultPlan(const FaultConfig& config, std::uint64_t seed,
            std::size_t num_vms, std::int64_t horizon_slots);

  const std::vector<VmTransition>& transitions() const {
    return transitions_;
  }
  std::size_t crash_count() const { return crash_count_; }

 private:
  std::vector<VmTransition> transitions_;
  std::size_t crash_count_ = 0;
};

/// Run-time fault oracle the simulation loop queries each slot. Holds the
/// FaultPlan plus the stateless per-entity hash streams.
class FaultInjector {
 public:
  /// First retry delay; doubles per attempt up to the cap. Retries still
  /// count against the job's response-time SLO threshold.
  static constexpr std::int64_t kRetryBackoffBaseSlots = 2;
  static constexpr std::int64_t kRetryBackoffCapSlots = 48;

  /// An inert injector (enabled() == false).
  FaultInjector() = default;
  FaultInjector(const FaultConfig& config, std::uint64_t seed,
                std::size_t num_vms, std::int64_t horizon_slots);

  bool enabled() const { return enabled_; }
  const FaultConfig& config() const { return config_; }
  const FaultPlan& plan() const { return plan_; }

  /// VM transitions scheduled for slot `t`. Must be called with
  /// non-decreasing `t` (internal cursor). Empty when inert.
  std::span<const VmTransition> transitions_at(std::int64_t t);

  /// Earliest plan transition at slot >= t, or max int64 when none remain
  /// — the fault-plan event horizon of the event-driven slot clock
  /// (sim/slot_clock.hpp), which must land ON every transition slot:
  /// transitions_at() advances past anything a jump would fly over.
  /// Pure (does not move the cursor); max int64 when inert.
  std::int64_t next_transition_slot(std::int64_t t) const;

  /// Is (job, slot) inside a telemetry gap? Stateless: scans the bounded
  /// window of slots whose gap could still cover `slot`.
  bool telemetry_gap(std::uint64_t job_id, std::int64_t slot) const;

  /// Is this job a demand-spike straggler?
  bool is_straggler(std::uint64_t job_id) const;

  /// Demand multiplier for the job (1.0 for non-stragglers).
  double demand_multiplier(std::uint64_t job_id) const;

  /// Poisoning applied to the raw forecast for (job, slot, resource).
  PredictorFaultKind predictor_fault(std::uint64_t job_id, std::int64_t slot,
                                     std::size_t resource) const;

  /// Capped exponential retry backoff for the given crash-kill attempt
  /// (attempt >= 1): base * 2^(attempt-1), capped.
  static std::int64_t retry_backoff(std::size_t attempt);

 private:
  FaultConfig config_;
  std::uint64_t seed_ = 0;
  bool enabled_ = false;
  FaultPlan plan_;
  std::size_t cursor_ = 0;
  /// Longest telemetry gap considered by the stateless scan, in slots.
  std::int64_t max_gap_slots_ = 0;
};

}  // namespace corp::fault
