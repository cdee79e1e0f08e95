// The CORP scheduler (Sec. III-B), and with a trust input the
// prediction-aware allocator (method pred-aware; Buchbinder et al.,
// "Online Virtual Machine Allocation with Predictions").
//
// For each slot's arrivals:
//   1. pack complementary jobs into entities (maximizing DV);
//   2. place each entity on the *most-matched* VM — smallest unused
//      resource volume (Eq. 22) — among VMs whose unlocked predicted
//      unused resource satisfies the entity's demand (opportunistic);
//   3. fall back to unallocated VM resources with the same most-matched
//      rule (fresh reservation);
//   4. otherwise the entity waits (the simulator re-queues it).
//
// The trust λ in [0, 1] scales how much of the forecast step 2 pledges:
//
//   λ = 1   — plain CORP: the scaled pool and carve below are exact
//             (1·x = x, x + 0 = x) and no tie-break is drawn, so the
//             decisions are CORP's bit for bit;
//   λ = 0   — ignore the forecast: every entity takes a demand-based
//             fresh reservation, the worst-case-safe admission rule
//             (bit-identical to enable_opportunistic = false);
//   0<λ<1   — the opportunistic pool shrinks to λ x pool_safety of the
//             predicted unused resource, and carve-outs grow from
//             opportunistic_sizing toward the full demand as trust falls.
//
// In adaptive mode λ is recomputed before every placement from the
// predictor's observed health (sched/trust.hpp) — a continuous
// degradation path in place of the health-monitor ladder's cliff.
#pragma once

#include <cstdint>

#include "sched/packing.hpp"
#include "sched/scheduler.hpp"
#include "sched/trust.hpp"
#include "util/rng.hpp"

namespace corp::sched {

struct CorpSchedulerConfig {
  /// Ablation switch: disable complementary packing.
  bool enable_packing = true;
  /// Ablation switch: disable opportunistic placement entirely (entities
  /// then always take fresh reservations, whatever the trust).
  bool enable_opportunistic = true;
  /// Opportunistic carve-out as a fraction of the entity's request:
  /// expected demand plus headroom, not the full reservation. CORP can
  /// afford a wider carve than RCCR because its per-donor forecasts are
  /// tighter; the wider carve protects tenants through their own demand
  /// peaks.
  double opportunistic_sizing = 0.9;
  /// CORP only consumes this fraction of a VM's unlocked predicted-unused
  /// pool — the conservative stance of Sec. III (min() corrections, lower
  /// confidence bounds) applied to placement.
  double pool_safety = 0.80;
};

class CorpScheduler final : public Scheduler {
 public:
  /// `method` is kCorp or kPredAware; it names the run and decides
  /// whether the sched.pred_aware.* metrics are registered. `trust` is the
  /// fixed λ, clamped to [0, 1]; with `adaptive` λ instead follows
  /// TrustController::update on every placement. `seed` is the run seed
  /// the interior-λ tie-break stream derives from.
  explicit CorpScheduler(CorpSchedulerConfig config = {},
                         Method method = Method::kCorp, double trust = 1.0,
                         bool adaptive = false, std::uint64_t seed = 42);

  Method method() const override { return method_; }

  std::vector<PlacementDecision> place(const std::vector<const Job*>& batch,
                                       const SchedulerContext& ctx) override;

  const CorpSchedulerConfig& config() const { return config_; }

  /// λ used by the most recent place() call (the adaptive trajectory's
  /// latest point; the configured value before any placement).
  double current_trust() const { return lambda_; }

 private:
  CorpSchedulerConfig config_;
  Method method_;
  bool adaptive_;
  TrustController controller_;
  /// Tie-break stream among exactly-equal most-matched volumes, drawn
  /// only at interior λ: uniform λ-scaling of the candidate pools
  /// manufactures exact volume ties that the reference rule would
  /// resolve by VM index forever. The λ ∈ {0, 1} endpoints never draw.
  util::Rng tie_break_rng_;
  double lambda_;
};

}  // namespace corp::sched
