#include "sched/corp_scheduler.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/volume.hpp"
#include "util/seed_streams.hpp"

namespace corp::sched {

namespace {

/// Eq. 22 selection with uniform tie-breaking: when several feasible
/// candidates share the exactly-smallest unused volume, one of them is
/// picked uniformly from `rng` (one draw per tied selection). With
/// rng == nullptr this is plain most_matched (first candidate wins).
std::optional<std::size_t> most_matched_tiebreak(
    std::span<const VmAvailability> candidates, const ResourceVector& demand,
    const ResourceVector& max_capacity, util::Rng* rng,
    obs::Counter* tie_counter) {
  const auto best = most_matched(candidates, demand, max_capacity);
  if (!best.has_value() || rng == nullptr) return best;
  const double best_volume =
      unused_volume(candidates[*best].available, max_capacity);
  std::vector<std::size_t> ties;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!demand.fits_within(candidates[i].available)) continue;
    if (unused_volume(candidates[i].available, max_capacity) == best_volume) {
      ties.push_back(i);
    }
  }
  if (ties.size() <= 1) return best;
  if (tie_counter != nullptr) tie_counter->add(1);
  const double pick = rng->uniform(0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      std::clamp(pick, 0.0, 1.0 - 1e-12) * static_cast<double>(ties.size()));
  return ties[std::min(idx, ties.size() - 1)];
}

}  // namespace

CorpScheduler::CorpScheduler(CorpSchedulerConfig config, Method method,
                             double trust, bool adaptive, std::uint64_t seed)
    : config_(config),
      method_(method),
      adaptive_(adaptive),
      tie_break_rng_(
          util::derive_seed(seed, util::seed_stream::kTrustAdaptation)),
      lambda_(adaptive ? 1.0 : std::clamp(trust, 0.0, 1.0)) {}

std::vector<PlacementDecision> CorpScheduler::place(
    const std::vector<const Job*>& batch, const SchedulerContext& ctx) {
  const obs::ScopedTimer timer("sched.place");
  std::vector<PlacementDecision> decisions;
  if (batch.empty()) return decisions;

  if (adaptive_) {
    lambda_ = controller_.update(ctx.trust != nullptr ? *ctx.trust
                                                      : TrustSignals{});
  }
  const double lambda = lambda_;
  // Trust-scaled admission thresholds, exact at both endpoints: λ = 1
  // reproduces the configured knobs bit for bit, λ = 0 sizes every
  // admission at the full demand.
  const double pool_scale = lambda * config_.pool_safety;
  const double carve_sizing =
      lambda * config_.opportunistic_sizing + (1.0 - lambda);
  const bool opportunistic = config_.enable_opportunistic && lambda > 0.0;

  obs::MetricRegistry& reg = obs::registry();
  const bool metrics = reg.enabled();
  obs::Counter* m_pairs =
      metrics ? &reg.counter("sched.packing_pair_matches") : nullptr;
  obs::Counter* m_opp_grants =
      metrics ? &reg.counter("sched.opportunistic_grants") : nullptr;
  obs::Counter* m_opp_fallbacks =
      metrics ? &reg.counter("sched.opportunistic_fallbacks") : nullptr;
  obs::Counter* m_unplaced =
      metrics ? &reg.counter("sched.entities_unplaced") : nullptr;
  const bool trust_metrics = metrics && method_ == Method::kPredAware;
  obs::Counter* m_ties =
      trust_metrics ? &reg.counter("sched.pred_aware.tie_breaks") : nullptr;
  if (trust_metrics) obs::set_gauge("sched.pred_aware.trust", lambda);

  const std::vector<JobEntity> entities =
      config_.enable_packing ? pack_jobs(batch) : singleton_entities(batch);
  if (m_pairs != nullptr) {
    for (const JobEntity& entity : entities) {
      if (entity.members.size() > 1) m_pairs->add(1);
    }
  }

  // Tentative availability copies: placements within the batch consume
  // from these so the batch cannot oversubscribe a snapshot.
  std::vector<VmAvailability> pool;   // λ-scaled unlocked predicted-unused
  std::vector<VmAvailability> fresh;  // unallocated, admission-capped
  pool.reserve(ctx.vms.size());
  fresh.reserve(ctx.vms.size());
  for (const VmView& vm : ctx.vms) {
    if (opportunistic && vm.unlocked) {
      pool.push_back({vm.vm_id, vm.predicted_unused * pool_scale});
    }
    // Partition admission caps gate *new* reservations only; the
    // opportunistic pool above stays available on capped partitions.
    if (vm.accepts_reserved) {
      fresh.push_back({vm.vm_id, vm.unallocated});
    }
  }

  // Stochastic tie-breaking engages only at interior trust. Fresh
  // reservations keep the deterministic first-candidate rule at every λ:
  // only the scaled opportunistic pool manufactures artificial ties.
  util::Rng* tie_rng =
      (lambda > 0.0 && lambda < 1.0) ? &tie_break_rng_ : nullptr;

  for (const JobEntity& entity : entities) {
    PlacementDecision decision;
    decision.batch_indices = entity.members;
    decision.allocated = entity.demand;

    if (opportunistic) {
      const ResourceVector carve = entity.demand * carve_sizing;
      const auto slot = most_matched_tiebreak(pool, carve, ctx.max_vm_capacity,
                                              tie_rng, m_ties);
      if (slot.has_value()) {
        VmAvailability& vm = pool[*slot];
        decision.vm_id = vm.vm_id;
        decision.kind = AllocationKind::kOpportunistic;
        decision.allocated = carve;
        decision.request_fraction = carve_sizing;
        vm.available -= carve;
        vm.available = vm.available.clamped_non_negative();
        decisions.push_back(std::move(decision));
        if (m_opp_grants != nullptr) m_opp_grants->add(1);
        continue;
      }
      if (m_opp_fallbacks != nullptr) m_opp_fallbacks->add(1);
    }

    const auto slot = most_matched(fresh, entity.demand, ctx.max_vm_capacity);
    if (slot.has_value()) {
      VmAvailability& vm = fresh[*slot];
      decision.vm_id = vm.vm_id;
      decision.kind = AllocationKind::kReserved;
      vm.available -= entity.demand;
      vm.available = vm.available.clamped_non_negative();
      decisions.push_back(std::move(decision));
    } else if (m_unplaced != nullptr) {
      // Unplaced; the simulator re-queues the entity's jobs.
      m_unplaced->add(1);
    }
  }
  return decisions;
}

}  // namespace corp::sched
