#include "sched/corp_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <ranges>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/volume.hpp"
#include "util/seed_streams.hpp"

namespace corp::sched {

namespace {

constexpr double kNotIndexed = std::numeric_limits<double>::quiet_NaN();

}  // namespace

// --- Candidates --------------------------------------------------------------

std::optional<VolumeIndex::Entry> CorpScheduler::Candidates::view_entry(
    const VmView& vm, std::uint32_t position,
    const ResourceVector& max_cap) const {
  if (!(pool_ ? vm.unlocked : vm.accepts_reserved)) return std::nullopt;
  return make_entry(available(vm), position, max_cap, 0);
}

std::optional<VolumeIndex::Entry> CorpScheduler::Candidates::make_entry(
    const ResourceVector& available, std::uint32_t position,
    const ResourceVector& max_cap, std::uint32_t tag) {
  const double volume = unused_volume(available, max_cap);
  // A scan keeping the first strict minimum below +inf never picks a NaN
  // or +inf volume, so neither is indexed.
  if (!(volume < std::numeric_limits<double>::infinity())) {
    return std::nullopt;
  }
  return VolumeIndex::Entry{volume, position, tag};
}

template <typename Positions>
void CorpScheduler::Candidates::reindex(std::span<const VmView> vms,
                                        const ResourceVector& max_cap,
                                        const Positions& positions) {
  std::vector<VolumeIndex::Entry> entries;
  for (const std::uint32_t p : positions) {
    key_[p] = kNotIndexed;
    if (const auto e = view_entry(vms[p], p, max_cap)) {
      entries.push_back(*e);
      key_[p] = e->volume;
    }
  }
  index_.assign(std::move(entries));
}

void CorpScheduler::Candidates::rebuild(std::span<const VmView> vms,
                                        const ResourceVector& max_cap,
                                        double scale) {
  scale_ = scale;
  key_.assign(vms.size(), kNotIndexed);
  reindex(vms, max_cap,
          std::views::iota(std::uint32_t{0},
                           static_cast<std::uint32_t>(vms.size())));
  current_ = true;
}

void CorpScheduler::Candidates::rescale(std::span<const VmView> vms,
                                        const ResourceVector& max_cap,
                                        double scale) {
  scale_ = scale;
  std::vector<std::uint32_t> positions;
  positions.reserve(index_.size());
  index_.for_each([&](const VolumeIndex::Entry& e) {
    positions.push_back(e.position);
  });
  reindex(vms, max_cap, positions);
}

void CorpScheduler::Candidates::refresh(
    std::span<const VmView> vms, const ResourceVector& max_cap,
    std::span<const std::uint32_t> positions) {
  for (const std::uint32_t p : positions) {
    set(p, view_entry(vms[p], p, max_cap));
  }
}

void CorpScheduler::Candidates::set(
    std::uint32_t position, const std::optional<VolumeIndex::Entry>& entry) {
  double& key = key_[position];
  if (!std::isnan(key)) index_.erase(key, position);
  key = kNotIndexed;
  if (!entry.has_value()) return;
  index_.insert(*entry);
  key = entry->volume;
}

std::optional<VolumeIndex::Entry> CorpScheduler::Candidates::most_matched(
    std::span<const VmView> vms, const ResourceVector& demand,
    const ResourceVector& max_cap, util::Rng* rng,
    obs::Counter* tie_counter) {
  index_.most_matched(
      demand, max_cap,
      [&](const VolumeIndex::Entry& entry) { return available(vms, entry); },
      /*all_ties=*/rng != nullptr, ties_);
  if (ties_.empty()) return std::nullopt;
  if (ties_.size() == 1) return ties_.front();
  if (tie_counter != nullptr) tie_counter->add(1);
  const double pick = rng->uniform(0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      std::clamp(pick, 0.0, 1.0 - 1e-12) * static_cast<double>(ties_.size()));
  return ties_[std::min(idx, ties_.size() - 1)];
}

void CorpScheduler::Candidates::consume(std::span<const VmView> vms,
                                        const ResourceVector& max_cap,
                                        const VolumeIndex::Entry& entry,
                                        const ResourceVector& amount) {
  ResourceVector left = available(vms, entry);
  left -= amount;
  left = left.clamped_non_negative();
  std::uint32_t tag = entry.tag;
  if (tag == 0) {
    tentative_.push_back(left);
    touched_.push_back(entry.position);
    tag = static_cast<std::uint32_t>(tentative_.size());
  } else {
    tentative_[tag - 1] = left;
  }
  set(entry.position, make_entry(left, entry.position, max_cap, tag));
}

void CorpScheduler::Candidates::restore(std::span<const VmView> vms,
                                        const ResourceVector& max_cap) {
  refresh(vms, max_cap, touched_);
  tentative_.clear();
  touched_.clear();
}

// --- CorpScheduler -------------------------------------------------------------

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
  if (batch.empty()) {
    // This call's changed views are not applied: rebuild on the next.
    pool_.invalidate();
    fresh_.invalidate();
    return decisions;
  }

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

  // Index upkeep belongs to the placement: it runs inside this call, so
  // the engine's place timer (alloc latency, Fig. 10) counts it.
  sync(ctx, pool_scale, opportunistic);
  const ResourceVector& max_cap = ctx.max_vm_capacity;

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
      const auto pick =
          pool_.most_matched(ctx.vms, carve, max_cap, tie_rng, m_ties);
      if (pick.has_value()) {
        decision.vm_id = ctx.vms[pick->position].vm_id;
        decision.kind = AllocationKind::kOpportunistic;
        decision.allocated = carve;
        decision.request_fraction = carve_sizing;
        pool_.consume(ctx.vms, max_cap, *pick, carve);
        decisions.push_back(std::move(decision));
        if (m_opp_grants != nullptr) m_opp_grants->add(1);
        continue;
      }
      if (m_opp_fallbacks != nullptr) m_opp_fallbacks->add(1);
    }

    const auto pick =
        fresh_.most_matched(ctx.vms, entity.demand, max_cap, nullptr, nullptr);
    if (pick.has_value()) {
      decision.vm_id = ctx.vms[pick->position].vm_id;
      decision.kind = AllocationKind::kReserved;
      fresh_.consume(ctx.vms, max_cap, *pick, entity.demand);
      decisions.push_back(std::move(decision));
    } else if (m_unplaced != nullptr) {
      // Unplaced; the simulator re-queues the entity's jobs.
      m_unplaced->add(1);
    }
  }
  // The batch's tentative consumption ends with the call: the next call's
  // views carry whatever the engine actually committed.
  pool_.restore(ctx.vms, max_cap);
  fresh_.restore(ctx.vms, max_cap);
  return decisions;
}

void CorpScheduler::sync(const SchedulerContext& ctx, double pool_scale,
                         bool opportunistic) {
  const std::span<const VmView> vms = ctx.vms;
  const ResourceVector& max_cap = ctx.max_vm_capacity;
  if (ctx.changed_vms == nullptr || vms.size() != indexed_vms_ ||
      !(max_cap == indexed_capacity_)) {
    pool_.invalidate();
    fresh_.invalidate();
    indexed_vms_ = vms.size();
    indexed_capacity_ = max_cap;
  }
  if (fresh_.current()) {
    fresh_.refresh(vms, max_cap, *ctx.changed_vms);
  } else {
    fresh_.rebuild(vms, max_cap, 1.0);
  }
  if (!opportunistic) {
    // Not consulted this call, so this call's changes are not applied.
    pool_.invalidate();
    return;
  }
  if (!pool_.current()) {
    pool_.rebuild(vms, max_cap, pool_scale);
    return;
  }
  // Adaptive λ moves the scale: every entry's key moves with it.
  if (pool_scale != pool_.scale()) pool_.rescale(vms, max_cap, pool_scale);
  pool_.refresh(vms, max_cap, *ctx.changed_vms);
}

}  // namespace corp::sched
