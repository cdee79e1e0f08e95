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
// Steps 2 and 3 query two candidate indexes ordered by (Eq. 22 volume,
// view position) that persist across calls: each call re-reads only the
// views SchedulerContext::changed_vms names, and an entity's tentative
// consumption within the batch re-keys one entry for the rest of the
// call only.
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
#include <optional>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/packing.hpp"
#include "sched/scheduler.hpp"
#include "sched/trust.hpp"
#include "sched/volume.hpp"
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
  /// One candidate set — the λ-scaled opportunistic pool or the fresh
  /// reservations — indexed by (Eq. 22 volume, view position).
  class Candidates {
   public:
    /// `pool`: candidates are unlocked views offering predicted_unused x
    /// the pool scale; otherwise views accepting reservations offering
    /// their unallocated resource.
    explicit Candidates(bool pool) : pool_(pool) {}

    /// Whether the entries match the views the last sync saw.
    bool current() const { return current_; }
    /// Marks the entries stale: the next sync rebuilds them.
    void invalidate() { current_ = false; }

    /// Indexes every view (pool scale `scale`; ignored by fresh).
    void rebuild(std::span<const VmView> vms, const ResourceVector& max_cap,
                 double scale);
    /// Re-keys every pool entry at a new scale.
    void rescale(std::span<const VmView> vms, const ResourceVector& max_cap,
                 double scale);
    /// Re-reads the views at `positions`.
    void refresh(std::span<const VmView> vms, const ResourceVector& max_cap,
                 std::span<const std::uint32_t> positions);

    double scale() const { return scale_; }

    /// Eq. 22 selection: the feasible candidate with the smallest volume,
    /// the lowest position among exact ties — or, with `rng`, one uniform
    /// draw among those ties (counted on `tie_counter`). nullopt when
    /// nothing fits.
    std::optional<VolumeIndex::Entry> most_matched(
        std::span<const VmView> vms, const ResourceVector& demand,
        const ResourceVector& max_cap, util::Rng* rng,
        obs::Counter* tie_counter);
    /// Takes `amount` from a most_matched() pick until restore().
    void consume(std::span<const VmView> vms, const ResourceVector& max_cap,
                 const VolumeIndex::Entry& entry,
                 const ResourceVector& amount);
    /// Drops every consume() of this call.
    void restore(std::span<const VmView> vms, const ResourceVector& max_cap);

   private:
    ResourceVector available(const VmView& vm) const {
      return pool_ ? vm.predicted_unused * scale_ : vm.unallocated;
    }
    /// Availability the entry stands for: its tentative one while
    /// consumed this call (tag > 0), else its view's.
    ResourceVector available(std::span<const VmView> vms,
                             const VolumeIndex::Entry& entry) const {
      return entry.tag > 0 ? tentative_[entry.tag - 1]
                           : available(vms[entry.position]);
    }
    /// A view's entry: none when the view is not a candidate.
    std::optional<VolumeIndex::Entry> view_entry(
        const VmView& vm, std::uint32_t position,
        const ResourceVector& max_cap) const;
    /// The entry offering `available`: none when its volume is NaN or
    /// +inf.
    static std::optional<VolumeIndex::Entry> make_entry(
        const ResourceVector& available, std::uint32_t position,
        const ResourceVector& max_cap, std::uint32_t tag);
    /// Replaces the index with entries for `positions`, from their views.
    template <typename Positions>
    void reindex(std::span<const VmView> vms, const ResourceVector& max_cap,
                 const Positions& positions);
    /// Replaces `position`'s entry with `entry` (or none).
    void set(std::uint32_t position,
             const std::optional<VolumeIndex::Entry>& entry);

    bool pool_;
    bool current_ = false;
    double scale_ = 1.0;
    VolumeIndex index_;
    /// Per view position: its entry's volume, NaN when it has none.
    std::vector<double> key_;
    /// This call's consumed availabilities; an entry tagged t reads
    /// tentative_[t - 1]. `touched_` lists their positions.
    std::vector<ResourceVector> tentative_;
    std::vector<std::uint32_t> touched_;
    /// Scratch for most_matched's tie set.
    std::vector<VolumeIndex::Entry> ties_;
  };

  /// Brings both indexes up to date with ctx.vms before a placement.
  void sync(const SchedulerContext& ctx, double pool_scale,
            bool opportunistic);

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
  Candidates pool_{true};
  Candidates fresh_{false};
  /// Shape of the view table the indexes were built over.
  std::size_t indexed_vms_ = 0;
  ResourceVector indexed_capacity_;
};

}  // namespace corp::sched
