// VolumeIndex and CorpScheduler's indexed placement, pinned against the
// linear scan they replace.
//
// The scan — per-call pool/fresh availability copies and a most-matched
// loop keeping the first strict minimum — is kept here, in ScanReference,
// as the oracle. The differential drives both over seeded multi-call
// runs whose views change between calls the way the engine changes them
// (placements applied, random churn, crashed VMs), with and without
// changed-position lists, at λ ∈ {0, 0.5, 1} and adaptive, packing on and
// off, on heterogeneous clusters whose quantized availabilities make
// exact volume ties, with vm_id ≠ view position, and with demands up to
// 1e-9 above a VM's availability. Decisions must match field for field,
// and so must the tie-break stream's next draw and the
// sched.pred_aware.tie_breaks counter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/corp_scheduler.hpp"
#include "sched/packing.hpp"
#include "sched/scheduler.hpp"
#include "sched/trust.hpp"
#include "sched/volume.hpp"
#include "util/rng.hpp"
#include "util/seed_streams.hpp"

namespace corp::sched {
namespace {

// --- the scan oracle ----------------------------------------------------------

/// Index (into `candidates`) of the feasible VM with the smallest volume,
/// ties to the first candidate.
std::optional<std::size_t> scan_most_matched(
    std::span<const VmAvailability> candidates, const ResourceVector& demand,
    const ResourceVector& max_capacity) {
  std::optional<std::size_t> best;
  double best_volume = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (!demand.fits_within(candidates[i].available)) continue;
    const double volume =
        unused_volume(candidates[i].available, max_capacity);
    if (volume < best_volume) {
      best_volume = volume;
      best = i;
    }
  }
  return best;
}

/// The scan with one uniform draw among exactly-tied minimum volumes.
std::optional<std::size_t> scan_most_matched_tiebreak(
    std::span<const VmAvailability> candidates, const ResourceVector& demand,
    const ResourceVector& max_capacity, util::Rng* rng,
    std::uint64_t& tie_breaks) {
  const auto best = scan_most_matched(candidates, demand, max_capacity);
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
  ++tie_breaks;
  const double pick = rng->uniform(0.0, 1.0);
  const auto idx = static_cast<std::size_t>(
      std::clamp(pick, 0.0, 1.0 - 1e-12) * static_cast<double>(ties.size()));
  return ties[std::min(idx, ties.size() - 1)];
}

/// CorpScheduler's placement loop as a scan over the whole view table.
class ScanReference {
 public:
  ScanReference(CorpSchedulerConfig config, double trust, bool adaptive,
                std::uint64_t seed)
      : config_(config),
        adaptive_(adaptive),
        rng_(util::derive_seed(seed, util::seed_stream::kTrustAdaptation)),
        lambda_(adaptive ? 1.0 : std::clamp(trust, 0.0, 1.0)) {}

  std::vector<PlacementDecision> place(const std::vector<const Job*>& batch,
                                       const SchedulerContext& ctx) {
    std::vector<PlacementDecision> decisions;
    if (batch.empty()) return decisions;
    if (adaptive_) {
      lambda_ = controller_.update(ctx.trust != nullptr ? *ctx.trust
                                                        : TrustSignals{});
    }
    const double lambda = lambda_;
    const double pool_scale = lambda * config_.pool_safety;
    const double carve_sizing =
        lambda * config_.opportunistic_sizing + (1.0 - lambda);
    const bool opportunistic = config_.enable_opportunistic && lambda > 0.0;
    const std::vector<JobEntity> entities = config_.enable_packing
                                                ? pack_jobs(batch)
                                                : singleton_entities(batch);
    std::vector<VmAvailability> pool;
    std::vector<VmAvailability> fresh;
    for (const VmView& vm : ctx.vms) {
      if (opportunistic && vm.unlocked) {
        pool.push_back({vm.vm_id, vm.predicted_unused * pool_scale});
      }
      if (vm.accepts_reserved) fresh.push_back({vm.vm_id, vm.unallocated});
    }
    util::Rng* tie_rng = (lambda > 0.0 && lambda < 1.0) ? &rng_ : nullptr;
    for (const JobEntity& entity : entities) {
      PlacementDecision decision;
      decision.batch_indices = entity.members;
      decision.allocated = entity.demand;
      if (opportunistic) {
        const ResourceVector carve = entity.demand * carve_sizing;
        const auto slot = scan_most_matched_tiebreak(
            pool, carve, ctx.max_vm_capacity, tie_rng, tie_breaks);
        if (slot.has_value()) {
          VmAvailability& vm = pool[*slot];
          decision.vm_id = vm.vm_id;
          decision.kind = AllocationKind::kOpportunistic;
          decision.allocated = carve;
          decision.request_fraction = carve_sizing;
          vm.available -= carve;
          vm.available = vm.available.clamped_non_negative();
          decisions.push_back(std::move(decision));
          continue;
        }
      }
      const auto slot =
          scan_most_matched(fresh, entity.demand, ctx.max_vm_capacity);
      if (slot.has_value()) {
        VmAvailability& vm = fresh[*slot];
        decision.vm_id = vm.vm_id;
        decision.kind = AllocationKind::kReserved;
        vm.available -= entity.demand;
        vm.available = vm.available.clamped_non_negative();
        decisions.push_back(std::move(decision));
      }
    }
    return decisions;
  }

  double current_trust() const { return lambda_; }

  std::uint64_t tie_breaks = 0;

 private:
  CorpSchedulerConfig config_;
  bool adaptive_;
  TrustController controller_;
  util::Rng rng_;
  double lambda_;
};

// --- VolumeIndex against a sorted model ----------------------------------------

using Key = std::pair<double, std::uint32_t>;

std::vector<Key> keys_of(const VolumeIndex& index) {
  std::vector<Key> keys;
  index.for_each([&](const VolumeIndex::Entry& e) {
    keys.emplace_back(e.volume, e.position);
  });
  return keys;
}

TEST(VolumeIndexTest, MatchesSortedModelUnderInsertAndErase) {
  // Enough entries to split blocks and recycle emptied ones; volumes on a
  // coarse grid so most keys tie on volume and order by position.
  util::Rng rng(7);
  VolumeIndex index;
  std::set<Key> model;
  std::vector<VolumeIndex::Entry> initial;
  for (std::uint32_t p = 0; p < 3000; p += 2) {
    const double volume = static_cast<double>(rng.uniform_int(0, 40)) / 8.0;
    initial.push_back({volume, p, 0});
    model.emplace(volume, p);
  }
  index.assign(initial);
  for (int step = 0; step < 20000; ++step) {
    const auto p = static_cast<std::uint32_t>(rng.uniform_int(0, 2999));
    const auto it = std::find_if(model.begin(), model.end(),
                                 [&](const Key& k) { return k.second == p; });
    if (it != model.end()) {
      index.erase(it->first, p);
      model.erase(it);
    } else {
      const double volume = static_cast<double>(rng.uniform_int(0, 40)) / 8.0;
      index.insert({volume, p, 0});
      model.emplace(volume, p);
    }
    if (step % 997 == 0) {
      ASSERT_EQ(keys_of(index), std::vector<Key>(model.begin(), model.end()));
    }
  }
  ASSERT_EQ(index.size(), model.size());
  ASSERT_EQ(keys_of(index), std::vector<Key>(model.begin(), model.end()));
  // Emptying the low half frees whole blocks; refilling reuses them.
  std::vector<Key> low;
  for (const Key& k : model) {
    if (k.first < 2.5) low.push_back(k);
  }
  for (const Key& k : low) {
    index.erase(k.first, k.second);
    model.erase(k);
  }
  ASSERT_EQ(keys_of(index), std::vector<Key>(model.begin(), model.end()));
  for (const Key& k : low) {
    index.insert({k.first, k.second, 0});
    model.insert(k);
  }
  ASSERT_EQ(keys_of(index), std::vector<Key>(model.begin(), model.end()));
  // walk_from starts at the first key whose volume is not below `from`.
  for (double from = -1.0; from <= 6.0; from += 0.0625) {
    std::optional<Key> first;
    index.walk_from(from, [&](const VolumeIndex::Entry& e) {
      first = Key(e.volume, e.position);
      return false;
    });
    const auto expected = model.lower_bound(Key(from, 0));
    if (expected == model.end()) {
      EXPECT_FALSE(first.has_value()) << "from " << from;
    } else {
      ASSERT_TRUE(first.has_value()) << "from " << from;
      EXPECT_EQ(*first, *expected) << "from " << from;
    }
  }
}

TEST(VolumeIndexTest, EraseOfAbsentKeyThrows) {
  VolumeIndex index;
  EXPECT_THROW(index.erase(1.0, 0), std::logic_error);
  index.insert({1.0, 3, 0});
  EXPECT_THROW(index.erase(1.0, 4), std::logic_error);
  EXPECT_THROW(index.erase(2.0, 3), std::logic_error);
  index.erase(1.0, 3);
  EXPECT_EQ(index.size(), 0u);
}

TEST(VolumeIndexTest, FloorCoversTheFitsWithinTolerance) {
  const ResourceVector max_cap(8, 32, 180);
  const ResourceVector demand(2, 8, 45);
  // Up to 1e-9 short in every resource still fits, and has a smaller
  // volume than the demand's own.
  const ResourceVector shy = demand - ResourceVector::filled(1e-9);
  ASSERT_TRUE(demand.fits_within(shy));
  EXPECT_LT(unused_volume(shy, max_cap), unused_volume(demand, max_cap));
  EXPECT_LE(feasible_volume_floor(demand, max_cap),
            unused_volume(shy, max_cap));
  // Commit dust: -1e-9 unallocated fits a zero demand.
  const ResourceVector dust(-1e-9, 4, 0);
  const ResourceVector zero_cpu(0, 4, 0);
  ASSERT_TRUE(zero_cpu.fits_within(dust));
  EXPECT_LE(feasible_volume_floor(zero_cpu, max_cap),
            unused_volume(dust, max_cap));
  // Large magnitudes, where 1e-9 is below one ulp.
  const ResourceVector big(3e7, 1e9, 7e12);
  const ResourceVector big_max(4e7, 2e9, 8e12);
  ASSERT_TRUE(big.fits_within(big));
  EXPECT_LE(feasible_volume_floor(big, big_max), unused_volume(big, big_max));
}

// --- CorpScheduler against the scan ----------------------------------------------

/// Trust setting of one differential run.
enum class Trust { kZero, kHalf, kOne, kAdaptive };

struct World {
  std::vector<ResourceVector> capacity;  // per view position
  std::vector<VmView> views;
  std::vector<std::uint32_t> position_of;  // vm_id -> view position
  ResourceVector max_cap;
};

/// Three node classes; max capacity is their component-wise maximum.
const ResourceVector kClasses[] = {ResourceVector(8, 32, 180),
                                   ResourceVector(4, 64, 100),
                                   ResourceVector(16, 16, 360)};

/// Whole multiples of cap / steps, so VMs of one class tie on volume
/// exactly.
ResourceVector quantized(util::Rng& rng, const ResourceVector& cap,
                         std::int64_t steps) {
  ResourceVector v;
  for (std::size_t k = 0; k < kNumResources; ++k) {
    v[k] = cap[k] * static_cast<double>(rng.uniform_int(0, steps)) /
           static_cast<double>(steps);
  }
  return v;
}

/// Redraws one VM's view: one in ten is crashed (nothing available);
/// one in ten carries -7e-10 of commit dust in one resource.
void redraw(util::Rng& rng, World& w, std::size_t p) {
  VmView& view = w.views[p];
  const ResourceVector& cap = w.capacity[p];
  const std::int64_t kind = rng.uniform_int(0, 9);
  view.accepts_reserved = rng.uniform(0.0, 1.0) < 0.85;
  if (kind == 0) {
    view.unallocated = ResourceVector::zero();
    view.predicted_unused = ResourceVector::zero();
    view.unlocked = false;
    return;
  }
  view.unallocated = quantized(rng, cap, 4);
  if (kind == 1) {
    view.unallocated[static_cast<std::size_t>(rng.uniform_int(0, 2))] = -7e-10;
  }
  view.predicted_unused = quantized(rng, cap * 0.5, 4);
  view.unlocked =
      rng.uniform(0.0, 1.0) < 0.6 && view.predicted_unused.total() > 0.0;
}

World make_world(util::Rng& rng) {
  World w;
  const auto n = static_cast<std::size_t>(rng.uniform_int(40, 200));
  w.capacity.resize(n);
  w.views.resize(n);
  // vm_id is a shuffle of 0..n-1, so ids and positions disagree.
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
    std::swap(ids[i - 1], ids[j]);
  }
  w.position_of.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    w.capacity[p] = kClasses[rng.uniform_int(0, 2)];
    w.max_cap = ResourceVector::max(w.max_cap, w.capacity[p]);
    w.views[p].vm_id = ids[p];
    w.position_of[ids[p]] = static_cast<std::uint32_t>(p);
    redraw(rng, w, p);
  }
  return w;
}

/// A batch of jobs: most sized in eighths of a node class, some exactly
/// 5e-10 above one VM's availability (fresh or λ-scaled pool carve).
std::vector<Job> make_batch(util::Rng& rng, const World& w,
                            std::uint64_t& next_id, double pool_scale,
                            double carve_sizing) {
  std::vector<Job> jobs(static_cast<std::size_t>(rng.uniform_int(0, 24)));
  for (Job& job : jobs) {
    job.id = next_id++;
    job.duration_slots = 1;
    const std::int64_t kind = rng.uniform_int(0, 5);
    const VmView& target =
        w.views[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(w.views.size()) - 1))];
    if (kind == 0) {
      job.request = (target.unallocated + ResourceVector::filled(5e-10))
                        .clamped_non_negative();
    } else if (kind == 1 && carve_sizing > 0.0) {
      job.request = ((target.predicted_unused * pool_scale +
                      ResourceVector::filled(5e-10)) *
                     (1.0 / carve_sizing))
                        .clamped_non_negative();
    } else {
      job.request =
          quantized(rng, kClasses[rng.uniform_int(0, 2)] * 0.5, 4);
    }
  }
  return jobs;
}

std::vector<const Job*> pointers(const std::vector<Job>& jobs) {
  std::vector<const Job*> batch;
  for (const Job& job : jobs) batch.push_back(&job);
  return batch;
}

void expect_same(const std::vector<PlacementDecision>& got,
                 const std::vector<PlacementDecision>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].batch_indices, want[i].batch_indices) << "decision " << i;
    EXPECT_EQ(got[i].vm_id, want[i].vm_id) << "decision " << i;
    EXPECT_EQ(got[i].kind, want[i].kind) << "decision " << i;
    EXPECT_EQ(got[i].allocated, want[i].allocated) << "decision " << i;
    EXPECT_EQ(got[i].request_fraction, want[i].request_fraction)
        << "decision " << i;
  }
}

/// Applies decisions the way the engine's ledger would, marking the VMs.
/// One reserved decision in five is dropped unmarked, as the engine's
/// partition-cap check drops one: the VM's view must then read as if the
/// call's tentative consumption never happened.
void apply(util::Rng& rng, World& w,
           const std::vector<PlacementDecision>& decisions,
           std::vector<std::uint32_t>& changed) {
  for (const PlacementDecision& d : decisions) {
    const std::uint32_t p = w.position_of[d.vm_id];
    VmView& view = w.views[p];
    if (d.kind == AllocationKind::kReserved && rng.uniform(0.0, 1.0) < 0.2) {
      continue;
    }
    if (d.kind == AllocationKind::kReserved) {
      view.unallocated = (view.unallocated - d.allocated).clamped_non_negative();
    } else {
      view.predicted_unused =
          (view.predicted_unused - d.allocated).clamped_non_negative();
      view.unlocked = view.predicted_unused.total() > 0.0;
    }
    changed.push_back(p);
  }
}

/// The tie-break stream's next draw, read through one placement whose
/// 4096 identical pool candidates all tie: the pick is floor(u · 4096).
std::uint32_t next_draw_probe(CorpScheduler& sched, ScanReference& ref,
                              const TrustSignals& signals) {
  std::vector<VmView> views(4096);
  for (std::size_t p = 0; p < views.size(); ++p) {
    views[p].vm_id = static_cast<std::uint32_t>(p);
    views[p].predicted_unused = ResourceVector(4, 4, 4);
    views[p].unlocked = true;
  }
  Job job;
  job.id = 1;
  job.request = ResourceVector(1, 1, 1);
  const std::vector<const Job*> batch{&job};
  util::Rng rng_a(5);
  util::Rng rng_b(5);
  SchedulerContext ctx;
  ctx.vms = views;
  ctx.max_vm_capacity = ResourceVector(16, 64, 360);
  ctx.trust = &signals;
  ctx.rng = &rng_a;
  const auto got = sched.place(batch, ctx);
  ctx.rng = &rng_b;
  const auto want = ref.place(batch, ctx);
  expect_same(got, want);
  return got.empty() ? 0 : got.front().vm_id;
}

void run_differential(Trust trust, bool packing, bool opportunistic,
                      bool track_changes, std::uint64_t seed) {
  SCOPED_TRACE(testing::Message()
               << "trust " << static_cast<int>(trust) << " packing "
               << packing << " opportunistic " << opportunistic
               << " changed lists " << track_changes << " seed " << seed);
  CorpSchedulerConfig config;
  config.enable_packing = packing;
  config.enable_opportunistic = opportunistic;
  const double lambda = trust == Trust::kZero   ? 0.0
                        : trust == Trust::kHalf ? 0.5
                                                : 1.0;
  const bool adaptive = trust == Trust::kAdaptive;
  CorpScheduler sched(config, Method::kPredAware, lambda, adaptive, seed);
  ScanReference ref(config, lambda, adaptive, seed);

  obs::registry().reset();
  obs::set_enabled(true);
  util::Rng rng(util::derive_seed(seed, 0x56494458ULL));
  World w = make_world(rng);
  std::uint64_t next_id = 0;
  std::vector<std::uint32_t> changed;
  TrustSignals signals;
  for (int call = 0; call < 30; ++call) {
    SCOPED_TRACE(testing::Message() << "call " << call);
    // Adaptive λ moves with the signals: interior values, the endpoints
    // and the reserved-only collapse to 0.
    signals.tier = rng.uniform(0.0, 1.0) < 0.1
                       ? predict::DegradationTier::kReservedOnly
                       : predict::DegradationTier::kPrimary;
    signals.window_fault_fraction =
        rng.uniform(0.0, 1.0) < 0.3 ? 0.0 : rng.uniform(0.0, 0.6);
    signals.min_gate_probability = rng.uniform(0.85, 1.0);
    const double scale_hint = lambda * config.pool_safety;
    const double carve_hint =
        lambda * config.opportunistic_sizing + (1.0 - lambda);
    const std::vector<Job> jobs =
        make_batch(rng, w, next_id, scale_hint, carve_hint);
    const std::vector<const Job*> batch = pointers(jobs);

    // Views churn between calls: a tenth of the VMs are redrawn, and a
    // few unchanged positions ride along (the list may over-report).
    for (std::size_t p = 0; p < w.views.size(); ++p) {
      if (rng.uniform(0.0, 1.0) < 0.1) {
        redraw(rng, w, p);
        changed.push_back(static_cast<std::uint32_t>(p));
      } else if (rng.uniform(0.0, 1.0) < 0.02) {
        changed.push_back(static_cast<std::uint32_t>(p));
      }
    }
    std::sort(changed.begin(), changed.end());
    changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
    const bool full = !track_changes || call == 0 ||
                      rng.uniform(0.0, 1.0) < 0.1;

    util::Rng ctx_rng_a(seed + static_cast<std::uint64_t>(call));
    util::Rng ctx_rng_b(seed + static_cast<std::uint64_t>(call));
    SchedulerContext ctx;
    ctx.vms = w.views;
    ctx.max_vm_capacity = w.max_cap;
    ctx.trust = &signals;
    ctx.rng = &ctx_rng_a;
    ctx.changed_vms = full ? nullptr : &changed;
    const auto got = sched.place(batch, ctx);
    ctx.rng = &ctx_rng_b;
    const auto want = ref.place(batch, ctx);
    expect_same(got, want);
    ASSERT_EQ(sched.current_trust(), ref.current_trust());
    if (::testing::Test::HasFailure()) return;

    changed.clear();
    apply(rng, w, got, changed);
  }
  EXPECT_EQ(obs::registry().counter("sched.pred_aware.tie_breaks").value(),
            ref.tie_breaks);
  // Same stream position: the next draw agrees. Interior λ for the
  // adaptive probe (fault fraction 0.3 gives λ = 0.49).
  signals.tier = predict::DegradationTier::kPrimary;
  signals.window_fault_fraction = 0.3;
  signals.min_gate_probability = 1.0;
  next_draw_probe(sched, ref, signals);
  obs::set_enabled(false);
  obs::registry().reset();
}

void run_grid(Trust trust) {
  for (const bool packing : {true, false}) {
    for (const bool track_changes : {true, false}) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        run_differential(trust, packing, /*opportunistic=*/true,
                         track_changes, seed);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(VolumeIndexDifferentialTest, FullTrustMatchesScan) {
  run_grid(Trust::kOne);
}

TEST(VolumeIndexDifferentialTest, HalfTrustMatchesScanIncludingTieDraws) {
  run_grid(Trust::kHalf);
}

TEST(VolumeIndexDifferentialTest, ZeroTrustMatchesScan) {
  run_grid(Trust::kZero);
}

TEST(VolumeIndexDifferentialTest, AdaptiveTrustMatchesScan) {
  run_grid(Trust::kAdaptive);
}

TEST(VolumeIndexDifferentialTest, OpportunisticDisabledMatchesScan) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_differential(Trust::kOne, /*packing=*/true, /*opportunistic=*/false,
                     /*track_changes=*/true, seed);
  }
}

TEST(VolumeIndexDifferentialTest, InteriorTrustDrawsTieBreaks) {
  // The grid above would pass vacuously if no tie ever formed: check the
  // half-trust runs do draw.
  CorpScheduler sched({}, Method::kPredAware, 0.5, false, 3);
  ScanReference ref({}, 0.5, false, 3);
  obs::registry().reset();
  obs::set_enabled(true);
  TrustSignals signals;
  const std::uint32_t first = next_draw_probe(sched, ref, signals);
  const std::uint32_t second = next_draw_probe(sched, ref, signals);
  EXPECT_EQ(ref.tie_breaks, 2u);
  EXPECT_EQ(obs::registry().counter("sched.pred_aware.tie_breaks").value(),
            2u);
  EXPECT_NE(first, second);
  obs::set_enabled(false);
  obs::registry().reset();
}

}  // namespace
}  // namespace corp::sched
