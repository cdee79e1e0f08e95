#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/rng.hpp"
#include "util/seed_streams.hpp"

namespace corp::fault {

namespace {

// Stream tags separating the fault stream families live in the central
// registry (util/seed_streams.hpp), which static_asserts they are
// pairwise distinct across the whole process.
using util::seed_stream::kFaultPredictor;
using util::seed_stream::kFaultStraggler;
using util::seed_stream::kFaultTelemetryGap;
using util::seed_stream::kFaultVm;

/// Uniform double in [0, 1) from a mixed 64-bit hash (53-bit mantissa).
double uniform01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Stateless keyed hash: one derived stream per (seed, stream, key), then
/// one more avalanche over the sub-key. Pure function — the fault pattern
/// cannot depend on evaluation order or thread schedule.
std::uint64_t hash_sub(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t key, std::uint64_t sub) {
  return util::splitmix64_mix(util::derive_seed(seed, stream, key) +
                              sub * util::kSplitMix64Gamma);
}

/// Gap length in slots for a gap opening at (job, slot): exponential with
/// the configured mean, at least 1, capped at 4x mean so the stateless
/// membership scan stays bounded.
std::int64_t gap_length(const FaultConfig& config, std::uint64_t h) {
  const double u = uniform01(util::splitmix64_mix(h + 1));
  const double mean = std::max(1.0, config.telemetry_gap_mean_slots);
  const double len = -mean * std::log(std::max(1e-12, 1.0 - u));
  return std::clamp<std::int64_t>(static_cast<std::int64_t>(len) + 1, 1,
                                  static_cast<std::int64_t>(4.0 * mean) + 1);
}

}  // namespace

FaultConfig scaled_fault_config(double intensity) {
  const double a = std::clamp(intensity, 0.0, 1.0);
  FaultConfig config;
  if (a <= 0.0) return config;  // inert
  // At full intensity a VM fails every ~400 slots (about 1.1 hours of
  // 10-second slots) and stays down ~24 slots; 4% of telemetry slots open
  // a gap; 10% of jobs straggle at 1.8x demand; 5% of raw forecasts are
  // poisoned. Rates scale linearly, MTTF inversely (rarer faults at lower
  // intensity).
  config.vm_mttf_slots = 400.0 / a;
  config.vm_mttr_slots = 24.0;
  config.telemetry_gap_rate = 0.04 * a;
  config.telemetry_gap_mean_slots = 3.0;
  config.straggler_rate = 0.10 * a;
  config.straggler_demand_factor = 1.8;
  config.predictor_fault_rate = 0.05 * a;
  return config;
}

FaultPlan::FaultPlan(const FaultConfig& config, std::uint64_t seed,
                     std::size_t num_vms, std::int64_t horizon_slots) {
  if (config.vm_mttf_slots <= 0.0 || horizon_slots <= 0) return;
  const double fail_rate = 1.0 / config.vm_mttf_slots;
  const double recover_rate =
      1.0 / std::max(1.0, config.vm_mttr_slots);
  for (std::size_t v = 0; v < num_vms; ++v) {
    // A dedicated generator per VM: the schedule of VM k is invariant to
    // the cluster size and to the other VMs' schedules.
    util::Rng rng(util::derive_seed(seed, kFaultVm,
                                    static_cast<std::uint64_t>(v)));
    std::int64_t t = 0;
    while (true) {
      const auto ttf = static_cast<std::int64_t>(
          std::ceil(rng.exponential(fail_rate)));
      const std::int64_t down_at = t + std::max<std::int64_t>(1, ttf);
      if (down_at >= horizon_slots) break;
      transitions_.push_back(
          {down_at, static_cast<std::uint32_t>(v), /*up=*/false});
      ++crash_count_;
      const auto ttr = static_cast<std::int64_t>(
          std::ceil(rng.exponential(recover_rate)));
      const std::int64_t up_at = down_at + std::max<std::int64_t>(1, ttr);
      if (up_at >= horizon_slots) break;
      transitions_.push_back(
          {up_at, static_cast<std::uint32_t>(v), /*up=*/true});
      t = up_at;
    }
  }
  std::sort(transitions_.begin(), transitions_.end(),
            [](const VmTransition& a, const VmTransition& b) {
              if (a.slot != b.slot) return a.slot < b.slot;
              if (a.vm_id != b.vm_id) return a.vm_id < b.vm_id;
              return a.up < b.up;
            });
}

FaultInjector::FaultInjector(const FaultConfig& config, std::uint64_t seed,
                             std::size_t num_vms,
                             std::int64_t horizon_slots)
    : config_(config),
      seed_(seed),
      enabled_(config.any()),
      plan_(config, seed, num_vms, horizon_slots) {
  if (config_.telemetry_gap_rate > 0.0) {
    max_gap_slots_ =
        static_cast<std::int64_t>(
            4.0 * std::max(1.0, config_.telemetry_gap_mean_slots)) +
        1;
  }
}

std::span<const VmTransition> FaultInjector::transitions_at(std::int64_t t) {
  const auto& all = plan_.transitions();
  while (cursor_ < all.size() && all[cursor_].slot < t) ++cursor_;
  const std::size_t begin = cursor_;
  while (cursor_ < all.size() && all[cursor_].slot == t) ++cursor_;
  return {all.data() + begin, cursor_ - begin};
}

std::int64_t FaultInjector::next_transition_slot(std::int64_t t) const {
  const auto& all = plan_.transitions();
  // The cursor already sits past every slot < the last transitions_at(t),
  // so scanning from it is exact for the engine's non-decreasing queries;
  // the plan is sorted by (slot, vm_id), so the first hit is the minimum.
  for (std::size_t i = cursor_; i < all.size(); ++i) {
    if (all[i].slot >= t) return all[i].slot;
  }
  return std::numeric_limits<std::int64_t>::max();
}

bool FaultInjector::telemetry_gap(std::uint64_t job_id,
                                  std::int64_t slot) const {
  if (config_.telemetry_gap_rate <= 0.0) return false;
  // A gap covering `slot` must have opened within the last max_gap_slots_
  // slots; check each candidate opening slot.
  const std::int64_t first = std::max<std::int64_t>(0, slot - max_gap_slots_ + 1);
  for (std::int64_t s = first; s <= slot; ++s) {
    const std::uint64_t h = hash_sub(seed_, kFaultTelemetryGap, job_id,
                                     static_cast<std::uint64_t>(s));
    if (uniform01(h) >= config_.telemetry_gap_rate) continue;
    if (s + gap_length(config_, h) > slot) return true;
  }
  return false;
}

bool FaultInjector::is_straggler(std::uint64_t job_id) const {
  if (config_.straggler_rate <= 0.0) return false;
  return uniform01(util::derive_seed(seed_, kFaultStraggler, job_id)) <
         config_.straggler_rate;
}

double FaultInjector::demand_multiplier(std::uint64_t job_id) const {
  return is_straggler(job_id) ? config_.straggler_demand_factor : 1.0;
}

PredictorFaultKind FaultInjector::predictor_fault(std::uint64_t job_id,
                                                  std::int64_t slot,
                                                  std::size_t resource) const {
  if (config_.predictor_fault_rate <= 0.0) return PredictorFaultKind::kNone;
  const std::uint64_t h = hash_sub(
      seed_, kFaultPredictor, job_id,
      static_cast<std::uint64_t>(slot) * 8 + static_cast<std::uint64_t>(resource));
  if (uniform01(h) >= config_.predictor_fault_rate) {
    return PredictorFaultKind::kNone;
  }
  return (h & 1) != 0 ? PredictorFaultKind::kNan
                      : PredictorFaultKind::kExplode;
}

std::int64_t FaultInjector::retry_backoff(std::size_t attempt) {
  std::int64_t delay = kRetryBackoffBaseSlots;
  for (std::size_t i = 1; i < attempt && delay < kRetryBackoffCapSlots; ++i) {
    delay *= 2;
  }
  return std::min(delay, kRetryBackoffCapSlots);
}

}  // namespace corp::fault
