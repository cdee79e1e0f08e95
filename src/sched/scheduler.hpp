// Scheduler interface: how each provisioning method places newly arriving
// jobs and (re)sizes their allocations.
//
// The simulator drives schedulers through two hooks:
//   place()       — batch placement of the jobs arriving in a slot;
//   reprovision() — per-window allocation resizing for demand-based
//                   methods (CloudScale, DRA); identity for CORP/RCCR,
//                   whose reservations stay at the declared request.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "predict/predictor.hpp"
#include "trace/job.hpp"
#include "util/rng.hpp"

namespace corp::sched {

using predict::Method;
using trace::Job;
using trace::kNumResources;
using trace::ResourceVector;

/// How an entity's resources are sourced.
enum class AllocationKind : std::uint8_t {
  /// Fresh reservation committed on the VM (counts toward Eq. 1-4
  /// denominators).
  kReserved = 0,
  /// Rides on other jobs' temporarily-unused allocated resource; commits
  /// nothing (the opportunistic mode of CORP and RCCR).
  kOpportunistic = 1,
};

/// Per-VM availability snapshot handed to place(). The two flags sit
/// beside `vm_id`, in what would otherwise be padding: the engine keeps
/// one view per VM, 56 bytes each.
struct VmView {
  std::uint32_t vm_id = 0;
  /// Eq. 21 gate: is the predicted unused resource reallocatable?
  bool unlocked = false;
  /// Whether this VM may host *new* reserved jobs this slot. False when
  /// the VM's partition is at its max_reserved_jobs admission cap.
  /// Opportunistic placement is always allowed.
  bool accepts_reserved = true;
  /// Predicted temporarily-unused resource, aggregated over the VM's
  /// reserved jobs (zero when the method does not predict).
  ResourceVector predicted_unused;
  /// capacity - committed.
  ResourceVector unallocated;
};
static_assert(sizeof(VmView) == 56, "VmView must stay packed");

struct TrustSignals;

struct SchedulerContext {
  std::span<const VmView> vms;
  /// Component-wise maximum VM capacity (Eq. 22 normalizer).
  ResourceVector max_vm_capacity;
  util::Rng* rng = nullptr;
  /// Predictor-health snapshot for trust-adaptive schedulers (sched/
  /// trust.hpp); null for methods that do not consume it.
  const TrustSignals* trust = nullptr;
  /// Ascending positions in `vms` whose view may differ from the one the
  /// previous place() call on this scheduler saw; every other view is
  /// unchanged. Null means every view is new (the first placement of a
  /// run, and any caller that does not track changes). Schedulers that
  /// keep no state between calls ignore it.
  const std::vector<std::uint32_t>* changed_vms = nullptr;
};

/// One placement produced by place().
struct PlacementDecision {
  /// Indices into the arrival batch (1 or 2 jobs when packed).
  std::vector<std::size_t> batch_indices;
  std::uint32_t vm_id = 0;
  AllocationKind kind = AllocationKind::kReserved;
  /// Total resources set aside for the entity. For kReserved this is
  /// committed on the VM; for kOpportunistic it is the planned carve-out
  /// of predicted unused resource.
  ResourceVector allocated;
  /// Per-member allocation as a fraction of each member's request.
  /// Opportunistic placements are sized to expected demand plus headroom
  /// rather than the full reservation (Sec. III-B allocates "based on
  /// their resource demands").
  double request_fraction = 1.0;
};

/// Per-job demand history (one scalar series per resource type), used by
/// reprovision().
using DemandHistory = std::array<std::vector<double>, kNumResources>;

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual Method method() const = 0;

  /// Trains any internal demand predictors on historical *utilization
  /// fraction* series (demand / request in [0, 1]). Default: no-op.
  virtual void train(const predict::SeriesCorpus& utilization_corpus);

  /// Places the batch. Jobs absent from every decision could not be
  /// placed this slot (the simulator re-queues them). Implementations
  /// must not oversubscribe a VM within the batch: the views are
  /// snapshots, so schedulers track their own tentative consumption.
  virtual std::vector<PlacementDecision> place(
      const std::vector<const Job*>& batch, const SchedulerContext& ctx) = 0;

  /// Re-sizes a reserved job's allocation at a window boundary given its
  /// observed demand history. Returns the new target allocation (the
  /// simulator applies the commit/release delta, subject to VM capacity).
  /// Default: keep the current allocation.
  virtual ResourceVector reprovision(const Job& job,
                                     const DemandHistory& history,
                                     const ResourceVector& current);
};

}  // namespace corp::sched
