#include "sim/shard_engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <ranges>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/sharding.hpp"
#include "dnn/network.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "sched/corp_scheduler.hpp"
#include "sched/trust.hpp"
#include "sim/slot_clock.hpp"
#include "util/seed_streams.hpp"
#include "util/stats.hpp"

namespace corp::sim {

namespace {

using Clock = std::chrono::steady_clock;
using trace::Job;
using trace::kNumResources;
using trace::ResourceVector;

/// Resource weights omega = (0.4, 0.4, 0.2) of Eq. 2.
constexpr trace::ResourceWeights kWeights{};

double elapsed_ms(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Bottleneck satisfaction ratio: min over resource types with non-trivial
/// demand of received/desired, in [0, 1].
double bottleneck_ratio(const ResourceVector& received,
                        const ResourceVector& desired) {
  constexpr double kEps = 1e-9;
  double ratio = 1.0;
  for (std::size_t r = 0; r < kNumResources; ++r) {
    if (desired[r] > kEps) {
      ratio = std::min(ratio, received[r] / desired[r]);
    }
  }
  return std::clamp(ratio, 0.0, 1.0);
}

/// One running job. Lives in its VM's shard block; `seq` is the global
/// admission sequence number assigned at placement, the sort key of every
/// cross-shard gather (shard rosters stay seq-sorted by construction:
/// removals are stable compactions and placements append strictly
/// increasing seqs).
struct RunningJob {
  const Job* job = nullptr;
  std::uint64_t seq = 0;
  std::uint32_t vm_id = 0;
  sched::AllocationKind kind = sched::AllocationKind::kReserved;
  ResourceVector allocated;
  double progress = 0.0;
  sched::DemandHistory demand_history;
  std::array<std::vector<double>, kNumResources> unused_history;
  /// Normalized (fraction-space) forecast awaiting its Eq. 20 outcome.
  std::optional<ResourceVector> pending_prediction;
  std::size_t slots_since_prediction = 0;
  /// Latest per-window unused forecast, aggregated into the VM view.
  ResourceVector cached_prediction;
  bool has_cached_prediction = false;
  /// Health tier the cached forecast was produced under; the window
  /// cadence invalidates the cache when the predictor changes tier.
  predict::DegradationTier forecast_tier = predict::DegradationTier::kPrimary;
  /// Window-cadence refresh forced by an Eq. 20 pledge resolving this
  /// slot (re-pledging must not wait for the next watermark).
  bool refresh_due = false;
  /// Consecutive slots an opportunistic tenant made ~no progress.
  std::size_t starved_slots = 0;
};

/// A shard-local effect that must be applied globally at the slot
/// barrier, in seq order across shards.
struct SlotEvent {
  enum class Kind : std::uint8_t {
    kComplete = 0,  // record in the SLO tracker
    kRequeue = 1,   // preempted opportunistic lease: resubmit the job
  };
  std::uint64_t seq = 0;
  Kind kind = Kind::kComplete;
  const Job* job = nullptr;
};

/// One shard: a contiguous VM block plus structure-of-arrays job state.
/// Workers touch only their own shard during parallel phases; everything
/// that crosses shards is staged in the event/sample buffers and merged
/// serially at the barrier.
struct Shard {
  cluster::ShardRange vms;
  std::vector<RunningJob> jobs;  // invariant: sorted by seq

  // --- per-slot scratch, parallel arrays over `jobs` -------------------
  std::vector<ResourceVector> desired;
  std::vector<ResourceVector> received;
  std::vector<cluster::AllocationSample> samples;
  // Dense per-VM accumulators, indexed vm_id - vms.begin (replaces the
  // historical per-slot hash maps: no hashing on the hot path, and the
  // per-VM accumulation order is the shard-roster seq order).
  std::vector<ResourceVector> vm_consumed;
  std::vector<ResourceVector> vm_opp_want;
  // Shard-local reserved-job tally per partition (heterogeneous caps);
  // merged serially at the barrier with commutative integer adds.
  std::vector<std::size_t> partition_reserved;
  // --- barrier staging -------------------------------------------------
  std::vector<SlotEvent> events;
  std::vector<std::size_t> matured;           // job indices, seq order
  std::vector<ResourceVector> matured_actual;  // aligned with `matured`
  // --- per-slot tallies (merged with commutative integer adds) ---------
  std::size_t gaps = 0;
  std::size_t promotions = 0;
  std::size_t preemptions = 0;
  // --- incremental views (build_views) ---------------------------------
  // VMs whose view may differ from the last build's: every VM that hosted
  // a job at it, and every VM whose ledger moved since (repeats allowed).
  std::vector<std::uint32_t> dirty;
  std::vector<std::uint32_t> changed;  // this build's, sorted unique
};

/// K-way sorted gather: visits (shard, index) pairs in ascending seq
/// order across shards. Seqs are globally unique, and each shard's list
/// is pre-sorted, so a linear cursor scan per step is exact; shard
/// counts are small, so the scan beats a heap.
template <typename SizeFn, typename SeqFn, typename VisitFn>
void merge_by_seq(std::size_t num_shards, const SizeFn& size_of,
                  const SeqFn& seq_of, const VisitFn& visit) {
  std::vector<std::size_t> cursor(num_shards, 0);
  for (;;) {
    std::size_t best = num_shards;
    std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t s = 0; s < num_shards; ++s) {
      if (cursor[s] < size_of(s)) {
        const std::uint64_t seq = seq_of(s, cursor[s]);
        if (seq < best_seq) {
          best = s;
          best_seq = seq;
        }
      }
    }
    if (best == num_shards) break;
    visit(best, cursor[best]++);
  }
}

/// Crash-killed jobs waiting out their retry backoff.
struct PendingRetry {
  const Job* job = nullptr;
  std::int64_t release_slot = 0;
};

/// One shard per plan range. Per-VM execution scratch is sized once:
/// slots zero only the entries their jobs touch (O(roster), not
/// O(VMs/shard)); at a million VMs a full zeroing walk per slot costs
/// ~10 ms and would swamp every slot tick, busy or idle, drowning the
/// event clock's skip win.
std::vector<Shard> make_shards(const cluster::ShardPlan& plan) {
  std::vector<Shard> shards(plan.num_shards());
  for (std::size_t s = 0; s < plan.num_shards(); ++s) {
    shards[s].vms = plan.range(s);
    shards[s].vm_consumed.resize(shards[s].vms.size());
    shards[s].vm_opp_want.resize(shards[s].vms.size());
  }
  return shards;
}

/// Everything one ShardEngine::run owns, plus one member function per
/// slot phase, which run() calls in loop order. Parallel phases fan out
/// through for_each_shard and touch only shard-local state; cross-shard
/// effects merge serially in seq order.
struct RunState {
  const SimulationConfig& config;
  predict::VectorPredictor& predictor;
  sched::Scheduler& scheduler;
  std::unique_ptr<util::ThreadPool>& pool_slot;
  JobSource& source;

  // Metric handles hoisted out of the slot loop: the per-slot cost is a
  // handful of relaxed atomic adds when enabled, a null check when not.
  // Counters that mirror a SimulationResult tally are published from the
  // result once, in finish().
  obs::MetricRegistry& reg = obs::registry();
  const bool obs_on = reg.enabled();
  obs::Counter* m_attempts =
      obs_on ? &reg.counter("sim.placement_attempts") : nullptr;
  obs::Counter* m_failures =
      obs_on ? &reg.counter("sim.placement_failures") : nullptr;
  obs::PhaseStat* m_place_phase = obs_on ? &reg.phase("sim.place") : nullptr;
  obs::PhaseStat* m_predict_phase =
      obs_on ? &reg.phase("sim.predict") : nullptr;

  const Params& params = config.params;
  const std::size_t L = params.window_slots;
  const bool window_cadence = params.predict_cadence == PredictCadence::kWindow;
  const bool pred_aware = config.method == Method::kPredAware;
  const bool opportunistic_method = config.method == Method::kCorp ||
                                    config.method == Method::kRccr ||
                                    pred_aware;
  // P_th backing the trust signals' gate margin (pred-aware only).
  const double gate_probability_threshold =
      config.stack.value_or(params.stack_config()).probability_threshold;

  cluster::Cluster cluster{config.environment};
  cluster::SlotMetricsAccumulator metrics{kWeights};
  cluster::SloTracker slo{};
  util::Rng rng{config.seed ^ 0x9e3779b97f4a7c15ULL};
  const ResourceVector max_vm_capacity = cluster.max_vm_capacity();
  // Timeline denominator: VM capacities are fixed for the run.
  const double weighted_capacity =
      cluster.total_capacity().weighted_total(kWeights.w);

  // Shard layout: shards == 0 resolves to one shard per worker thread;
  // any request is clamped to the VM count, so a single VM (or an empty
  // cluster) always collapses to the serial single-shard layout.
  const std::size_t resolved_threads =
      util::ThreadPool::resolve(params.threads);
  const cluster::ShardPlan plan = cluster.shard_plan(
      params.shards == 0 ? resolved_threads : params.shards);
  std::vector<Shard> shards = make_shards(plan);
  std::uint64_t next_seq = 0;

  SimulationResult result{};
  std::vector<const Job*> queue{};  // FIFO; place() drains it whole
  double compute_ms = 0.0;
  double comm_us = 0.0;

  // Fault injection. The oracle hangs off its own derived seed stream and
  // with all rates zero is inert: none of the `faults_on` branches below
  // execute, no randomness is drawn, and the run is bit-identical to a
  // build without the subsystem. The crash plan spans the horizon known
  // at entry: exact for a materialized trace, but a streaming source
  // knows none yet, so `corpsim run --trace-file` rejects VM crashes.
  fault::FaultInjector injector{
      config.faults, util::derive_seed(config.seed, util::seed_stream::kFault),
      cluster.num_vms(), source.horizon_slots() + config.grace_slots + 1};
  const bool faults_on = injector.enabled();
  obs::Counter* m_stragglers =
      obs_on && faults_on ? &reg.counter("fault.straggler_placements")
                          : nullptr;

  std::vector<PendingRetry> retries{};
  std::unordered_map<std::uint64_t, std::size_t> crash_kills{};

  // Merged per-slot sample buffer (global seq order), reused across slots.
  std::vector<cluster::AllocationSample> slot_samples{};

  // Scheduler view table, allocated once and kept current across
  // placement slots: build_views rewrites only the views that can have
  // changed and hands their positions to the scheduler.
  std::vector<sched::VmView> views =
      std::vector<sched::VmView>(cluster.num_vms());
  std::vector<std::uint32_t> changed_vms{};
  bool views_built = false;

  // Heterogeneous partition admission caps: active only when some node
  // class limits its concurrently reserved jobs. Counts are recomputed
  // from the shard rosters every placement slot (no incremental counter
  // to race with parallel completions), merged serially in build_views.
  const std::size_t num_partitions = cluster.num_partitions();
  const bool partition_caps = [this] {
    for (std::size_t p = 0; p < num_partitions; ++p) {
      if (cluster.partition_reserved_cap(p) > 0) return true;
    }
    return false;
  }();
  std::vector<std::size_t> partition_reserved =
      std::vector<std::size_t>(num_partitions, 0);
  std::vector<std::uint8_t> partition_open =
      std::vector<std::uint8_t>(num_partitions, 1);

  // Per-slot marks: SLO tallies before this slot's completions (timeline
  // deltas) and the grace cutoff as of this slot's termination check.
  std::size_t completed_before = 0;
  std::size_t violations_before = 0;
  std::int64_t max_slot = 0;

  // Creates the owning Simulation's worker pool on first need. Pools are
  // gated on the *resolved* worker count: when the hardware only offers
  // one thread (threads == 0 on a single-core box), shipping work to a
  // one-worker pool is a context-switch round trip per dispatch with
  // nothing to overlap — the engine stays inline-serial instead.
  void ensure_pool(bool worth_it) {
    if (worth_it && resolved_threads > 1 && pool_slot == nullptr) {
      pool_slot = std::make_unique<util::ThreadPool>(params.threads);
    }
  }

  // Runs each shard's slot work, fanned out on the pool when one exists.
  // Shard bodies only touch shard-local state (their VM block, their job
  // roster, their staging buffers), so execution order cannot change any
  // result bit.
  void for_each_shard(const std::function<void(std::size_t)>& body) {
    if (pool_slot == nullptr || shards.size() <= 1) {
      for (std::size_t s = 0; s < shards.size(); ++s) body(s);
    } else {
      pool_slot->parallel_for(shards.size(), body);
    }
  }

  // Visits every running job in ascending seq order across shards.
  template <typename Visit>
  void for_each_running_by_seq(const Visit& visit) {
    merge_by_seq(
        shards.size(), [&](std::size_t s) { return shards[s].jobs.size(); },
        [&](std::size_t s, std::size_t i) { return shards[s].jobs[i].seq; },
        [&](std::size_t s, std::size_t i) { visit(shards[s].jobs[i]); });
  }

  std::size_t total_running() const {
    std::size_t n = 0;
    for (const Shard& shard : shards) n += shard.jobs.size();
    return n;
  }

  // The engine is done with `job` at slot t: its response time is scored
  // against its SLO threshold (as a permanent failure when `dropped`) and
  // the source may free it.
  void retire(const Job& job, std::int64_t t, bool dropped) {
    const auto response = static_cast<std::size_t>(t - job.submit_slot + 1);
    const double threshold =
        static_cast<double>(job.duration_slots) * job.slo_stretch +
        Params::kSloSlackSlots;
    if (dropped) {
      slo.record_failure(job.id, job.duration_slots, response, threshold);
    } else {
      slo.record(job.id, job.duration_slots, response, threshold);
    }
    source.retire(job);
  }

  // Committed fraction of total cluster capacity (weighted).
  double committed_fraction() const {
    const double committed =
        cluster.total_committed().weighted_total(kWeights.w);
    return weighted_capacity > 0.0 ? committed / weighted_capacity : 0.0;
  }

  // Records that a VM's reservation ledger moved (commit, release, crash,
  // recover), so the next build_views rebuilds its view. Serial phases
  // only; complete() appends to its own shard's list.
  void ledger_changed(std::uint32_t vm_id) {
    shards[plan.shard_of(vm_id)].dirty.push_back(vm_id);
  }

  // --- 0. fault transitions and retry release -------------------------
  // Serial: crashes are rare, and each transition touches exactly one
  // VM's shard block (stable compaction keeps the roster seq-sorted, so
  // the kill/retry event order is shard-count invariant).
  void release_faults_and_retries(std::int64_t t) {
    if (!faults_on) return;
    for (const fault::VmTransition& tr : injector.transitions_at(t)) {
      auto& vm = cluster.vm(tr.vm_id);
      ledger_changed(tr.vm_id);
      if (tr.up) {
        vm.recover();
        ++result.vm_recoveries;
        continue;
      }
      vm.crash();
      ++result.vm_crashes;
      // Every tenant dies with the VM — reserved and opportunistic
      // alike (the pool the latter ride is gone). Killed jobs restart
      // from scratch after a capped exponential backoff until their
      // retry budget is spent; the response clock keeps running, so
      // retries eat into the SLO threshold.
      Shard& shard = shards[plan.shard_of(tr.vm_id)];
      std::size_t write = 0;
      for (std::size_t i = 0; i < shard.jobs.size(); ++i) {
        RunningJob& rj = shard.jobs[i];
        if (rj.vm_id != tr.vm_id) {
          if (write != i) shard.jobs[write] = std::move(shard.jobs[i]);
          ++write;
          continue;
        }
        ++result.jobs_killed;
        const std::size_t attempt = ++crash_kills[rj.job->id];
        if (attempt > injector.config().retry_budget) {
          retire(*rj.job, t, /*dropped=*/true);
          ++result.jobs_dropped;
        } else {
          retries.push_back({rj.job, t + injector.retry_backoff(attempt)});
          ++result.job_retries;
        }
      }
      shard.jobs.resize(write);
    }
    for (std::size_t i = 0; i < retries.size();) {
      if (retries[i].release_slot <= t) {
        queue.push_back(retries[i].job);
        retries.erase(retries.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  // --- 1. arrivals ----------------------------------------------------
  // The source delivers this slot's jobs in (submit_slot, id) order —
  // the same order a sorted materialized trace yields — and, for the
  // streaming source, blocks on ingest until no late emission can still
  // land at or before t.
  void admit_arrivals(std::int64_t t) { source.poll(t, queue); }

  // --- 2. VM views (placement slots only) -----------------------------
  // A VM's view is a function of its ledger, the jobs it hosts, its
  // partition's admission flag and the predictor's gate, so only views
  // that can differ from the previous build are rebuilt: VMs hosting a
  // job now or at the previous build (forecasts move every slot, and a
  // departed tenant's share must go), VMs whose ledger moved since, and
  // every VM of a partition whose admission flag flipped. A run's first
  // build rebuilds every view. Each shard rebuilds its own slice with
  // rebuild_views. Returns the sorted changed positions for
  // SchedulerContext::changed_vms, or null on the first build (every view
  // is new).
  const std::vector<std::uint32_t>* build_views() {
    std::vector<std::uint8_t> flipped(num_partitions, 0);
    if (partition_caps) {
      for_each_shard([&](std::size_t s) {
        Shard& shard = shards[s];
        shard.partition_reserved.assign(num_partitions, 0);
        for (const RunningJob& rj : shard.jobs) {
          if (rj.kind == sched::AllocationKind::kReserved) {
            ++shard.partition_reserved[cluster.vm_partition(rj.vm_id)];
          }
        }
      });
      // Serial merge (commutative integer adds) of which partitions
      // still admit reservations.
      std::fill(partition_reserved.begin(), partition_reserved.end(),
                std::size_t{0});
      for (const Shard& shard : shards) {
        for (std::size_t p = 0; p < num_partitions; ++p) {
          partition_reserved[p] += shard.partition_reserved[p];
        }
      }
      for (std::size_t p = 0; p < num_partitions; ++p) {
        const std::size_t cap = cluster.partition_reserved_cap(p);
        const auto open =
            static_cast<std::uint8_t>(cap == 0 || partition_reserved[p] < cap);
        flipped[p] = static_cast<std::uint8_t>(open != partition_open[p]);
        partition_open[p] = open;
      }
    }
    const bool any_flipped =
        std::find(flipped.begin(), flipped.end(), 1) != flipped.end();
    const bool first = !views_built;
    views_built = true;
    for_each_shard([&](std::size_t s) {
      Shard& shard = shards[s];
      shard.changed.clear();
      if (first) {
        rebuild_views(shard, std::views::iota(shard.vms.begin, shard.vms.end),
                      views);
      } else {
        shard.changed.assign(shard.dirty.begin(), shard.dirty.end());
        for (const RunningJob& rj : shard.jobs) {
          shard.changed.push_back(rj.vm_id);
        }
        if (any_flipped) {
          for (std::uint32_t v = shard.vms.begin; v < shard.vms.end; ++v) {
            if (flipped[cluster.vm_partition(v)] != 0) {
              shard.changed.push_back(v);
            }
          }
        }
        std::sort(shard.changed.begin(), shard.changed.end());
        shard.changed.erase(
            std::unique(shard.changed.begin(), shard.changed.end()),
            shard.changed.end());
        rebuild_views(shard, shard.changed, views);
      }
      // A VM hosting a job now has a view the next build must revisit
      // (its forecasts move, or its last tenant leaves).
      shard.dirty.clear();
      for (const RunningJob& rj : shard.jobs) shard.dirty.push_back(rj.vm_id);
    });
#ifndef NDEBUG
    check_views();
#endif
    if (first) return nullptr;
    // Shards own ascending contiguous VM blocks, so the concatenation of
    // their sorted lists is sorted.
    changed_vms.clear();
    for (const Shard& shard : shards) {
      changed_vms.insert(changed_vms.end(), shard.changed.begin(),
                         shard.changed.end());
    }
    return &changed_vms;
  }

  // Rebuilds the views of `vms` (ascending, all in `shard`, covering
  // every VM that hosts one of its jobs) into `out`. Unallocated is read
  // from the ledger; predicted unused is the sum of the per-job cached
  // forecasts over reserved tenants, accumulated in roster seq order;
  // the admission flag is the partition's as of this build.
  template <typename Positions>
  void rebuild_views(const Shard& shard, const Positions& vms,
                     std::vector<sched::VmView>& out) const {
    const bool unlocked = opportunistic_method && predictor.unlocked();
    for (const std::uint32_t v : vms) {
      out[v] = sched::VmView{};
      out[v].vm_id = cluster.vm(v).id();
      out[v].unallocated = cluster.vm(v).unallocated();
      if (partition_caps) {
        out[v].accepts_reserved = partition_open[cluster.vm_partition(v)] != 0;
      }
    }
    if (!opportunistic_method) return;
    for (const RunningJob& rj : shard.jobs) {
      if (rj.kind == sched::AllocationKind::kReserved) {
        if (rj.has_cached_prediction) {
          out[rj.vm_id].predicted_unused += rj.cached_prediction;
        }
      } else {
        // Tenants already riding this VM's unused pool consume it:
        // without this subtraction the same pool would be pledged to
        // new tenants every slot until the donors starve.
        out[rj.vm_id].predicted_unused -= rj.allocated;
      }
    }
    for (const std::uint32_t v : vms) {
      sched::VmView& view = out[v];
      view.predicted_unused = view.predicted_unused.clamped_non_negative();
      // Predicted unused can never exceed what is committed.
      view.predicted_unused = ResourceVector::min(
          view.predicted_unused, cluster.vm(view.vm_id).committed());
      view.unlocked = unlocked && view.predicted_unused.total() > 0.0;
    }
  }

#ifndef NDEBUG
  // Debug builds: the incremental views must equal a full rebuild of
  // every view, bit for bit.
  void check_views() const {
    std::vector<sched::VmView> full(views.size());
    for (const Shard& shard : shards) {
      rebuild_views(shard, std::views::iota(shard.vms.begin, shard.vms.end),
                    full);
    }
    const auto same_bits = [](const ResourceVector& a,
                              const ResourceVector& b) {
      for (std::size_t r = 0; r < kNumResources; ++r) {
        if (std::bit_cast<std::uint64_t>(a[r]) !=
            std::bit_cast<std::uint64_t>(b[r])) {
          return false;
        }
      }
      return true;
    };
    for (std::size_t v = 0; v < views.size(); ++v) {
      const sched::VmView& a = views[v];
      const sched::VmView& b = full[v];
      if (a.vm_id != b.vm_id || a.unlocked != b.unlocked ||
          a.accepts_reserved != b.accepts_reserved ||
          !same_bits(a.predicted_unused, b.predicted_unused) ||
          !same_bits(a.unallocated, b.unallocated)) {
        throw std::logic_error("build_views: incremental view of VM " +
                               std::to_string(v) +
                               " differs from a full rebuild");
      }
    }
  }
#endif

  // --- 3. placement (placement slots only) ----------------------------
  // The decision itself stays centralized, slurmctld-style: the
  // scheduler sees every VM view and its decisions apply serially.
  void place(const std::vector<std::uint32_t>* changed) {
    std::vector<const Job*> batch;
    batch.swap(queue);
    sched::SchedulerContext ctx;
    ctx.vms = views;
    ctx.max_vm_capacity = max_vm_capacity;
    ctx.rng = &rng;
    ctx.changed_vms = changed;

    // Predictor-health snapshot for trust-adaptive scheduling. Sampled
    // in the serial centralized placement step from state that is
    // bit-identical across shard/thread counts (the monitor and the
    // trackers are fed in seq order), so the trust trajectory is too.
    sched::TrustSignals trust_signals;
    if (pred_aware) {
      trust_signals.tier = predictor.tier();
      trust_signals.window_fault_fraction =
          predictor.health().window_fault_fraction();
      double min_gate = 1.0;
      for (std::size_t r = 0; r < kNumResources; ++r) {
        min_gate = std::min(min_gate, predictor.stack(r).gate_probability());
      }
      trust_signals.min_gate_probability = min_gate;
      trust_signals.probability_threshold = gate_probability_threshold;
      ctx.trust = &trust_signals;
    }

    const auto start = Clock::now();
    const auto decisions = scheduler.place(batch, ctx);
    const double place_ms = elapsed_ms(start);
    compute_ms += place_ms;
    if (m_place_phase != nullptr) m_place_phase->add(place_ms);
    if (m_attempts != nullptr) m_attempts->add(batch.size());
    comm_us += config.environment.comm_overhead_us *
               static_cast<double>(decisions.size());

    std::vector<bool> placed(batch.size(), false);
    for (const auto& decision : decisions) {
      auto& vm = cluster.vm(decision.vm_id);
      if (partition_caps && decision.kind == sched::AllocationKind::kReserved) {
        // Hard admission check: the views advertised pre-batch counts,
        // so a batch of reserved placements can still overrun a
        // partition cap. Rejected members stay unplaced and requeue.
        const std::size_t p = cluster.vm_partition(decision.vm_id);
        const std::size_t cap = cluster.partition_reserved_cap(p);
        if (cap > 0 &&
            partition_reserved[p] + decision.batch_indices.size() > cap) {
          continue;
        }
        partition_reserved[p] += decision.batch_indices.size();
      }
      if (decision.kind == sched::AllocationKind::kReserved) {
        // The scheduler worked from a snapshot; clamp against the live
        // ledger to absorb floating-point dust.
        const ResourceVector amount =
            ResourceVector::min(decision.allocated, vm.unallocated());
        vm.commit(amount);
        ledger_changed(decision.vm_id);
        ++result.reserved_placements;
      } else {
        ++result.opportunistic_placements;
      }
      // Split the entity's allocation across members: each member is
      // accounted its own share. For reserved single jobs the decision
      // amount may be method-sized (CloudScale/DRA below request).
      const bool single = decision.batch_indices.size() == 1;
      Shard& shard = shards[plan.shard_of(decision.vm_id)];
      for (std::size_t member : decision.batch_indices) {
        placed[member] = true;
        const Job& job = *batch[member];
        if (m_stragglers != nullptr && injector.is_straggler(job.id)) {
          m_stragglers->add(1);
        }
        RunningJob rj;
        rj.job = &job;
        rj.seq = next_seq++;
        rj.vm_id = decision.vm_id;
        rj.kind = decision.kind;
        rj.allocated = single ? decision.allocated
                              : job.request * decision.request_fraction;
        shard.jobs.push_back(std::move(rj));
      }
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!placed[i]) {
        queue.push_back(batch[i]);
        if (m_failures != nullptr) m_failures->add(1);
      }
    }
  }

  // --- 4. execution (parallel per shard) + sample merge ---------------
  // Pass 1: reserved jobs receive min(demand, allocation); accumulate
  // per-VM consumption. Pass 2: opportunistic jobs share each VM's
  // *allocated-but-unused* resource (committed minus what the reserved
  // tenants actually consume) proportionally per resource type.
  // Uncommitted capacity is NOT donated — it is held for future
  // reservations — so when donor jobs peak, opportunistic tenants
  // starve; this is exactly the risk the prediction stack and the
  // Eq. 21 gate exist to manage. Pass 3: progress, histories, samples.
  // All state is shard-local; every VM's accumulation order is its
  // jobs' seq order, so the float sums are shard-count invariant.
  void execute(std::int64_t t) {
    for_each_shard([&](std::size_t s) {
      Shard& shard = shards[s];
      const std::size_t n = shard.jobs.size();
      shard.desired.resize(n);
      shard.received.resize(n);
      shard.samples.resize(n);
      // Zero only the scratch entries this slot's roster touches: later
      // passes never read a VM that hosts no job, so untouched (stale)
      // entries are unobservable and the walk stays O(roster) instead of
      // O(VMs/shard) — the difference between ~10 ms and ~1 us per slot
      // tick at a million VMs.
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t local_vm = shard.jobs[i].vm_id - shard.vms.begin;
        shard.vm_consumed[local_vm] = ResourceVector{};
        shard.vm_opp_want[local_vm] = ResourceVector{};
      }
      for (std::size_t i = 0; i < n; ++i) {
        RunningJob& rj = shard.jobs[i];
        const auto idx = static_cast<std::size_t>(rj.progress);
        shard.desired[i] = rj.job->demand_at(idx);
        if (faults_on && injector.is_straggler(rj.job->id)) {
          // Demand-spike straggler: inflate the demand curve, capped at
          // the request (a tenant cannot demand beyond its reservation).
          shard.desired[i] = ResourceVector::min(
              shard.desired[i] * injector.demand_multiplier(rj.job->id),
              rj.job->request);
        }
        const std::size_t local_vm = rj.vm_id - shard.vms.begin;
        if (rj.kind == sched::AllocationKind::kReserved) {
          shard.received[i] =
              ResourceVector::min(shard.desired[i], rj.allocated);
          shard.vm_consumed[local_vm] += shard.received[i];
        } else {
          shard.vm_opp_want[local_vm] +=
              ResourceVector::min(shard.desired[i], rj.allocated);
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        RunningJob& rj = shard.jobs[i];
        if (rj.kind != sched::AllocationKind::kOpportunistic) continue;
        const std::size_t local_vm = rj.vm_id - shard.vms.begin;
        const auto& vm = cluster.vm(rj.vm_id);
        const ResourceVector leftover =
            (vm.committed() - shard.vm_consumed[local_vm])
                .clamped_non_negative();
        const ResourceVector& want_total = shard.vm_opp_want[local_vm];
        const ResourceVector want =
            ResourceVector::min(shard.desired[i], rj.allocated);
        ResourceVector grant;
        for (std::size_t r = 0; r < kNumResources; ++r) {
          const double scale = want_total[r] > 1e-12
                                   ? std::min(1.0, leftover[r] / want_total[r])
                                   : 1.0;
          grant[r] = want[r] * scale;
        }
        shard.received[i] = grant;
      }
      shard.gaps = 0;
      for (std::size_t i = 0; i < n; ++i) {
        RunningJob& rj = shard.jobs[i];
        // Resource pressure slows execution convexly (thrashing): a slot
        // at satisfaction ratio rho advances rho^p slots of work.
        const double ratio = bottleneck_ratio(shard.received[i],
                                              shard.desired[i]);
        rj.progress += std::pow(ratio, params.contention_penalty);
        if (rj.kind == sched::AllocationKind::kOpportunistic) {
          if (ratio < 0.05) {
            ++rj.starved_slots;
          } else {
            rj.starved_slots = 0;
          }
        }
        // A telemetry gap drops this slot's unused observation: the
        // predictor sees a NaN marker (imputed downstream) instead of the
        // real sample. Demand history is the scheduler's own bookkeeping
        // and is not subject to telemetry loss.
        const bool gap = faults_on && injector.telemetry_gap(rj.job->id, t);
        if (gap) ++shard.gaps;
        for (std::size_t r = 0; r < kNumResources; ++r) {
          rj.demand_history[r].push_back(shard.desired[i][r]);
          // Unused history is request-normalized, matching the corpus the
          // prediction stacks were trained on.
          const double request = rj.job->request[r];
          rj.unused_history[r].push_back(
              gap ? std::numeric_limits<double>::quiet_NaN()
              : request > 0.0
                  ? std::max(0.0, rj.allocated[r] - shard.received[i][r]) /
                        request
                  : 0.0);
        }
        // Eq. 1's numerator is the job's demand d_{ij,t} — what it needs,
        // not what contention granted it; a squeezed job must not read as
        // perfectly utilized.
        shard.samples[i].demand = shard.desired[i];
        shard.samples[i].allocated =
            rj.kind == sched::AllocationKind::kReserved
                ? rj.allocated
                : ResourceVector::zero();
      }
    });

    // Barrier: deterministic sorted gather of the per-shard sample and
    // gap tallies. Samples feed the Eq. 1-4 sums in global seq order, so
    // the accumulator sees the exact serial addition order.
    slot_samples.clear();
    merge_by_seq(
        shards.size(), [&](std::size_t s) { return shards[s].samples.size(); },
        [&](std::size_t s, std::size_t i) { return shards[s].jobs[i].seq; },
        [&](std::size_t s, std::size_t i) {
          slot_samples.push_back(shards[s].samples[i]);
        });
    metrics.observe_slot(slot_samples);
    for (const Shard& shard : shards) result.telemetry_gaps += shard.gaps;
  }

  // --- 5. completions and opportunistic preemption (parallel) ---------
  // An opportunistic tenant whose donors departed has no pool left;
  // after a few starved slots its lease is preempted and the task is
  // resubmitted from scratch (opportunistic resources carry no
  // availability guarantee — Marshall et al.'s preemptible leases).
  // Lease promotion and the reservation release are VM-local, so each
  // shard applies them directly; SLO records and requeues are staged as
  // events and applied at the barrier in seq order.
  void complete(std::int64_t t) {
    completed_before = slo.completed();
    violations_before = slo.violations();
    for_each_shard([&](std::size_t s) {
      Shard& shard = shards[s];
      shard.events.clear();
      shard.promotions = 0;
      shard.preemptions = 0;
      std::size_t write = 0;
      for (std::size_t i = 0; i < shard.jobs.size(); ++i) {
        RunningJob& rj = shard.jobs[i];
        bool keep = true;
        if (rj.kind == sched::AllocationKind::kOpportunistic &&
            rj.starved_slots >= 3) {
          // Lease promotion first: if the VM has unallocated capacity the
          // provider simply commits it and the tenant continues as a
          // reserved job; only when the VM is genuinely full is the lease
          // preempted and the task resubmitted from scratch.
          auto& vm = cluster.vm(rj.vm_id);
          if (vm.can_commit(rj.allocated)) {
            vm.commit(rj.allocated);
            shard.dirty.push_back(rj.vm_id);
            rj.kind = sched::AllocationKind::kReserved;
            rj.starved_slots = 0;
            ++shard.promotions;
          } else {
            ++shard.preemptions;
            shard.events.push_back(
                {rj.seq, SlotEvent::Kind::kRequeue, rj.job});
            keep = false;
          }
        } else if (rj.progress + 1e-9 >=
                   static_cast<double>(rj.job->duration_slots)) {
          shard.events.push_back(
              {rj.seq, SlotEvent::Kind::kComplete, rj.job});
          if (rj.kind == sched::AllocationKind::kReserved) {
            cluster.vm(rj.vm_id).release(rj.allocated);
            shard.dirty.push_back(rj.vm_id);
          }
          keep = false;
        }
        if (keep) {
          if (write != i) shard.jobs[write] = std::move(shard.jobs[i]);
          ++write;
        }
      }
      shard.jobs.resize(write);
    });
    for (const Shard& shard : shards) {
      result.lease_promotions += shard.promotions;
      result.lease_preemptions += shard.preemptions;
    }
    merge_by_seq(
        shards.size(), [&](std::size_t s) { return shards[s].events.size(); },
        [&](std::size_t s, std::size_t i) { return shards[s].events[i].seq; },
        [&](std::size_t s, std::size_t i) {
          const SlotEvent& event = shards[s].events[i];
          if (event.kind == SlotEvent::Kind::kRequeue) {
            queue.push_back(event.job);
          } else {
            retire(*event.job, t, /*dropped=*/false);
          }
        });
  }

  // --- 6. predictions and re-provisioning -----------------------------
  // Short-lived jobs often finish before a full window elapses, so the
  // opportunistic methods refresh every reserved tenant's unused
  // forecast each slot (the paper's per-window forecast, rolled
  // forward), while Eq. 20 outcome feedback resolves one window after
  // each pledge. Demand-based methods re-size reservations once per
  // window instead.
  void predict_or_reprovision(std::int64_t t) {
    if (total_running() == 0) return;
    const auto start = Clock::now();
    if (opportunistic_method) {
      resolve_outcomes();
      refresh_forecasts(t);
    } else if ((t + 1) % static_cast<std::int64_t>(L) == 0) {
      reprovision();
    }
    const double predict_ms = elapsed_ms(start);
    compute_ms += predict_ms;
    if (m_predict_phase != nullptr) m_predict_phase->add(predict_ms);
  }

  // Pass 1 — resolve matured Eq. 20 outcomes for every reserved tenant
  // before any forecast is made, so the whole window's batch sees one
  // consistent error-tracker state. The window tail means are
  // shard-local math and fan out; the stateful record_outcome calls are
  // applied at the barrier in seq order.
  //
  // Only reserved tenants donate unused resource, and only their series
  // match the training distribution (a squeezed opportunistic tenant's
  // allocation-minus-received is an artifact of contention, not reusable
  // capacity).
  void resolve_outcomes() {
    for_each_shard([&](std::size_t s) {
      Shard& shard = shards[s];
      shard.matured.clear();
      shard.matured_actual.clear();
      for (std::size_t i = 0; i < shard.jobs.size(); ++i) {
        RunningJob& rj = shard.jobs[i];
        if (rj.kind != sched::AllocationKind::kReserved) continue;
        if (!rj.pending_prediction.has_value() ||
            rj.slots_since_prediction < L) {
          continue;
        }
        ResourceVector actual;
        for (std::size_t r = 0; r < kNumResources; ++r) {
          actual[r] = util::tail_mean(rj.unused_history[r], L);
        }
        shard.matured.push_back(i);
        shard.matured_actual.push_back(actual);
      }
    });
    merge_by_seq(
        shards.size(), [&](std::size_t s) { return shards[s].matured.size(); },
        [&](std::size_t s, std::size_t i) {
          return shards[s].jobs[shards[s].matured[i]].seq;
        },
        [&](std::size_t s, std::size_t i) {
          RunningJob& rj = shards[s].jobs[shards[s].matured[i]];
          predictor.record_outcome(shards[s].matured_actual[i],
                                   *rj.pending_prediction);
          rj.pending_prediction.reset();
          // A resolved pledge re-pledges on its next forecast; the
          // window cadence must not defer that to the next watermark.
          rj.refresh_due = true;
        });
  }

  // Pass 2 — deterministic sorted gather of reserved tenants in seq
  // order, then ONE batched predictor call for the whole window instead
  // of per-job scalar calls. Under the per-slot cadence every reserved
  // tenant is gathered; the window cadence gathers only tenants whose
  // forecast is actually stale — window watermark moved (history crossed
  // a multiple of L), Eq. 20 pledge just resolved, health tier changed,
  // or no cache yet — and keeps the others' pledge clocks ticking
  // exactly as the scatter below would. The skip predicate reads only
  // per-job state plus the serially-fed monitor tier, so the gathered
  // set (hence the monitor's observation stream) is bit-identical across
  // shard/thread counts and clock modes.
  void refresh_forecasts(std::int64_t t) {
    const predict::DegradationTier tier_now = predictor.tier();
    std::size_t amortized = 0;
    std::vector<RunningJob*> reserved;
    reserved.reserve(slot_samples.size());
    predict::VectorBatchRequest request;
    for_each_running_by_seq([&](RunningJob& rj) {
      if (rj.kind != sched::AllocationKind::kReserved) return;
      if (window_cadence && rj.has_cached_prediction && !rj.refresh_due &&
          rj.forecast_tier == tier_now &&
          rj.unused_history[0].size() % L != 0) {
        ++amortized;
        if (rj.pending_prediction.has_value()) ++rj.slots_since_prediction;
        return;
      }
      reserved.push_back(&rj);
      request.histories.push_back(&rj.unused_history);
    });
    result.predictions_amortized += amortized;
    if (faults_on) {
      request.faults.reserve(reserved.size());
      for (const RunningJob* rj : reserved) {
        predict::InjectedFaultVector injected{};
        for (std::size_t r = 0; r < kNumResources; ++r) {
          injected[r] = static_cast<predict::InjectedFault>(
              injector.predictor_fault(rj->job->id, t, r));
        }
        request.faults.push_back(injected);
      }
    }
    ensure_pool(reserved.size() >= dnn::kForwardBatchShardMinRows);
    request.pool = pool_slot.get();
    const std::vector<ResourceVector> fractions =
        predictor.predict_batch(request);

    // Pass 3 — scatter forecasts back into the per-(job, window) caches
    // and pledge bookkeeping, in the same seq order.
    const predict::DegradationTier tier_after = predictor.tier();
    for (std::size_t i = 0; i < reserved.size(); ++i) {
      RunningJob& rj = *reserved[i];
      const ResourceVector& fraction = fractions[i];
      for (std::size_t r = 0; r < kNumResources; ++r) {
        rj.cached_prediction[r] =
            std::clamp(fraction[r], 0.0, 1.0) * rj.job->request[r];
      }
      rj.has_cached_prediction = true;
      rj.forecast_tier = tier_after;
      rj.refresh_due = false;
      // Pledge a forecast into the Eq. 20/21 error accounting only
      // once the job has a full window of real history behind it;
      // scoring cold-start guesses would poison the gate with errors
      // no amount of prediction skill can remove.
      if (!rj.pending_prediction.has_value()) {
        if (rj.unused_history[0].size() >= L) {
          rj.pending_prediction = fraction;
          rj.slots_since_prediction = 0;
        }
      } else {
        ++rj.slots_since_prediction;
      }
    }
  }

  // Demand-based methods re-size reservations once per window. Serial in
  // seq order: the schedulers' internal forecasters are stateful, and
  // commit/release must apply in a canonical order.
  void reprovision() {
    for_each_running_by_seq([&](RunningJob& rj) {
      if (rj.kind != sched::AllocationKind::kReserved) return;
      const ResourceVector target =
          scheduler.reprovision(*rj.job, rj.demand_history, rj.allocated);
      auto& vm = cluster.vm(rj.vm_id);
      const ResourceVector grow =
          (target - rj.allocated).clamped_non_negative();
      const ResourceVector shrink =
          (rj.allocated - target).clamped_non_negative();
      const ResourceVector granted_grow =
          ResourceVector::min(grow, vm.unallocated());
      vm.commit(granted_grow);
      vm.release(shrink);
      ledger_changed(rj.vm_id);
      rj.allocated += granted_grow;
      rj.allocated -= shrink;
      rj.allocated = rj.allocated.clamped_non_negative();
    });
  }

  // --- 7. timeline (record_timeline only) -----------------------------
  void record_timeline(std::int64_t t) {
    if (!config.record_timeline) return;
    TimelineSample sample;
    sample.slot = t;
    for (const Shard& shard : shards) {
      for (const RunningJob& rj : shard.jobs) {
        if (rj.kind == sched::AllocationKind::kReserved) {
          ++sample.running_reserved;
        } else {
          ++sample.running_opportunistic;
        }
      }
    }
    sample.queued = queue.size();
    sample.overall_utilization =
        cluster::overall_utilization(slot_samples, kWeights);
    sample.committed_fraction = committed_fraction();
    sample.completions = slo.completed() - completed_before;
    sample.violations = slo.violations() - violations_before;
    result.timeline.add(sample);
  }

  // --- 8. termination -------------------------------------------------
  // The grace cutoff is only meaningful relative to the *full* trace
  // horizon, which a streaming source knows exactly once exhausted; for
  // a materialized trace, t >= max_slot already implies every arrival
  // was delivered, so gating the cutoff on exhaustion changes nothing.
  bool terminate(std::int64_t t) {
    const bool drained = queue.empty() && total_running() == 0 &&
                         retries.empty() && source.exhausted();
    max_slot = source.horizon_slots() + config.grace_slots;
    if (!drained && !(source.exhausted() && t >= max_slot)) return false;
    result.slots_simulated = t + 1;
    if (drained) return true;
    // Force-complete stragglers as violations, running jobs first (in
    // seq order across shards), then the queue, then pending retries.
    std::vector<const Job*> stragglers;
    for_each_running_by_seq(
        [&](const RunningJob& rj) { stragglers.push_back(rj.job); });
    stragglers.insert(stragglers.end(), queue.begin(), queue.end());
    for (const PendingRetry& pr : retries) stragglers.push_back(pr.job);
    for (const Job* job : stragglers) retire(*job, t, /*dropped=*/false);
    result.jobs_forced += stragglers.size();
    return true;
  }

  // --- 9. clock advance -----------------------------------------------
  // Busy slots always step densely: queued work retries placement (and
  // draws scheduler tie-breaks from the RNG) every slot, and running
  // jobs execute, complete and feed prediction. The event clock jumps
  // only provably inert spans (see sim/slot_clock.hpp for the no-op
  // argument), landing ON the earliest slot where any engine input can
  // change: the next arrival, crash-retry release or fault-plan
  // transition, or — once the source is exhausted — the grace cutoff, so
  // termination fires on exactly the dense slot. No pending event at all
  // degrades to a dense step, so the clock never stalls.
  std::int64_t advance_clock(std::int64_t t) {
    if (params.slot_clock != SlotClockMode::kEvent || !queue.empty() ||
        total_running() > 0) {
      return t + 1;
    }
    std::int64_t event = source.next_event_slot(t);
    for (const PendingRetry& pr : retries) {
      event = std::min(event, pr.release_slot);
    }
    if (faults_on) {
      event = std::min(event, injector.next_transition_slot(t + 1));
    }
    if (source.exhausted()) event = std::min(event, max_slot);
    if (event == kNoEventSlot) return t + 1;
    const std::int64_t next = std::max(t + 1, event);
    result.slots_skipped += next - (t + 1);
    if (config.record_timeline && next > t + 1) {
      // Closed-form fast-forward of the per-slot record: nothing runs
      // or queues on a jumped slot, its sample set is empty (utilization
      // 0), and no fault transition lands strictly inside the span, so
      // the idle sample the dense loop would emit is constant —
      // replicate it with only the slot number varying.
      TimelineSample idle;
      idle.committed_fraction = committed_fraction();
      for (std::int64_t u = t + 1; u < next; ++u) {
        idle.slot = u;
        result.timeline.add(idle);
      }
    }
    return next;
  }

  SimulationResult finish() {
    result.method = config.method;
    for (std::size_t r = 0; r < kNumResources; ++r) {
      const auto kind = static_cast<trace::ResourceKind>(r);
      result.mean_utilization[r] = metrics.mean_utilization(kind);
      result.mean_wastage[r] = metrics.mean_wastage(kind);
    }
    result.overall_utilization = metrics.mean_overall_utilization();
    result.overall_wastage = metrics.mean_overall_wastage();
    result.slo_violation_rate = slo.violation_rate();
    result.mean_stretch = slo.mean_stretch();
    result.jobs_completed = slo.completed();
    result.jobs_violated = slo.violations();
    result.degradation_tier = static_cast<int>(predictor.tier());
    if (pred_aware) {
      const auto* corp = dynamic_cast<const sched::CorpScheduler*>(&scheduler);
      if (corp != nullptr) result.trust_lambda = corp->current_trust();
    }
    result.compute_latency_ms = compute_ms;
    result.total_latency_ms = compute_ms + comm_us / 1000.0;
    if (obs_on) {
      reg.counter("sim.runs").add(1);
      reg.counter("sim.slot_ticks")
          .add(static_cast<std::uint64_t>(result.slots_ticked));
      reg.counter("sim.opportunistic_placements")
          .add(result.opportunistic_placements);
      reg.counter("sim.reserved_placements").add(result.reserved_placements);
      reg.counter("sim.gate_promotions").add(result.lease_promotions);
      reg.counter("sim.gate_preemptions").add(result.lease_preemptions);
      reg.counter("sim.jobs_completed").add(result.jobs_completed);
      reg.counter("sim.jobs_violated").add(result.jobs_violated);
      reg.histogram("sim.run_latency_ms").observe(result.total_latency_ms);
      // Event-clock counters are registered whenever metrics are on (a
      // zero is a meaningful reading: "nothing was skippable"), so
      // downstream schema gates can rely on their presence after any run.
      reg.counter("event.skipped_slots")
          .add(static_cast<std::uint64_t>(result.slots_skipped));
      reg.counter("event.predictions_amortized")
          .add(result.predictions_amortized);
    }
    if (obs_on && faults_on) {
      reg.counter("fault.vm_crashes").add(result.vm_crashes);
      reg.counter("fault.vm_recoveries").add(result.vm_recoveries);
      reg.counter("fault.jobs_killed").add(result.jobs_killed);
      reg.counter("fault.job_retries").add(result.job_retries);
      reg.counter("fault.jobs_dropped").add(result.jobs_dropped);
      reg.counter("fault.telemetry_gaps").add(result.telemetry_gaps);
    }
    return std::move(result);
  }
};

}  // namespace

ShardEngine::ShardEngine(const SimulationConfig& config,
                         predict::VectorPredictor& predictor,
                         sched::Scheduler& scheduler,
                         std::unique_ptr<util::ThreadPool>& pool_slot)
    : config_(config),
      predictor_(predictor),
      scheduler_(scheduler),
      pool_slot_(pool_slot) {}

SimulationResult ShardEngine::run(JobSource& source) {
  const obs::ScopedTimer run_timer("sim.run");
  RunState state{config_, predictor_, scheduler_, pool_slot_, source};
  state.ensure_pool(state.shards.size() > 1);
  for (std::int64_t t = 0;; t = state.advance_clock(t)) {
    ++state.result.slots_ticked;
    state.release_faults_and_retries(t);
    state.admit_arrivals(t);
    if (!state.queue.empty()) {
      state.place(state.build_views());
    }
    state.execute(t);
    state.complete(t);
    state.predict_or_reprovision(t);
    state.record_timeline(t);
    if (state.terminate(t)) break;
  }
  return state.finish();
}

}  // namespace corp::sim
