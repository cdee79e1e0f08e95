// The three baseline schedulers of Sec. IV.
//
// RCCR       — opportunistic reuse of predicted-unused resource like CORP,
//              but a *random* feasible VM and no packing.
// CloudScale — demand-based: allocates a fresh reservation sized from its
//              PRESS/Markov utilization forecast plus adaptive padding;
//              random feasible VM; re-provisions each window.
// DRA        — share-based: each job's allocation is its request capped by
//              its share entitlement (4:2:1 high/medium/low mix); random
//              feasible VM; no opportunistic reuse, no fluctuation
//              handling.
#pragma once

#include <array>

#include "predict/markov_predictor.hpp"
#include "sched/scheduler.hpp"

namespace corp::sched {

class RccrScheduler final : public Scheduler {
 public:
  RccrScheduler() = default;

  Method method() const override { return Method::kRccr; }

  std::vector<PlacementDecision> place(const std::vector<const Job*>& batch,
                                       const SchedulerContext& ctx) override;
};

struct CloudScaleSchedulerConfig {
  /// Scale on all padding; the SLO-vs-utilization sweep's knob.
  double padding_scale = 1.0;
};

class CloudScaleScheduler final : public Scheduler {
 public:
  /// Allocation floor/ceiling as a fraction of the declared request. The
  /// ceiling sits below 1 — CloudScale sizes to predicted demand, so it
  /// never re-inflates to the full reservation — which pinches jobs
  /// during demand peaks (its SLO cost in Figs. 8-9).
  static constexpr double kMinFraction = 0.30;
  static constexpr double kMaxFraction = 0.90;

  explicit CloudScaleScheduler(CloudScaleSchedulerConfig config = {});

  Method method() const override { return Method::kCloudScale; }

  /// Trains the per-type Markov utilization forecasters.
  void train(const predict::SeriesCorpus& utilization_corpus) override;

  std::vector<PlacementDecision> place(const std::vector<const Job*>& batch,
                                       const SchedulerContext& ctx) override;

  ResourceVector reprovision(const Job& job, const DemandHistory& history,
                             const ResourceVector& current) override;

 private:
  double corpus_mean_utilization_ = 0.6;
  CloudScaleSchedulerConfig config_;
  std::array<predict::MarkovChainPredictor, kNumResources> forecasters_;
  bool trained_ = false;
};

struct DraSchedulerConfig {
  /// Scale on entitlements; the SLO-vs-utilization sweep's knob.
  double entitlement_scale = 1.0;
};

class DraScheduler final : public Scheduler {
 public:
  explicit DraScheduler(DraSchedulerConfig config = {});

  Method method() const override { return Method::kDra; }

  std::vector<PlacementDecision> place(const std::vector<const Job*>& batch,
                                       const SchedulerContext& ctx) override;

  ResourceVector reprovision(const Job& job, const DemandHistory& history,
                             const ResourceVector& current) override;

  /// Share class of a job (deterministic 4:2:1-style mix by id).
  std::size_t share_class(const Job& job) const;

 private:
  ResourceVector entitled_allocation(const Job& job) const;

  DraSchedulerConfig config_;
};

}  // namespace corp::sched
