// Multi-resource predictor: one PredictionStack per resource type,
// operating on ResourceVector series. This is the object the schedulers
// hold — "CORP periodically predicts the allocated and unused resources in
// each VM" (Sec. III-B) — shared across VMs (the model is global; the
// per-VM state is just the history series the caller supplies).
//
// Resilience: a PredictorHealthMonitor inspects every raw forecast and
// drives a graceful-degradation ladder (primary stack -> conservative ETS
// lower-bound fallback -> reserved-only, see health_monitor.hpp), and
// NaN-marked telemetry gaps in the history are imputed (last observation
// carried forward) instead of crashing the stacks. Both paths are inert
// on healthy input: fault-free runs stay bit-identical.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "predict/health_monitor.hpp"
#include "predict/stacks.hpp"
#include "trace/resources.hpp"

namespace corp::predict {

using trace::kNumResources;
using trace::ResourceVector;

/// Per-resource-type training corpora.
struct VectorCorpus {
  std::array<SeriesCorpus, kNumResources> per_type;

  /// Appends one multi-resource series, splitting it per type.
  void add_series(const std::vector<ResourceVector>& series);

  bool empty() const;
};

/// Per-type fault directives applied to the raw forecasts of one predict
/// call (from the fault-injection layer; all-kNone = no poisoning).
using InjectedFaultVector = std::array<InjectedFault, kNumResources>;

/// Replaces non-finite entries (telemetry-gap markers) with the last
/// finite observation before them (first finite one for a leading gap;
/// 0 when the series has no finite entry). Returns false when the series
/// had no gaps (output untouched — callers keep the original buffer).
bool impute_gaps(const std::vector<double>& series,
                 std::vector<double>& imputed);

/// One predict() call's worth of input for every job in a window,
/// submitted together so each resource type's stack runs one batched
/// (GEMM for CORP) inference over all jobs. History pointers are
/// non-owning and must stay valid for the duration of the call.
struct VectorBatchRequest {
  std::vector<const std::array<std::vector<double>, kNumResources>*>
      histories;
  /// Per-job fault directives; empty means no poisoning, otherwise must
  /// have one entry per history.
  std::vector<InjectedFaultVector> faults;
  util::ThreadPool* pool = nullptr;
};

class VectorPredictor {
 public:
  VectorPredictor(Method method, const StackConfig& config, util::Rng& rng,
                  bool enable_hmm_correction = true,
                  bool enable_confidence_bound = true);

  Method method() const { return method_; }

  /// Trains each resource type's stack and its fallback as one task,
  /// concurrently on `pool` when it has more than one worker (each stack
  /// owns a forked RNG and writes only its own state, so the weights do
  /// not depend on the schedule). Gauges the fits set are captured per
  /// resource and published after the join in resource order, so a
  /// metrics snapshot reads as after a serial run.
  void train(const VectorCorpus& corpus, util::ThreadPool* pool = nullptr);

  /// Forecasts the unused vector at t + L from per-type histories.
  /// Histories may contain NaN gap markers (imputed before prediction).
  /// `faults` poisons the raw per-type forecasts before the health
  /// monitor inspects them (fault-injection hook; defaults to none).
  ResourceVector predict(
      const std::array<std::vector<double>, kNumResources>& history,
      const InjectedFaultVector& faults = {});

  /// Batched predict(): one forecast vector per request row, bit-identical
  /// to calling predict() on each (history, faults) pair in order. Phase A
  /// runs each resource type's stack once over all rows (the stacks are
  /// pure during prediction); phase B replays fault injection, health
  /// observation, and tier dispatch serially in the scalar path's
  /// job-major/resource-minor order, so mid-batch demotions affect later
  /// rows exactly as sequential calls would.
  std::vector<ResourceVector> predict_batch(const VectorBatchRequest& request);

  /// Records actual-vs-predicted per type (Eq. 20 feedback). Feeds the
  /// active tier's trackers (fallback included, so it is warm on demotion).
  void record_outcome(const ResourceVector& actual,
                      const ResourceVector& predicted);

  /// Eq. 21: the prediction is reallocatable only when every resource
  /// type's gate opens (a packed job needs all types simultaneously) AND
  /// the health monitor has not degraded to reserved-only provisioning.
  bool unlocked() const;

  /// Current degradation rung (see health_monitor.hpp).
  DegradationTier tier() const { return monitor_.tier(); }
  const PredictorHealthMonitor& health() const { return monitor_; }

  PredictionStack& stack(std::size_t type) { return *stacks_[type]; }
  const PredictionStack& stack(std::size_t type) const {
    return *stacks_[type];
  }

 private:
  Method method_;
  std::array<std::unique_ptr<PredictionStack>, kNumResources> stacks_;
  /// Conservative ETS lower-bound stacks backing the kFallback rung; null
  /// when the primary already is the ETS stack (ladder skips the rung).
  std::array<std::unique_ptr<PredictionStack>, kNumResources> fallback_;
  PredictorHealthMonitor monitor_;
  /// Scratch buffer reused by gap imputation.
  std::vector<double> imputed_;
};

}  // namespace corp::predict
