#include "predict/vector_predictor.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "predict/stacks.hpp"
#include "util/thread_pool.hpp"

namespace corp::predict {

void VectorCorpus::add_series(const std::vector<ResourceVector>& series) {
  for (std::size_t r = 0; r < kNumResources; ++r) {
    std::vector<double> scalar;
    scalar.reserve(series.size());
    for (const auto& v : series) scalar.push_back(v[r]);
    per_type[r].push_back(std::move(scalar));
  }
}

bool VectorCorpus::empty() const {
  for (const auto& corpus : per_type) {
    if (!corpus.empty()) return false;
  }
  return true;
}

bool impute_gaps(const std::vector<double>& series,
                 std::vector<double>& imputed) {
  bool has_gap = false;
  for (double x : series) {
    if (!std::isfinite(x)) {
      has_gap = true;
      break;
    }
  }
  if (!has_gap) return false;
  imputed = series;
  // Forward fill, then back-fill any leading gap with the first finite
  // value (0 when the series is all gaps).
  double last = std::numeric_limits<double>::quiet_NaN();
  for (double& x : imputed) {
    if (std::isfinite(x)) {
      last = x;
    } else if (std::isfinite(last)) {
      x = last;
    }
  }
  double first = 0.0;
  for (double x : imputed) {
    if (std::isfinite(x)) {
      first = x;
      break;
    }
  }
  for (double& x : imputed) {
    if (!std::isfinite(x)) x = first;
  }
  return true;
}

VectorPredictor::VectorPredictor(Method method, const StackConfig& config,
                                 util::Rng& rng, bool enable_hmm_correction,
                                 bool enable_confidence_bound)
    : method_(method) {
  for (std::size_t r = 0; r < kNumResources; ++r) {
    stacks_[r] = make_stack(method, config, rng, enable_hmm_correction,
                            enable_confidence_bound);
  }
  // The fallback rung is the conservative ETS lower-bound stack. When the
  // primary already is that stack (RCCR) the ladder skips straight to
  // reserved-only. Constructing it consumes no draws from `rng` (the ETS
  // stack is deterministic), so fault-free streams are unchanged.
  if (method != Method::kRccr) {
    for (std::size_t r = 0; r < kNumResources; ++r) {
      fallback_[r] = make_stack(Method::kRccr, config, rng);
    }
  }
}

void VectorPredictor::train(const VectorCorpus& corpus,
                            util::ThreadPool* pool) {
  std::array<obs::GaugeLog, kNumResources> gauges;
  const auto train_type = [&](std::size_t r) {
    const obs::ScopedGaugeCapture capture(gauges[r]);
    stacks_[r]->train(corpus.per_type[r]);
    if (fallback_[r]) fallback_[r]->train(corpus.per_type[r]);
  };
  if (pool != nullptr && pool->size() > 1) {
    pool->parallel_for(kNumResources, train_type);
  } else {
    for (std::size_t r = 0; r < kNumResources; ++r) train_type(r);
  }
  for (const obs::GaugeLog& log : gauges) log.publish(obs::registry());
}

ResourceVector VectorPredictor::predict(
    const std::array<std::vector<double>, kNumResources>& history,
    const InjectedFaultVector& faults) {
  ResourceVector out;
  for (std::size_t r = 0; r < kNumResources; ++r) {
    const std::vector<double>* series = &history[r];
    if (impute_gaps(history[r], imputed_)) series = &imputed_;
    double raw = stacks_[r]->predict(*series);
    switch (faults[r]) {
      case InjectedFault::kNone:
        break;
      case InjectedFault::kNan:
        raw = std::numeric_limits<double>::quiet_NaN();
        break;
      case InjectedFault::kExplode:
        // Magnitude blow-up: the analogue of a sigma explosion escaping
        // the confidence-bound arithmetic.
        raw = (std::isfinite(raw) ? std::abs(raw) + 1.0 : 1.0) * 1e9;
        break;
    }
    // The monitor sees every raw primary forecast — also while degraded,
    // so recovery (and continued poisoning) is observed without acting on
    // the value.
    const bool ok = monitor_.observe(raw);
    switch (monitor_.tier()) {
      case DegradationTier::kPrimary:
        // A transient fault inside the healthy tier: substitute the
        // fallback's value for this sample (0 without a fallback rung).
        out[r] = ok ? raw
                    : (fallback_[r] ? fallback_[r]->predict(*series) : 0.0);
        break;
      case DegradationTier::kFallback:
        out[r] = fallback_[r] ? fallback_[r]->predict(*series) : 0.0;
        break;
      case DegradationTier::kReservedOnly:
        out[r] = 0.0;
        break;
    }
  }
  return out;
}

std::vector<ResourceVector> VectorPredictor::predict_batch(
    const VectorBatchRequest& request) {
  const std::size_t n = request.histories.size();
  if (!request.faults.empty() && request.faults.size() != n) {
    throw std::invalid_argument(
        "VectorPredictor::predict_batch: faults/histories size mismatch");
  }
  if (obs::registry().enabled()) {
    obs::registry().counter("predict.batch.vector_calls").add(1);
    obs::registry().counter("predict.batch.vector_rows").add(n);
  }

  // Phase A — pure inference: one batched stack call per resource type
  // over every row. Imputed buffers are owned here (the spans handed to
  // the stacks must outlive the call); moving the outer vector's elements
  // never relocates their heap data, so the views stay valid.
  std::vector<std::vector<double>> imputed_store;
  std::array<std::vector<std::span<const double>>, kNumResources> views;
  std::array<std::vector<double>, kNumResources> raw;
  BatchRequest batch;
  batch.pool = request.pool;
  for (std::size_t r = 0; r < kNumResources; ++r) {
    views[r].resize(n);
    batch.queries.clear();
    batch.queries.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<double>& series = (*request.histories[i])[r];
      std::vector<double> imputed;
      if (impute_gaps(series, imputed)) {
        imputed_store.push_back(std::move(imputed));
        views[r][i] = imputed_store.back();
      } else {
        views[r][i] = series;
      }
      batch.queries.push_back(
          PredictionQuery{.horizon = 0, .history = views[r][i]});
    }
    raw[r] = stacks_[r]->predict_batch(batch).values;
  }

  // Phase B — stateful dispatch, serially in the scalar path's order
  // (job-major, resource-minor) so health-monitor transitions mid-batch
  // land on exactly the rows they would in a sequential sweep.
  std::vector<ResourceVector> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t r = 0; r < kNumResources; ++r) {
      double value = raw[r][i];
      const InjectedFault fault =
          request.faults.empty() ? InjectedFault::kNone : request.faults[i][r];
      switch (fault) {
        case InjectedFault::kNone:
          break;
        case InjectedFault::kNan:
          value = std::numeric_limits<double>::quiet_NaN();
          break;
        case InjectedFault::kExplode:
          value = (std::isfinite(value) ? std::abs(value) + 1.0 : 1.0) * 1e9;
          break;
      }
      const bool ok = monitor_.observe(value);
      switch (monitor_.tier()) {
        case DegradationTier::kPrimary:
          out[i][r] = ok ? value
                         : (fallback_[r] ? fallback_[r]->predict(views[r][i])
                                         : 0.0);
          break;
        case DegradationTier::kFallback:
          out[i][r] = fallback_[r] ? fallback_[r]->predict(views[r][i]) : 0.0;
          break;
        case DegradationTier::kReservedOnly:
          out[i][r] = 0.0;
          break;
      }
    }
  }
  return out;
}

void VectorPredictor::record_outcome(const ResourceVector& actual,
                                     const ResourceVector& predicted) {
  for (std::size_t r = 0; r < kNumResources; ++r) {
    stacks_[r]->record_outcome(actual[r], predicted[r]);
    if (fallback_[r]) fallback_[r]->record_outcome(actual[r], predicted[r]);
  }
}

bool VectorPredictor::unlocked() const {
  switch (monitor_.tier()) {
    case DegradationTier::kReservedOnly:
      return false;
    case DegradationTier::kFallback:
      for (const auto& stack : fallback_) {
        if (!stack || !stack->unlocked()) return false;
      }
      return true;
    case DegradationTier::kPrimary:
      break;
  }
  for (const auto& stack : stacks_) {
    if (!stack->unlocked()) return false;
  }
  return true;
}

}  // namespace corp::predict
