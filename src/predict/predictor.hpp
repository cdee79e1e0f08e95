// Predictor interface for per-resource unused-amount forecasting.
//
// Every method in the paper — CORP's DNN+HMM stack and the three baselines
// (RCCR's ETS, CloudScale's signature+Markov chain, DRA's run-time
// estimator) — reduces to the same contract: given the recent history of a
// scalar series (the temporarily-unused amount of one resource type on one
// VM/job), forecast the value `horizon` slots ahead.
//
// The contract is batch-first: callers gather one PredictionQuery per
// entity (job/VM) and submit them together through predict_batch, which
// lets the DNN stack run a single blocked GEMM over all rows instead of
// thousands of tiny matrix-vector products per slot. The default
// predict_batch adapter loops the scalar path, so baselines stay correct
// without opting in; see docs/batching.md for the determinism contract.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

namespace corp::util {
class ThreadPool;
}  // namespace corp::util

namespace corp::predict {

/// A training corpus: multiple independent historical series (one per
/// job/VM observed in the warm-up period).
using SeriesCorpus = std::vector<std::vector<double>>;

/// One forecast request: a chronological history view plus the horizon in
/// slots. The history span is non-owning — it must stay valid for the
/// duration of the predict/predict_batch call.
struct PredictionQuery {
  std::size_t horizon = 0;
  std::span<const double> history;
};

/// A batch of queries evaluated in one call. `pool` (optional, non-owning)
/// lets batch-aware implementations shard rows across threads; results are
/// bit-identical with or without it.
struct BatchRequest {
  std::vector<PredictionQuery> queries;
  util::ThreadPool* pool = nullptr;
};

/// Forecasts in query order: values[i] answers queries[i].
struct BatchResult {
  std::vector<double> values;
};

class SeriesPredictor {
 public:
  virtual ~SeriesPredictor() = default;

  /// Fits model parameters on historical series. Called once before the
  /// simulation run (the paper trains on historical Google-trace data).
  virtual void train(const SeriesCorpus& corpus) = 0;

  /// Forecasts the series value `query.horizon` steps after the end of
  /// `query.history`. Implementations must tolerate short histories (fewer
  /// samples than their preferred lookback).
  virtual double predict(const PredictionQuery& query) = 0;

  /// Evaluates every query in the batch. Results are bit-identical to
  /// calling predict() on each query in order; the default adapter does
  /// exactly that, so scalar-only baselines inherit correct behavior.
  virtual BatchResult predict_batch(const BatchRequest& request) {
    BatchResult result;
    result.values.reserve(request.queries.size());
    for (const PredictionQuery& query : request.queries) {
      result.values.push_back(predict(query));
    }
    return result;
  }

  virtual std::string_view name() const = 0;
};

/// The provisioning methods compared in Sec. IV, plus kPredAware — the
/// prediction-aware online allocator with an explicit consistency–
/// robustness trust knob (Buchbinder et al.): CORP's scheduler built with
/// a trust input (sched/corp_scheduler.hpp). It runs CORP's prediction
/// stack, so it is not part of the paper-figure method set below.
enum class Method { kCorp, kRccr, kCloudScale, kDra, kPredAware };

std::string_view method_name(Method m);

/// The four methods of the paper's Sec. IV figures. kPredAware is
/// deliberately excluded: the robustness-frontier bench sweeps it
/// explicitly against CORP/RCCR instead.
inline constexpr Method kAllMethods[] = {Method::kCorp, Method::kRccr,
                                         Method::kCloudScale, Method::kDra};

}  // namespace corp::predict
