// Per-job prediction-error evaluation (Fig. 6).
//
// Sec. IV: "We first calculated the prediction error of CPU by subtracting
// the predicted amount of unused resource from the actual amount ... for
// each job. Then we calculated the ratio of the correctly predicted jobs
// (the jobs whose prediction errors are within [0, eps)) to the number of
// jobs" — reported as the prediction error rate (fraction NOT correctly
// predicted, which is what Fig. 6 plots: lower is better and CORP is
// lowest).
//
// Protocol: each job's unused-CPU series is split in half; the method's
// full prediction stack sees the first half and forecasts; the actual
// value is the mean unused CPU over the second half. A job is correct when
// delta = actual - predicted lies in [0, eps), eps being 0.9 x the trace's
// mean unused CPU. Jobs shorter than one window (6 slots) are skipped:
// with less history there is nothing for any method to predict from.
#pragma once

#include "predict/vector_predictor.hpp"
#include "trace/job.hpp"

namespace corp::sim {

struct PredictionEvalResult {
  std::size_t jobs_evaluated = 0;
  std::size_t jobs_correct = 0;
  /// 1 - correct/evaluated; 0 when nothing was evaluated.
  double error_rate = 0.0;
  double mean_error = 0.0;       // mean delta (bias)
  double mean_abs_error = 0.0;   // mean |delta|
};

/// Evaluates a trained predictor's CPU stack over every job of the trace.
PredictionEvalResult evaluate_prediction_error(
    predict::VectorPredictor& predictor, const trace::Trace& trace);

}  // namespace corp::sim
