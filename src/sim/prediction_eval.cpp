#include "sim/prediction_eval.hpp"

#include <cmath>

namespace corp::sim {

namespace {

/// Error tolerance eps as a fraction of the trace's mean unused CPU
/// (resolved to absolute units per trace, so the same value works on the
/// cluster and EC2 environments whose CPU scales differ).
constexpr double kEpsilonRelative = 0.9;
/// Jobs shorter than this many slots are skipped.
constexpr std::size_t kMinDurationSlots = 6;

}  // namespace

PredictionEvalResult evaluate_prediction_error(
    predict::VectorPredictor& predictor, const trace::Trace& trace) {
  PredictionEvalResult result;
  constexpr auto kCpu = static_cast<std::size_t>(trace::ResourceKind::kCpu);
  // Work in request-normalized units (the space the stacks train in) and
  // resolve the relative tolerance against the trace's mean normalized
  // unused CPU.
  double mean_unused = 0.0;
  std::size_t samples = 0;
  for (const trace::Job& job : trace.jobs()) {
    if (job.request[kCpu] <= 0.0) continue;
    for (std::size_t t = 0; t < job.usage.size(); ++t) {
      mean_unused += job.unused_at(t)[kCpu] / job.request[kCpu];
      ++samples;
    }
  }
  if (samples > 0) mean_unused /= static_cast<double>(samples);
  const double epsilon = kEpsilonRelative * mean_unused;

  double sum_error = 0.0;
  double sum_abs_error = 0.0;
  for (const trace::Job& job : trace.jobs()) {
    if (job.duration_slots < kMinDurationSlots) continue;
    if (job.request[kCpu] <= 0.0) continue;
    // Request-normalized unused-CPU series.
    std::vector<double> unused;
    unused.reserve(job.usage.size());
    for (std::size_t t = 0; t < job.usage.size(); ++t) {
      unused.push_back(job.unused_at(t)[kCpu] / job.request[kCpu]);
    }
    const std::size_t split = std::max<std::size_t>(1, unused.size() / 2);
    const std::span<const double> history(unused.data(), split);
    const double predicted = predictor.stack(kCpu).predict(history);
    // The forecast target is the unused amount over the next prediction
    // window (t, t+L] — Sec. III-A's 1-minute horizon — so the "actual"
    // is the mean over at most L slots past the split.
    const std::size_t span_end =
        std::min(unused.size(), split + trace::kWindowSlots);
    double actual = 0.0;
    for (std::size_t t = split; t < span_end; ++t) actual += unused[t];
    actual /= static_cast<double>(span_end - split);

    const double delta = actual - predicted;
    ++result.jobs_evaluated;
    sum_error += delta;
    sum_abs_error += std::abs(delta);
    if (delta >= 0.0 && delta < epsilon) ++result.jobs_correct;
  }
  if (result.jobs_evaluated > 0) {
    const auto n = static_cast<double>(result.jobs_evaluated);
    result.error_rate =
        1.0 - static_cast<double>(result.jobs_correct) / n;
    result.mean_error = sum_error / n;
    result.mean_abs_error = sum_abs_error / n;
  }
  return result;
}

}  // namespace corp::sim
