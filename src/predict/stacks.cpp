#include "predict/stacks.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "util/stats.hpp"

namespace corp::predict {

std::string_view method_name(Method m) {
  switch (m) {
    case Method::kCorp: return "CORP";
    case Method::kRccr: return "RCCR";
    case Method::kCloudScale: return "CloudScale";
    case Method::kDra: return "DRA";
    case Method::kPredAware: return "pred-aware";
  }
  return "?";
}

namespace {

/// Confidence lower bound of Eq. 19: u_hat - sigma_hat * z_{theta/2}.
double confidence_lower_bound(double prediction, double sigma,
                              double confidence_level) {
  const double theta = std::clamp(1.0 - confidence_level, 1e-6, 1.0 - 1e-6);
  return prediction - sigma * util::z_half_alpha(theta);
}

/// Mean of all values across a corpus (0 for empty corpora). Used to
/// resolve the relative Eq. 21 tolerance into absolute units.
double corpus_mean(const SeriesCorpus& corpus) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& series : corpus) {
    for (double x : series) {
      sum += x;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

/// Seeds a stack's error tracker by replaying held-out corpus windows
/// through the stack's *full* pipeline (corrections and confidence bound
/// included), so the Eq. 21 gate and sigma estimates reflect the stack's
/// actual operating bias from the first live prediction. The replay is
/// sequential: each prediction sees the tracker state the previous ones
/// built, exactly as online operation would.
void seed_tracker(PredictionStack& stack, const SeriesCorpus& corpus,
                  std::size_t history_slots, std::size_t horizon) {
  for (const auto& series : corpus) {
    if (series.size() < history_slots + horizon) continue;
    // Stride by the horizon: one seeded error per prediction window.
    for (std::size_t end = history_slots; end + horizon <= series.size();
         end += horizon) {
      const std::span<const double> history(series.data() + end -
                                                history_slots,
                                            history_slots);
      const double predicted = stack.predict(history);
      double actual = 0.0;
      for (std::size_t h = 0; h < horizon; ++h) actual += series[end + h];
      actual /= static_cast<double>(horizon);
      stack.record_outcome(actual, predicted);
    }
  }
}

}  // namespace

BatchResult PredictionStack::predict_batch(const BatchRequest& request) {
  if (obs::registry().enabled()) {
    obs::registry()
        .counter("predict.batch.stack_scalar_rows")
        .add(request.queries.size());
  }
  BatchResult result;
  result.values.reserve(request.queries.size());
  for (const PredictionQuery& query : request.queries) {
    result.values.push_back(predict(query.history));
  }
  return result;
}

// ---------------------------------------------------------------- CORP --

CorpStack::CorpStack(const Options& options, util::Rng& rng)
    : options_(options),
      dnn_(options.dnn, rng),
      corrector_(options.stack.horizon_slots, rng) {}

void CorpStack::train(const SeriesCorpus& corpus) {
  dnn_.train(corpus);
  corrector_.fit(corpus);
  epsilon_abs_ = options_.stack.error_tolerance * corpus_mean(corpus);
  seed_tracker(*this, corpus, options_.dnn.history_slots,
               options_.stack.horizon_slots);
}

double CorpStack::predict(std::span<const double> history) {
  double y = dnn_.predict(PredictionQuery{
      .horizon = options_.stack.horizon_slots, .history = history});
  if (options_.enable_hmm_correction) {
    y = corrector_.correct(y, history);
  }
  if (options_.enable_confidence_bound) {
    y = confidence_lower_bound(y, tracker_.stddev(),
                               options_.stack.confidence_level);
  }
  return std::max(0.0, y);
}

BatchResult CorpStack::predict_batch(const BatchRequest& request) {
  // One GEMM across all rows (the DNN ignores per-query horizons; this
  // stack's horizon is baked into its training targets), then the pure
  // per-row correction pipeline in query order.
  BatchResult result = dnn_.predict_batch(request);
  const double sigma = tracker_.stddev();
  for (std::size_t i = 0; i < request.queries.size(); ++i) {
    double y = result.values[i];
    if (options_.enable_hmm_correction) {
      y = corrector_.correct(y, request.queries[i].history);
    }
    if (options_.enable_confidence_bound) {
      y = confidence_lower_bound(y, sigma, options_.stack.confidence_level);
    }
    result.values[i] = std::max(0.0, y);
  }
  return result;
}

void CorpStack::record_outcome(double actual, double predicted) {
  tracker_.record(actual, predicted);
}

bool CorpStack::unlocked() const {
  return tracker_.unlocked(epsilon_abs_,
                           options_.stack.probability_threshold);
}

double CorpStack::gate_probability() const {
  return tracker_.probability_within(epsilon_abs_);
}

// ---------------------------------------------------------------- RCCR --

RccrStack::RccrStack(const StackConfig& config) : config_(config) {}

namespace {

/// Compresses a slot-level series into consecutive window means. RCCR's
/// time-series forecaster predicts window-level amounts (its SLO horizon
/// is long); running ETS on raw 10-second slots would have it chase slot
/// noise.
std::vector<double> to_window_means(std::span<const double> series,
                                    std::size_t window) {
  std::vector<double> means;
  if (window == 0) return means;
  for (std::size_t start = 0; start + window <= series.size();
       start += window) {
    double m = 0.0;
    for (std::size_t i = 0; i < window; ++i) m += series[start + i];
    means.push_back(m / static_cast<double>(window));
  }
  if (means.empty() && !series.empty()) {
    double m = 0.0;
    for (double x : series) m += x;
    means.push_back(m / static_cast<double>(series.size()));
  }
  return means;
}

}  // namespace

void RccrStack::train(const SeriesCorpus& corpus) {
  SeriesCorpus compressed;
  compressed.reserve(corpus.size());
  for (const auto& series : corpus) {
    compressed.push_back(to_window_means(series, config_.horizon_slots));
  }
  ets_.train(compressed);
  epsilon_abs_ = config_.error_tolerance * corpus_mean(corpus);
  seed_tracker(*this, corpus, /*history_slots=*/12, config_.horizon_slots);
}

double RccrStack::predict(std::span<const double> history) {
  const std::vector<double> means =
      to_window_means(history, config_.horizon_slots);
  double y = ets_.predict(PredictionQuery{.horizon = 1, .history = means});
  y = confidence_lower_bound(y, tracker_.stddev(), config_.confidence_level);
  return std::max(0.0, y);
}

void RccrStack::record_outcome(double actual, double predicted) {
  tracker_.record(actual, predicted);
}

bool RccrStack::unlocked() const {
  return tracker_.unlocked(epsilon_abs_, config_.probability_threshold);
}

double RccrStack::gate_probability() const {
  return tracker_.probability_within(epsilon_abs_);
}

// ---------------------------------------------------------- CloudScale --

namespace {

/// Window over which CloudScale measures burstiness, in slots.
constexpr std::size_t kBurstWindow = 12;
/// Fraction of the measured burst amplitude used as padding.
constexpr double kBurstPaddingFraction = 0.55;

}  // namespace

CloudScaleStack::CloudScaleStack(const StackConfig& config)
    : config_(config) {}

void CloudScaleStack::train(const SeriesCorpus& corpus) {
  markov_.train(corpus);
  epsilon_abs_ = config_.error_tolerance * corpus_mean(corpus);
  seed_tracker(*this, corpus, /*history_slots=*/12, config_.horizon_slots);
}

double CloudScaleStack::padding(std::span<const double> history) const {
  double burst = 0.0;
  if (!history.empty()) {
    const std::size_t take = std::min(kBurstWindow, history.size());
    double lo = history[history.size() - take];
    double hi = lo;
    for (std::size_t i = history.size() - take; i < history.size(); ++i) {
      lo = std::min(lo, history[i]);
      hi = std::max(hi, history[i]);
    }
    burst = (hi - lo) * kBurstPaddingFraction;
  }
  const double recent_bias = std::abs(tracker_.mean());
  return std::max(burst, recent_bias);
}

double CloudScaleStack::predict(std::span<const double> history) {
  const double y = markov_.predict(
      PredictionQuery{.horizon = config_.horizon_slots, .history = history});
  return std::max(0.0, y - padding(history));
}

void CloudScaleStack::record_outcome(double actual, double predicted) {
  tracker_.record(actual, predicted);
}

bool CloudScaleStack::unlocked() const {
  return tracker_.unlocked(epsilon_abs_, config_.probability_threshold);
}

double CloudScaleStack::gate_probability() const {
  return tracker_.probability_within(epsilon_abs_);
}

// ----------------------------------------------------------------- DRA --

DraStack::DraStack(const StackConfig& config) : config_(config) {}

void DraStack::train(const SeriesCorpus& corpus) { mean_.train(corpus); }

double DraStack::predict(std::span<const double> history) {
  return std::max(0.0, mean_.predict(PredictionQuery{
                           .horizon = config_.horizon_slots,
                           .history = history}));
}

void DraStack::record_outcome(double actual, double predicted) {
  tracker_.record(actual, predicted);
}

// ------------------------------------------------------------- factory --

namespace {

void validate(const StackConfig& config) {
  const auto bad = [](const std::string& field, const std::string& why) {
    throw std::invalid_argument("make_stack: " + field + " " + why);
  };
  if (!(config.confidence_level > 0.0 && config.confidence_level < 1.0)) {
    bad("confidence_level", "must be in (0, 1)");
  }
  if (!(config.error_tolerance >= 0.0)) {
    bad("error_tolerance", "must be >= 0");
  }
  // 0 is a legitimate operating point: the Eq. 21 gate opens as soon as a
  // stack has any outcome history (used by tests and warm-up studies).
  if (!(config.probability_threshold >= 0.0 &&
        config.probability_threshold <= 1.0)) {
    bad("probability_threshold", "must be in [0, 1]");
  }
  if (config.horizon_slots == 0) bad("horizon_slots", "must be >= 1");
}

}  // namespace

std::unique_ptr<PredictionStack> make_stack(Method method,
                                            const StackConfig& config,
                                            util::Rng& rng,
                                            bool enable_hmm_correction,
                                            bool enable_confidence_bound) {
  validate(config);
  switch (method) {
    // Pred-aware consumes CORP's forecasts — same DNN + HMM +
    // confidence-bound stack, same trainer schedule — and differs only in
    // how much the *scheduler* trusts them, so the two cases share one
    // construction path.
    case Method::kPredAware:
    case Method::kCorp: {
      CorpStack::Options options;
      options.stack = config;
      options.dnn.horizon_slots = config.horizon_slots;
      options.dnn.trainer.max_epochs = 40;
      options.dnn.trainer.patience = 5;
      options.dnn.trainer.min_delta = 1e-7;
      options.dnn.trainer.pretrain_epochs = 2;
      options.enable_hmm_correction = enable_hmm_correction;
      options.enable_confidence_bound = enable_confidence_bound;
      return std::make_unique<CorpStack>(options, rng);
    }
    case Method::kRccr:
      return std::make_unique<RccrStack>(config);
    case Method::kCloudScale:
      return std::make_unique<CloudScaleStack>(config);
    case Method::kDra:
      return std::make_unique<DraStack>(config);
  }
  throw std::invalid_argument("make_stack: unknown method");
}

}  // namespace corp::predict
