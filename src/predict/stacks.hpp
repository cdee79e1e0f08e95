// Full per-resource prediction stacks for each provisioning method.
//
// A stack is a SeriesPredictor plus the method's error-handling pipeline:
//
//   CORP       : DNN -> HMM peak/valley correction -> confidence lower
//                bound (Eq. 19) -> preemption gate (Eq. 21)
//   RCCR       : ETS -> confidence lower bound -> preemption gate
//   CloudScale : PRESS/Markov -> adaptive padding from recent burstiness
//                and recent prediction errors (no confidence levels)
//   DRA        : sliding mean, no correction, no gate
//
// Stacks track their own online prediction errors (Eq. 20): the simulator
// calls record_outcome() when the actual unused amount becomes known.
#pragma once

#include <memory>

#include "predict/dnn_predictor.hpp"
#include "predict/error_tracker.hpp"
#include "predict/ets_predictor.hpp"
#include "predict/hmm_corrector.hpp"
#include "predict/markov_predictor.hpp"
#include "predict/mean_predictor.hpp"
#include "predict/predictor.hpp"

namespace corp::predict {

/// Common knobs shared across stacks (Table II).
struct StackConfig {
  /// Confidence level eta (Table II: 50%-90%). theta = 1 - eta.
  double confidence_level = 0.90;
  /// Prediction-error tolerance epsilon of Eq. 21, expressed as a
  /// *fraction of the training corpus mean* so one knob works across
  /// resource types with different units (CPU cores vs storage GB). Each
  /// stack resolves it to an absolute tolerance at train() time.
  double error_tolerance = 0.50;
  /// Probability threshold P_th of Eq. 21 (Table II: 0.95).
  double probability_threshold = 0.95;
  /// Forecast horizon L in slots.
  std::size_t horizon_slots = 6;
};

/// One resource type's prediction pipeline.
class PredictionStack {
 public:
  virtual ~PredictionStack() = default;

  virtual void train(const SeriesCorpus& corpus) = 0;

  /// Final (corrected, conservative) forecast of the unused amount at
  /// t + L, clamped non-negative.
  virtual double predict(std::span<const double> history) = 0;

  /// Batched forecasts, one per query (horizon fields are ignored — a
  /// stack's horizon is fixed at construction). Bit-identical to calling
  /// predict() on each query's history in order; the default adapter does
  /// exactly that. Stacks must not mutate error-tracker state here, so a
  /// batch sees one frozen tracker snapshot just as a scalar sweep
  /// between record_outcome() calls would.
  virtual BatchResult predict_batch(const BatchRequest& request);

  /// Feeds back the actual value for a previous prediction (Eq. 20).
  virtual void record_outcome(double actual, double predicted) = 0;

  /// Eq. 21 gate: may the predicted unused resource be reallocated?
  virtual bool unlocked() const = 0;

  /// Current empirical Pr(0 <= delta < eps) backing the gate (0 for
  /// methods without a gate). Exposed for diagnostics and tests.
  virtual double gate_probability() const = 0;

  virtual std::string_view name() const = 0;
};

/// CORP: DNN + HMM + confidence lower bound + gate. Ablation flags let
/// the component benches switch individual stages off.
class CorpStack final : public PredictionStack {
 public:
  struct Options {
    StackConfig stack;
    DnnPredictorConfig dnn;
    bool enable_hmm_correction = true;
    bool enable_confidence_bound = true;
  };

  CorpStack(const Options& options, util::Rng& rng);

  void train(const SeriesCorpus& corpus) override;
  double predict(std::span<const double> history) override;

  /// Runs the DNN once over all rows (one GEMM), then applies the HMM
  /// correction and confidence bound per row. Bit-identical to the scalar
  /// loop because both correction stages are pure and the tracker's
  /// stddev is constant between record_outcome() calls.
  BatchResult predict_batch(const BatchRequest& request) override;

  void record_outcome(double actual, double predicted) override;
  bool unlocked() const override;
  double gate_probability() const override;
  std::string_view name() const override { return "corp"; }

  const PredictionErrorTracker& tracker() const { return tracker_; }
  const HmmCorrector& corrector() const { return corrector_; }
  double absolute_tolerance() const { return epsilon_abs_; }

 private:
  Options options_;
  DnnPredictor dnn_;
  HmmCorrector corrector_;
  PredictionErrorTracker tracker_;
  double epsilon_abs_ = 0.0;
};

/// RCCR: ETS + confidence lower bound + gate.
class RccrStack final : public PredictionStack {
 public:
  explicit RccrStack(const StackConfig& config);

  void train(const SeriesCorpus& corpus) override;
  double predict(std::span<const double> history) override;
  void record_outcome(double actual, double predicted) override;
  bool unlocked() const override;
  double gate_probability() const override;
  std::string_view name() const override { return "rccr"; }

  const PredictionErrorTracker& tracker() const { return tracker_; }
  double absolute_tolerance() const { return epsilon_abs_; }

 private:
  StackConfig config_;
  EtsPredictor ets_;
  PredictionErrorTracker tracker_;
  double epsilon_abs_ = 0.0;
};

/// CloudScale: PRESS/Markov + adaptive padding. "CloudScale does not
/// utilize confidence levels" (Sec. IV), so its conservatism comes from
/// padding only; it still gates reallocation on its own error history.
class CloudScaleStack final : public PredictionStack {
 public:
  explicit CloudScaleStack(const StackConfig& config);

  void train(const SeriesCorpus& corpus) override;
  double predict(std::span<const double> history) override;
  void record_outcome(double actual, double predicted) override;
  bool unlocked() const override;
  double gate_probability() const override;
  std::string_view name() const override { return "cloudscale"; }

 private:
  /// Adaptive padding: max(recent burst amplitude * fraction, |recent
  /// mean error|). Subtracted from the unused-amount forecast so that
  /// over-estimates (which would trigger SLO violations) are damped.
  double padding(std::span<const double> history) const;

  StackConfig config_;
  MarkovChainPredictor markov_;
  PredictionErrorTracker tracker_;
  double epsilon_abs_ = 0.0;
};

/// DRA: run-time mean estimate; never gates (DRA is demand-based and does
/// not reallocate opportunistically — the scheduler enforces that, and the
/// stack reports unlocked() = false accordingly).
class DraStack final : public PredictionStack {
 public:
  explicit DraStack(const StackConfig& config);

  void train(const SeriesCorpus& corpus) override;
  double predict(std::span<const double> history) override;
  void record_outcome(double actual, double predicted) override;
  bool unlocked() const override { return false; }
  double gate_probability() const override { return 0.0; }
  std::string_view name() const override { return "dra"; }

 private:
  StackConfig config_;
  SlidingMeanPredictor mean_;
  PredictionErrorTracker tracker_;
};

/// Builds the stack matching a Method with its paper-default option
/// tuning (CORP's trainer schedule and forecast horizon). Validates
/// every StackConfig knob first and throws std::invalid_argument naming
/// the bad field. The two flags are CORP-only ablation switches (ignored
/// by the baselines). All stack construction outside this file goes
/// through here; the analyzer rule CORP-API-001 flags direct
/// CorpStack/RccrStack/CloudScaleStack/DraStack construction elsewhere.
std::unique_ptr<PredictionStack> make_stack(Method method,
                                            const StackConfig& config,
                                            util::Rng& rng,
                                            bool enable_hmm_correction = true,
                                            bool enable_confidence_bound = true);

}  // namespace corp::predict
