// Fluctuation-aware prediction correction (Sec. III-A1b).
//
// Wraps FluctuationSymbolizer + DiscreteHmm into the exact correction CORP
// applies to the DNN forecast: predict whether the next window is a peak,
// center or valley of the unused-resource series, then
//     peak   ->  y_hat + min(h - m, m - l)
//     valley ->  y_hat - min(h - m, m - l)
//     center ->  y_hat (unchanged).
#pragma once

#include <memory>
#include <optional>

#include "hmm/hmm.hpp"
#include "hmm/symbolizer.hpp"
#include "predict/predictor.hpp"
#include "util/rng.hpp"

namespace corp::predict {

class HmmCorrector {
 public:
  /// Number of hidden states H (Table II: 3 — OP/NP/UP).
  static constexpr std::size_t kNumStates = 3;

  /// `window_slots` is the observation window, one symbol per window (the
  /// paper's L, the stack's forecast horizon); it must be >= 2.
  HmmCorrector(std::size_t window_slots, util::Rng& rng);

  /// Fits the symbolizer thresholds on the pooled corpus and trains the
  /// HMM (Baum-Welch) on the corpus's observation sequences.
  void fit(const SeriesCorpus& corpus);

  bool fitted() const { return fitted_; }

  /// Predicts the next window's fluctuation symbol from recent history.
  /// Returns nullopt when the history yields no complete window.
  std::optional<hmm::FluctuationSymbol> predict_symbol(
      std::span<const double> recent) const;

  /// Applies the peak/valley adjustment to a raw forecast. With no usable
  /// history, returns the forecast unchanged.
  double correct(double raw_prediction, std::span<const double> recent) const;

  /// min(h - m, m - l) learned from the corpus.
  double correction_magnitude() const;

  const hmm::FluctuationSymbolizer& symbolizer() const { return symbolizer_; }
  const hmm::DiscreteHmm& model() const;

 private:
  std::size_t window_slots_;
  util::Rng rng_;
  hmm::FluctuationSymbolizer symbolizer_;
  /// min(h - m, m - l) over the window-mean distribution (h/l = p80/p20).
  double magnitude_ = 0.0;
  std::unique_ptr<hmm::DiscreteHmm> hmm_;
  bool fitted_ = false;
};

}  // namespace corp::predict
