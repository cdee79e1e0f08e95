#include "predict/hmm_corrector.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/stats.hpp"

namespace corp::predict {

namespace {

/// Baum-Welch stopping rule: an iteration cap and a convergence tolerance.
constexpr std::size_t kBaumWelchIterations = 40;
constexpr double kBaumWelchTolerance = 1e-5;

}  // namespace

HmmCorrector::HmmCorrector(std::size_t window_slots, util::Rng& rng)
    : window_slots_(window_slots), rng_(rng.fork()) {
  if (window_slots < 2) {
    throw std::invalid_argument("HmmCorrector: window_slots must be >= 2");
  }
}

void HmmCorrector::fit(const SeriesCorpus& corpus) {
  std::vector<double> pooled;
  for (const auto& series : corpus) {
    pooled.insert(pooled.end(), series.begin(), series.end());
  }
  if (pooled.empty()) {
    throw std::invalid_argument("HmmCorrector::fit: empty corpus");
  }
  symbolizer_.fit(pooled);

  // The correction magnitude min(h - m, m - l) is computed over *window
  // means* (the quantity the stack predicts), not raw slots, and h/l are
  // taken as the 80th/20th percentiles of the window-mean distribution
  // rather than absolute extremes: a correction sized to the extreme
  // band would dwarf the prediction error it is meant to fix.
  std::vector<double> window_means;
  for (const auto& series : corpus) {
    for (std::size_t start = 0; start + window_slots_ <= series.size();
         start += window_slots_) {
      double mean = 0.0;
      for (std::size_t i = 0; i < window_slots_; ++i) {
        mean += series[start + i];
      }
      window_means.push_back(mean / static_cast<double>(window_slots_));
    }
  }
  if (window_means.empty()) {
    window_means.assign(pooled.begin(), pooled.end());
  }
  const double m = util::mean_of(window_means);
  const double h = util::percentile(window_means, 0.80);
  const double l = util::percentile(window_means, 0.20);
  magnitude_ = std::max(0.0, std::min(h - m, m - l));

  // Observation sequences per series, concatenated for Baum-Welch. The
  // few artificial transitions at series boundaries are negligible next
  // to the volume of genuine within-series transitions.
  std::vector<std::size_t> observations;
  for (const auto& series : corpus) {
    const auto symbols =
        symbolizer_.observation_sequence(series, window_slots_);
    observations.insert(observations.end(), symbols.begin(), symbols.end());
  }
  hmm_ = std::make_unique<hmm::DiscreteHmm>(
      kNumStates, hmm::kNumFluctuationSymbols, rng_);
  if (observations.size() >= 2) {
    hmm_->baum_welch(observations, kBaumWelchIterations, kBaumWelchTolerance);
  }
  fitted_ = true;
}

const hmm::DiscreteHmm& HmmCorrector::model() const {
  if (!hmm_) throw std::logic_error("HmmCorrector: not fitted");
  return *hmm_;
}

std::optional<hmm::FluctuationSymbol> HmmCorrector::predict_symbol(
    std::span<const double> recent) const {
  if (!fitted_) throw std::logic_error("HmmCorrector: not fitted");
  const auto observations =
      symbolizer_.observation_sequence(recent, window_slots_);
  // A single window gives the HMM no transition evidence; correcting on
  // it would add more noise than it removes.
  if (observations.size() < 2) return std::nullopt;
  return static_cast<hmm::FluctuationSymbol>(
      hmm_->predict_next_symbol(observations));
}

double HmmCorrector::correct(double raw_prediction,
                             std::span<const double> recent) const {
  const auto symbol = predict_symbol(recent);
  if (!symbol.has_value()) return raw_prediction;
  const double magnitude = magnitude_;
  switch (*symbol) {
    case hmm::FluctuationSymbol::kPeak:
      return raw_prediction + magnitude;
    case hmm::FluctuationSymbol::kValley:
      return raw_prediction - magnitude;
    case hmm::FluctuationSymbol::kCenter:
      return raw_prediction;
  }
  return raw_prediction;
}

double HmmCorrector::correction_magnitude() const { return magnitude_; }

}  // namespace corp::predict
