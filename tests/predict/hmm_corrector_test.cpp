#include "predict/hmm_corrector.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace corp::predict {
namespace {

SeriesCorpus bursty_corpus(std::uint64_t seed) {
  util::Rng rng(seed);
  SeriesCorpus corpus;
  for (int s = 0; s < 3; ++s) {
    std::vector<double> series;
    for (int i = 0; i < 240; ++i) {
      // Alternating calm and volatile stretches.
      const bool volatile_phase = (i / 24) % 2 == 1;
      const double base = 0.5;
      const double amp = volatile_phase ? 0.35 : 0.05;
      series.push_back(base + amp * std::sin(0.9 * i) +
                       rng.normal(0.0, 0.02));
    }
    corpus.push_back(std::move(series));
  }
  return corpus;
}

/// The stack horizon every CorpStack hands its corrector (L = 6).
constexpr std::size_t kWindowSlots = 6;

TEST(HmmCorrectorTest, RejectsTinyWindow) {
  util::Rng rng(1);
  EXPECT_THROW(HmmCorrector(1, rng), std::invalid_argument);
}

TEST(HmmCorrectorTest, UnfittedThrows) {
  util::Rng rng(1);
  HmmCorrector corrector(kWindowSlots, rng);
  EXPECT_THROW(corrector.predict_symbol(std::vector<double>(20, 0.5)),
               std::logic_error);
  EXPECT_THROW(corrector.model(), std::logic_error);
}

TEST(HmmCorrectorTest, EmptyCorpusThrows) {
  util::Rng rng(1);
  HmmCorrector corrector(kWindowSlots, rng);
  EXPECT_THROW(corrector.fit({}), std::invalid_argument);
}

TEST(HmmCorrectorTest, FitBuildsModel) {
  util::Rng rng(2);
  HmmCorrector corrector(kWindowSlots, rng);
  corrector.fit(bursty_corpus(3));
  EXPECT_TRUE(corrector.fitted());
  EXPECT_EQ(corrector.model().num_states(), 3u);
  EXPECT_EQ(corrector.model().num_symbols(),
            hmm::kNumFluctuationSymbols);
  EXPECT_GE(corrector.correction_magnitude(), 0.0);
}

TEST(HmmCorrectorTest, ShortHistoryLeavesPredictionUntouched) {
  util::Rng rng(2);
  HmmCorrector corrector(kWindowSlots, rng);
  corrector.fit(bursty_corpus(3));
  // Fewer than two complete windows -> no symbol -> identity correction.
  const std::vector<double> short_history(7, 0.5);
  EXPECT_FALSE(corrector.predict_symbol(short_history).has_value());
  EXPECT_DOUBLE_EQ(corrector.correct(0.42, short_history), 0.42);
}

TEST(HmmCorrectorTest, CorrectionMovesByExactlyMagnitude) {
  util::Rng rng(4);
  HmmCorrector corrector(4, rng);
  corrector.fit(bursty_corpus(5));
  const double magnitude = corrector.correction_magnitude();

  // Find histories that produce each symbol and verify the adjustment.
  util::Rng scan(9);
  bool saw_peak = false, saw_valley = false, saw_center = false;
  for (int attempt = 0; attempt < 200; ++attempt) {
    std::vector<double> history;
    const double amp = scan.uniform(0.0, 0.45);
    for (int i = 0; i < 16; ++i) {
      history.push_back(0.5 + amp * std::sin(1.1 * i + attempt));
    }
    const auto symbol = corrector.predict_symbol(history);
    if (!symbol.has_value()) continue;
    const double corrected = corrector.correct(1.0, history);
    switch (*symbol) {
      case hmm::FluctuationSymbol::kPeak:
        EXPECT_NEAR(corrected, 1.0 + magnitude, 1e-12);
        saw_peak = true;
        break;
      case hmm::FluctuationSymbol::kValley:
        EXPECT_NEAR(corrected, 1.0 - magnitude, 1e-12);
        saw_valley = true;
        break;
      case hmm::FluctuationSymbol::kCenter:
        EXPECT_DOUBLE_EQ(corrected, 1.0);
        saw_center = true;
        break;
    }
  }
  // At least two distinct symbols should have been exercised.
  EXPECT_TRUE((saw_peak || saw_valley) && (saw_center || (saw_peak && saw_valley)));
}

TEST(HmmCorrectorTest, MagnitudeBoundedByWindowMeanBand) {
  util::Rng rng(6);
  HmmCorrector corrector(kWindowSlots, rng);
  const SeriesCorpus corpus = bursty_corpus(7);
  corrector.fit(corpus);
  // The p80/p20 band of window means is far narrower than the raw range.
  double lo = 1e9, hi = -1e9;
  for (const auto& s : corpus) {
    for (double x : s) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
  }
  EXPECT_LT(corrector.correction_magnitude(), 0.5 * (hi - lo));
}

}  // namespace
}  // namespace corp::predict
