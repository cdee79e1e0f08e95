#include "predict/vector_predictor.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace corp::predict {
namespace {

VectorCorpus small_corpus(std::uint64_t seed) {
  util::Rng rng(seed);
  VectorCorpus corpus;
  for (int s = 0; s < 3; ++s) {
    std::vector<ResourceVector> series;
    for (int i = 0; i < 150; ++i) {
      const double u = 0.5 + 0.2 * std::sin(0.3 * i) +
                       rng.normal(0.0, 0.03);
      series.push_back(ResourceVector(u, u * 0.9, u * 1.1));
    }
    corpus.add_series(series);
  }
  return corpus;
}

TEST(VectorCorpusTest, AddSeriesSplitsPerType) {
  VectorCorpus corpus;
  std::vector<ResourceVector> series{ResourceVector(1, 2, 3),
                                     ResourceVector(4, 5, 6)};
  corpus.add_series(series);
  EXPECT_FALSE(corpus.empty());
  ASSERT_EQ(corpus.per_type[0].size(), 1u);
  EXPECT_EQ(corpus.per_type[0][0], (std::vector<double>{1, 4}));
  EXPECT_EQ(corpus.per_type[2][0], (std::vector<double>{3, 6}));
}

TEST(VectorCorpusTest, EmptyDetection) {
  VectorCorpus corpus;
  EXPECT_TRUE(corpus.empty());
}

TEST(VectorPredictorTest, PredictsPerType) {
  util::Rng rng(3);
  StackConfig config;
  VectorPredictor predictor(Method::kDra, config, rng);
  predictor.train(small_corpus(5));

  std::array<std::vector<double>, kNumResources> history;
  for (std::size_t r = 0; r < kNumResources; ++r) {
    history[r].assign(12, 0.5 * (1.0 + 0.1 * static_cast<double>(r)));
  }
  const ResourceVector pred = predictor.predict(history);
  for (std::size_t r = 0; r < kNumResources; ++r) {
    EXPECT_TRUE(std::isfinite(pred[r]));
    EXPECT_GE(pred[r], 0.0);
  }
  // The sliding mean tracks each type's own level.
  EXPECT_NEAR(pred[0], 0.5, 0.05);
  EXPECT_NEAR(pred[2], 0.6, 0.06);
}

TEST(VectorPredictorTest, MethodAccessor) {
  util::Rng rng(3);
  VectorPredictor predictor(Method::kRccr, StackConfig{}, rng);
  EXPECT_EQ(predictor.method(), Method::kRccr);
  EXPECT_EQ(predictor.stack(0).name(), "rccr");
}

TEST(VectorPredictorTest, UnlockedRequiresAllStacks) {
  util::Rng rng(7);
  StackConfig config;
  config.probability_threshold = 0.0;  // each stack opens once seeded
  VectorPredictor predictor(Method::kRccr, config, rng);
  predictor.train(small_corpus(7));
  EXPECT_TRUE(predictor.unlocked());
}

TEST(VectorPredictorTest, DraNeverUnlocked) {
  util::Rng rng(7);
  StackConfig config;
  config.probability_threshold = 0.0;
  VectorPredictor predictor(Method::kDra, config, rng);
  predictor.train(small_corpus(7));
  EXPECT_FALSE(predictor.unlocked());
}

TEST(VectorPredictorTest, RecordOutcomeFeedsAllStacks) {
  util::Rng rng(9);
  VectorPredictor predictor(Method::kDra, StackConfig{}, rng);
  predictor.train(small_corpus(9));
  predictor.record_outcome(ResourceVector(0.5, 0.5, 0.5),
                           ResourceVector(0.4, 0.4, 0.4));
  SUCCEED();
}

/// What one kCorp training run leaves behind: batched forecasts over a
/// fixed set of histories, plus the metric registry right after train().
struct TrainedOutcome {
  std::vector<ResourceVector> forecasts;
  obs::MetricsSnapshot metrics;
};

/// small_corpus with the last resource type cut to one short series: its
/// stack trains fastest, so under a pool it finishes first, where a
/// serial sweep trains it last. Gauges written last-writer-wins would
/// then differ from the serial run's.
VectorCorpus uneven_corpus() {
  VectorCorpus corpus = small_corpus(13);
  std::vector<double>& series = corpus.per_type[kNumResources - 1].front();
  series.resize(60);
  corpus.per_type[kNumResources - 1].resize(1);
  return corpus;
}

TrainedOutcome train_corp(util::ThreadPool* pool) {
  obs::registry().reset();
  util::Rng rng(21);
  VectorPredictor predictor(Method::kCorp, StackConfig{}, rng);
  predictor.train(uneven_corpus(), pool);
  TrainedOutcome outcome;
  outcome.metrics = obs::registry().snapshot();

  util::Rng history_rng(5);
  std::vector<std::array<std::vector<double>, kNumResources>> histories(40);
  for (auto& history : histories) {
    for (auto& series : history) {
      for (int i = 0; i < 18; ++i) {
        series.push_back(history_rng.uniform(0.2, 0.8));
      }
    }
  }
  VectorBatchRequest request;
  for (const auto& history : histories) request.histories.push_back(&history);
  outcome.forecasts = predictor.predict_batch(request);
  return outcome;
}

// The resource stacks train concurrently when a pool is supplied. Each
// stack owns its forked RNG and state, and the fits' gauges are published
// after the join in resource order, so the trained model and the metrics
// snapshot are the same with no pool, 2 workers and 4 workers.
TEST(VectorPredictorTest, TrainingIsThreadCountInvariant) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  // reset() zeroes values but keeps names: a first run registers every
  // name the runs touch, so each compared snapshot has the same keys.
  train_corp(nullptr);
  const TrainedOutcome serial = train_corp(nullptr);
  for (std::size_t workers : {2u, 4u}) {
    util::ThreadPool pool(workers);
    const TrainedOutcome parallel = train_corp(&pool);
    ASSERT_EQ(parallel.forecasts.size(), serial.forecasts.size());
    for (std::size_t i = 0; i < serial.forecasts.size(); ++i) {
      for (std::size_t r = 0; r < kNumResources; ++r) {
        EXPECT_EQ(parallel.forecasts[i][r], serial.forecasts[i][r])
            << workers << " workers, row " << i << " type " << r;
      }
    }
    EXPECT_EQ(parallel.metrics.counters, serial.metrics.counters)
        << workers << " workers";
    EXPECT_EQ(parallel.metrics.gauges, serial.metrics.gauges)
        << workers << " workers";
    ASSERT_EQ(parallel.metrics.histograms.size(),
              serial.metrics.histograms.size());
    for (const auto& [name, histogram] : serial.metrics.histograms) {
      const auto it = parallel.metrics.histograms.find(name);
      ASSERT_NE(it, parallel.metrics.histograms.end()) << name;
      EXPECT_EQ(it->second.count, histogram.count) << name;
    }
    ASSERT_EQ(parallel.metrics.phases.size(), serial.metrics.phases.size());
    for (const auto& [name, phase] : serial.metrics.phases) {
      const auto it = parallel.metrics.phases.find(name);
      ASSERT_NE(it, parallel.metrics.phases.end()) << name;
      EXPECT_EQ(it->second.calls, phase.calls) << name;
    }
  }
  // The fits really published the gauges the snapshot compares.
  EXPECT_TRUE(serial.metrics.gauges.contains("dnn.best_validation_loss"));
  EXPECT_TRUE(serial.metrics.gauges.contains("hmm.final_log_likelihood"));
  obs::registry().reset();
  obs::set_enabled(was_enabled);
}

}  // namespace
}  // namespace corp::predict
