// Differential tests pinning the batched-prediction contract: every
// predict_batch implementation must be bit-identical to calling the scalar
// path on each query in order — including the GEMM-backed DNN path, with
// and without a thread pool, and the stateful VectorPredictor replay.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "dnn/network.hpp"
#include "predict/dnn_predictor.hpp"
#include "predict/ets_predictor.hpp"
#include "predict/markov_predictor.hpp"
#include "predict/mean_predictor.hpp"
#include "predict/stacks.hpp"
#include "predict/vector_predictor.hpp"
#include "util/thread_pool.hpp"

namespace corp::predict {
namespace {

SeriesCorpus sine_corpus(std::size_t series_count, std::size_t length,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  SeriesCorpus corpus;
  for (std::size_t s = 0; s < series_count; ++s) {
    std::vector<double> series;
    for (std::size_t i = 0; i < length; ++i) {
      series.push_back(0.5 +
                       0.3 * std::sin(0.25 * static_cast<double>(i + s * 3)) +
                       rng.normal(0.0, 0.02));
    }
    corpus.push_back(std::move(series));
  }
  return corpus;
}

/// Query rows exercising every packing branch: normal windows, shorter-
/// than-window histories (tiled left pad), a single sample, and an empty
/// history (constant fast path, skips the GEMM).
std::vector<std::vector<double>> mixed_histories(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> rows;
  for (std::size_t len : {30u, 24u, 12u, 7u, 3u, 1u, 0u, 18u}) {
    std::vector<double> h;
    for (std::size_t i = 0; i < len; ++i) {
      h.push_back(rng.uniform(0.0, 1.0));
    }
    rows.push_back(std::move(h));
  }
  return rows;
}

BatchRequest to_request(const std::vector<std::vector<double>>& rows,
                        std::size_t horizon) {
  BatchRequest request;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    request.queries.push_back(
        PredictionQuery{.horizon = horizon, .history = rows[i]});
  }
  return request;
}

/// Bit-identity between a predictor's batch and scalar paths on the mixed
/// rows. EXPECT_EQ on doubles is exact — that is the point.
void expect_batch_matches_scalar(SeriesPredictor& predictor,
                                 std::size_t horizon) {
  const std::vector<std::vector<double>> rows = mixed_histories(17);
  const BatchRequest request = to_request(rows, horizon);
  const BatchResult batch = predictor.predict_batch(request);
  ASSERT_EQ(batch.values.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double scalar = predictor.predict(request.queries[i]);
    EXPECT_EQ(batch.values[i], scalar) << "row " << i << " (len "
                                       << rows[i].size() << ")";
  }
}

TEST(BatchEquivalenceTest, DnnPredictorGemmPathBitIdentical) {
  util::Rng rng(3);
  DnnPredictorConfig config;
  config.hidden_layers = 2;
  config.hidden_units = 10;
  config.trainer.max_epochs = 8;
  config.trainer.pretrain_epochs = 1;
  DnnPredictor dnn(config, rng);
  dnn.train(sine_corpus(3, 90, 5));
  expect_batch_matches_scalar(dnn, config.horizon_slots);
}

TEST(BatchEquivalenceTest, DnnPredictorBatchBeforeTrainThrows) {
  util::Rng rng(3);
  DnnPredictor dnn({}, rng);
  const BatchRequest request = to_request(mixed_histories(17), 6);
  EXPECT_THROW(dnn.predict_batch(request), std::logic_error);
}

TEST(BatchEquivalenceTest, ScalarAdapterPredictorsBitIdentical) {
  const SeriesCorpus corpus = sine_corpus(3, 90, 5);

  EtsPredictor ets;
  ets.train(corpus);
  expect_batch_matches_scalar(ets, 3);

  MarkovChainPredictor markov;
  markov.train(corpus);
  expect_batch_matches_scalar(markov, 6);

  SlidingMeanPredictor mean;
  mean.train(corpus);
  expect_batch_matches_scalar(mean, 6);
}

TEST(BatchEquivalenceTest, AllStacksBitIdentical) {
  const SeriesCorpus corpus = sine_corpus(3, 90, 5);
  const std::vector<std::vector<double>> rows = mixed_histories(23);
  const BatchRequest request = to_request(rows, 0);
  for (Method method : kAllMethods) {
    util::Rng rng(7);
    StackConfig config;
    auto stack = make_stack(method, config, rng);
    stack->train(corpus);
    const BatchResult batch = stack->predict_batch(request);
    ASSERT_EQ(batch.values.size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(batch.values[i], stack->predict(rows[i]))
          << method_name(method) << " row " << i;
    }
  }
}

TEST(BatchEquivalenceTest, NetworkForwardBatchShardedBitIdentical) {
  util::Rng rng(9);
  dnn::NetworkConfig config;
  config.input_size = 6;
  config.hidden_layers = 2;
  config.hidden_units = 12;
  dnn::Network network(config, rng);

  // Enough rows to cross kForwardBatchShardMinRows so the pool path runs.
  const std::size_t rows = dnn::kForwardBatchShardMinRows + 17;
  dnn::Matrix inputs(rows, config.input_size);
  for (std::size_t n = 0; n < rows; ++n) {
    for (std::size_t c = 0; c < config.input_size; ++c) {
      inputs(n, c) = rng.uniform(-1.0, 1.0);
    }
  }

  const dnn::Matrix serial = network.forward_batch(inputs);
  util::ThreadPool pool(4);
  const dnn::Matrix sharded = network.forward_batch(inputs, &pool);
  ASSERT_EQ(sharded.rows(), rows);
  for (std::size_t n = 0; n < rows; ++n) {
    const dnn::Vector single = network.predict(inputs.row(n));
    EXPECT_EQ(serial(n, 0), single[0]) << "row " << n;
    EXPECT_EQ(sharded(n, 0), single[0]) << "row " << n;
  }
}

// ------------------------------------------------- VectorPredictor -------

VectorCorpus vector_corpus(std::uint64_t seed) {
  util::Rng rng(seed);
  VectorCorpus corpus;
  for (int s = 0; s < 3; ++s) {
    std::vector<ResourceVector> series;
    for (int i = 0; i < 90; ++i) {
      const double u = 0.5 + 0.2 * std::sin(0.3 * i) + rng.normal(0.0, 0.03);
      series.push_back(ResourceVector(u, u * 0.9, u * 1.1));
    }
    corpus.add_series(series);
  }
  return corpus;
}

/// Per-job histories, including one with NaN telemetry gaps (imputed
/// inside predict/predict_batch) and one shorter than the DNN window.
std::vector<std::array<std::vector<double>, kNumResources>> vector_histories() {
  std::vector<std::array<std::vector<double>, kNumResources>> jobs(5);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    for (std::size_t r = 0; r < kNumResources; ++r) {
      const std::size_t len = i == 3 ? 4 : 20;
      for (std::size_t t = 0; t < len; ++t) {
        jobs[i][r].push_back(
            0.4 + 0.1 * static_cast<double>(r) +
            0.2 * std::sin(0.4 * static_cast<double>(t + i)));
      }
    }
  }
  // Job 1 has telemetry gaps on resource 0, including a leading gap.
  jobs[1][0][0] = std::numeric_limits<double>::quiet_NaN();
  jobs[1][0][7] = std::numeric_limits<double>::quiet_NaN();
  jobs[1][0][8] = std::numeric_limits<double>::quiet_NaN();
  return jobs;
}

void expect_vector_batch_matches_scalar(
    Method method, const std::vector<InjectedFaultVector>& faults) {
  const VectorCorpus corpus = vector_corpus(11);
  const auto jobs = vector_histories();

  util::Rng rng_scalar(13);
  util::Rng rng_batch(13);
  VectorPredictor scalar(method, StackConfig{}, rng_scalar);
  VectorPredictor batched(method, StackConfig{}, rng_batch);
  scalar.train(corpus);
  batched.train(corpus);

  VectorBatchRequest request;
  for (const auto& job : jobs) request.histories.push_back(&job);
  request.faults = faults;

  std::vector<ResourceVector> expected;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    expected.push_back(faults.empty() ? scalar.predict(jobs[i])
                                      : scalar.predict(jobs[i], faults[i]));
  }
  const std::vector<ResourceVector> got = batched.predict_batch(request);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    for (std::size_t r = 0; r < kNumResources; ++r) {
      EXPECT_EQ(got[i][r], expected[i][r]) << "job " << i << " type " << r;
    }
  }
  // The health ladder must have walked the same path.
  EXPECT_EQ(batched.tier(), scalar.tier());
}

TEST(BatchEquivalenceTest, VectorPredictorCloudScaleWithGaps) {
  expect_vector_batch_matches_scalar(Method::kCloudScale, {});
}

TEST(BatchEquivalenceTest, VectorPredictorCorpGemmWithGaps) {
  expect_vector_batch_matches_scalar(Method::kCorp, {});
}

TEST(BatchEquivalenceTest, VectorPredictorFaultReplayMatchesScalar) {
  // Poison mid-batch: NaN on job 2's CPU forecast and a magnitude blow-up
  // on job 4's memory forecast. The batched health replay must demote /
  // substitute on exactly the rows the sequential sweep does.
  std::vector<InjectedFaultVector> faults(5);
  faults[2][0] = InjectedFault::kNan;
  faults[4][1] = InjectedFault::kExplode;
  expect_vector_batch_matches_scalar(Method::kCloudScale, faults);
}

TEST(BatchEquivalenceTest, VectorPredictorBatchSizeMismatchThrows) {
  util::Rng rng(3);
  VectorPredictor predictor(Method::kDra, StackConfig{}, rng);
  predictor.train(vector_corpus(11));
  const auto jobs = vector_histories();
  VectorBatchRequest request;
  for (const auto& job : jobs) request.histories.push_back(&job);
  request.faults.resize(jobs.size() - 1);
  EXPECT_THROW(predictor.predict_batch(request), std::invalid_argument);
}

}  // namespace
}  // namespace corp::predict
