// Micro-benchmarks over the hot kernels behind the per-decision latency
// budget of Figs. 10/14, centred on the batched prediction engine: the
// same trained DNN is timed one row at a time (the pre-batching call
// pattern) and through predict_batch's blocked GEMM at the batch sizes
// the simulator actually gathers, alongside the raw Matrix kernels (one
// 50x50 per-sample gemv in nanoseconds in the bench.dnn_gemv_50x50_ns
// gauge), one per-sample SGD training step (bench.dnn_sgd_step,
// microseconds per step in the bench.dnn_sgd_step_us gauge), one
// per-sample forward pass (bench.dnn_forward_step, microseconds in the
// bench.dnn_forward_step_us gauge) and the baseline predictors. Every
// batched result is checked bit-identical to the scalar sweep before it
// is timed.
//
// Emits the standard bench JSON record (schema in docs/observability.md)
// with the obs snapshot nested, so the CI bench-smoke job can assert the
// predict.batch.* counters move; the per-size speedup lands in the
// predict.batch.speedup.b<N> gauges.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "dnn/matrix.hpp"
#include "dnn/network.hpp"
#include "figure_common.hpp"
#include "obs/metrics.hpp"
#include "predict/dnn_predictor.hpp"
#include "predict/ets_predictor.hpp"
#include "predict/markov_predictor.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace corp;

predict::SeriesCorpus sine_corpus(std::size_t series_count,
                                  std::size_t length, std::uint64_t seed) {
  util::Rng rng(seed);
  predict::SeriesCorpus corpus;
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

std::vector<std::vector<double>> make_histories(std::size_t rows,
                                                std::size_t length,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::vector<double>> histories(rows);
  for (auto& h : histories) {
    for (std::size_t i = 0; i < length; ++i) {
      h.push_back(rng.uniform(0.0, 1.0));
    }
  }
  return histories;
}

/// Rows per second, guarded against a sub-tick elapsed time.
double rate(std::size_t rows, double ms) {
  return static_cast<double>(rows) * 1e3 / std::max(ms, 1e-6);
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchOptions opts = bench::parse_options(argc, argv);
  bench::BenchTimer total;
  std::size_t points = 0;
  double sink = 0.0;  // keeps the timed kernels observable
  double gemv_ns = 0.0;
  double sgd_us_per_step = 0.0;
  double forward_us_per_step = 0.0;

  // --- DNN forward: scalar call pattern vs one blocked GEMM -------------
  util::Rng rng(opts.seed);
  predict::DnnPredictorConfig dnn_config;  // Table II: 12 -> 4x50 -> 1
  dnn_config.trainer.max_epochs = 6;
  dnn_config.trainer.pretrain_epochs = 1;
  predict::DnnPredictor dnn(dnn_config, rng);
  dnn.train(sine_corpus(3, 120, opts.seed + 1));

  constexpr std::size_t kBatchSizes[] = {1, 16, 64, 256};
  constexpr std::size_t kRowsPerSize = 2048;
  constexpr std::size_t kRounds = 5;
  const std::vector<std::vector<double>> histories =
      make_histories(256, 24, opts.seed + 2);

  util::TextTable table(
      {"kernel", "batch", "scalar rows/s", "batch rows/s", "speedup"});
  for (std::size_t batch : kBatchSizes) {
    predict::BatchRequest request;
    for (std::size_t i = 0; i < batch; ++i) {
      request.queries.push_back(predict::PredictionQuery{
          .horizon = dnn_config.horizon_slots, .history = histories[i]});
    }
    // Contract check before timing: the GEMM path must be bit-identical.
    const predict::BatchResult check = dnn.predict_batch(request);
    for (std::size_t i = 0; i < batch; ++i) {
      if (check.values[i] != dnn.predict(request.queries[i])) {
        throw std::logic_error("micro_kernels: batch/scalar divergence");
      }
    }

    // Best-of-kRounds per side: single-shot timings on shared hosts pick
    // up transient contention spikes; the minimum over a few rounds
    // recovers the uncontended rate for both paths alike.
    const std::size_t reps = kRowsPerSize / batch;
    double scalar_ms = std::numeric_limits<double>::infinity();
    {
      obs::ScopedTimer timer("bench.dnn_forward_scalar");
      for (std::size_t round = 0; round < kRounds; ++round) {
        bench::BenchTimer t;
        for (std::size_t rep = 0; rep < reps; ++rep) {
          for (const predict::PredictionQuery& query : request.queries) {
            sink += dnn.predict(query);
          }
        }
        scalar_ms = std::min(scalar_ms, t.elapsed_ms());
      }
    }
    double batch_ms = std::numeric_limits<double>::infinity();
    {
      obs::ScopedTimer timer("bench.dnn_forward_batch");
      for (std::size_t round = 0; round < kRounds; ++round) {
        bench::BenchTimer t;
        for (std::size_t rep = 0; rep < reps; ++rep) {
          sink += dnn.predict_batch(request).values.front();
        }
        batch_ms = std::min(batch_ms, t.elapsed_ms());
      }
    }

    const std::size_t rows = reps * batch;
    const double speedup = scalar_ms / std::max(batch_ms, 1e-6);
    obs::set_gauge(
        ("predict.batch.speedup.b" + std::to_string(batch)).c_str(), speedup);
    table.add_row("dnn_forward",
                  {static_cast<double>(batch), rate(rows, scalar_ms),
                   rate(rows, batch_ms), speedup});
    ++points;
  }

  // --- raw GEMM kernel: multiply row-by-row vs multiply_batch -----------
  {
    util::Rng mrng(opts.seed + 3);
    const dnn::Matrix weights = dnn::Matrix::xavier(50, 50, mrng);
    dnn::Matrix inputs(64, 50);
    for (std::size_t n = 0; n < inputs.rows(); ++n) {
      for (std::size_t c = 0; c < inputs.cols(); ++c) {
        inputs(n, c) = mrng.uniform(-1.0, 1.0);
      }
    }
    constexpr std::size_t kReps = 64;
    dnn::Vector y(weights.rows());
    double scalar_ms = std::numeric_limits<double>::infinity();
    {
      obs::ScopedTimer timer("bench.matrix_multiply");
      for (std::size_t round = 0; round < kRounds; ++round) {
        bench::BenchTimer t;
        for (std::size_t rep = 0; rep < kReps; ++rep) {
          for (std::size_t n = 0; n < inputs.rows(); ++n) {
            weights.multiply(inputs.row(n), y);
            sink += y.front();
          }
        }
        scalar_ms = std::min(scalar_ms, t.elapsed_ms());
      }
    }
    double batch_ms = std::numeric_limits<double>::infinity();
    {
      obs::ScopedTimer timer("bench.matrix_multiply_batch");
      for (std::size_t round = 0; round < kRounds; ++round) {
        bench::BenchTimer t;
        for (std::size_t rep = 0; rep < kReps; ++rep) {
          sink += weights.multiply_batch(inputs)(0, 0);
        }
        batch_ms = std::min(batch_ms, t.elapsed_ms());
      }
    }
    const std::size_t rows = kReps * inputs.rows();
    gemv_ns = scalar_ms * 1e6 / static_cast<double>(rows);
    obs::set_gauge("bench.dnn_gemv_50x50_ns", gemv_ns);
    table.add_row("matrix_50x50",
                  {static_cast<double>(inputs.rows()), rate(rows, scalar_ms),
                   rate(rows, batch_ms),
                   scalar_ms / std::max(batch_ms, 1e-6)});
    ++points;
  }

  // --- DNN training: one per-sample SGD step (Eq. 5-8) ------------------
  // The fused train_step() on the Table II net, cycling over a fixed set
  // of samples; the figure is microseconds per step, best of kRounds. The
  // per-sample forward pass that opens every step is timed on its own,
  // over the same samples, after the steps.
  {
    util::Rng srng(opts.seed + 5);
    dnn::Network net(dnn::NetworkConfig{}, srng);
    constexpr std::size_t kSamples = 256;
    constexpr std::size_t kSteps = 4096;
    std::vector<std::vector<double>> inputs(kSamples);
    std::vector<std::vector<double>> targets(kSamples);
    for (std::size_t i = 0; i < kSamples; ++i) {
      for (std::size_t c = 0; c < net.config().input_size; ++c) {
        inputs[i].push_back(srng.uniform(0.0, 1.0));
      }
      targets[i].push_back(srng.uniform(-0.2, 0.2));
    }
    double step_ms = std::numeric_limits<double>::infinity();
    {
      obs::ScopedTimer timer("bench.dnn_sgd_step");
      for (std::size_t round = 0; round < kRounds; ++round) {
        bench::BenchTimer t;
        for (std::size_t step = 0; step < kSteps; ++step) {
          sink += net.train_step(inputs[step % kSamples],
                                 targets[step % kSamples], 0.05);
        }
        step_ms = std::min(step_ms, t.elapsed_ms());
      }
    }
    sgd_us_per_step = step_ms * 1e3 / static_cast<double>(kSteps);
    obs::set_gauge("bench.dnn_sgd_step_us", sgd_us_per_step);
    table.add_row("dnn_sgd_step", {1.0, rate(kSteps, step_ms), 0.0, 0.0});
    ++points;

    double forward_ms = std::numeric_limits<double>::infinity();
    {
      obs::ScopedTimer timer("bench.dnn_forward_step");
      for (std::size_t round = 0; round < kRounds; ++round) {
        bench::BenchTimer t;
        for (std::size_t step = 0; step < kSteps; ++step) {
          sink += net.forward(inputs[step % kSamples]).front();
        }
        forward_ms = std::min(forward_ms, t.elapsed_ms());
      }
    }
    forward_us_per_step = forward_ms * 1e3 / static_cast<double>(kSteps);
    obs::set_gauge("bench.dnn_forward_step_us", forward_us_per_step);
    table.add_row("dnn_forward_step",
                  {1.0, rate(kSteps, forward_ms), 0.0, 0.0});
    ++points;
  }

  // --- baseline predictors (scalar-only; the default batch adapter) -----
  {
    const predict::SeriesCorpus corpus = sine_corpus(3, 200, opts.seed + 4);
    predict::EtsPredictor ets;
    ets.train(corpus);
    predict::MarkovChainPredictor markov;
    markov.train(corpus);
    const predict::PredictionQuery query{.horizon = 6,
                                         .history = corpus.front()};
    constexpr std::size_t kReps = 2048;
    double ets_ms = 0.0;
    {
      obs::ScopedTimer timer("bench.ets_predict");
      bench::BenchTimer t;
      for (std::size_t rep = 0; rep < kReps; ++rep) sink += ets.predict(query);
      ets_ms = t.elapsed_ms();
    }
    double markov_ms = 0.0;
    {
      obs::ScopedTimer timer("bench.markov_predict");
      bench::BenchTimer t;
      for (std::size_t rep = 0; rep < kReps; ++rep) {
        sink += markov.predict(query);
      }
      markov_ms = t.elapsed_ms();
    }
    table.add_row("ets_predict", {1.0, rate(kReps, ets_ms), 0.0, 0.0});
    table.add_row("markov_predict", {1.0, rate(kReps, markov_ms), 0.0, 0.0});
    points += 2;
  }

  std::cout << table.to_string() << "dnn_sgd_step " << sgd_us_per_step
            << " us/step\ndnn_forward_step " << forward_us_per_step
            << " us/step\ndnn_gemv_50x50 " << gemv_ns << " ns/call\n";
  std::cout << "checksum " << sink << "\n\n";
  bench::finish(opts, "micro_kernels", total, points, /*threads=*/1);
  return 0;
}
