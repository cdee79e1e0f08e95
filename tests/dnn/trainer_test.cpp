#include "dnn/trainer.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dnn/loss.hpp"

namespace corp::dnn {
namespace {

TEST(DatasetTest, ConsistencyChecks) {
  Dataset d;
  EXPECT_TRUE(d.consistent());
  d.inputs.push_back({1.0, 2.0});
  d.targets.push_back({3.0});
  EXPECT_TRUE(d.consistent());
  d.inputs.push_back({1.0});  // ragged
  d.targets.push_back({3.0});
  EXPECT_FALSE(d.consistent());
}

TEST(DatasetTest, ConsistencyDetectsCountMismatch) {
  Dataset d;
  d.inputs.push_back({1.0});
  EXPECT_FALSE(d.consistent());
}

TEST(DatasetTest, ChronologicalValidationSplit) {
  Dataset d;
  for (int i = 0; i < 10; ++i) {
    d.inputs.push_back({static_cast<double>(i)});
    d.targets.push_back({static_cast<double>(i)});
  }
  // Validation must be the chronological tail (no future leakage):
  // samples 0..6 train, 7..9 validate.
  EXPECT_EQ(d.validation_start(0.3), 7u);
  EXPECT_DOUBLE_EQ(d.inputs[d.validation_start(0.3)][0], 7.0);
  // The hold-out is clamped to 90%, so at least one sample trains.
  EXPECT_EQ(d.validation_start(1.0), 1u);
  EXPECT_EQ(d.validation_start(-1.0), 10u);
}

TEST(WindowedDatasetTest, ShapesAndTargets) {
  std::vector<double> series{1, 2, 3, 4, 5, 6, 7, 8};
  const Dataset d = make_windowed_dataset(series, 3, 2);
  // Windows: starts 0..3 -> 4 samples.
  ASSERT_EQ(d.size(), 4u);
  EXPECT_EQ(d.inputs[0], (Vector{1, 2, 3}));
  // Target = mean of the next 2 values (4, 5) = 4.5.
  EXPECT_DOUBLE_EQ(d.targets[0][0], 4.5);
  EXPECT_EQ(d.inputs[3], (Vector{4, 5, 6}));
  EXPECT_DOUBLE_EQ(d.targets[3][0], 7.5);
}

TEST(WindowedDatasetTest, TooShortSeriesGivesEmpty) {
  std::vector<double> series{1, 2, 3};
  EXPECT_EQ(make_windowed_dataset(series, 3, 2).size(), 0u);
}

TEST(WindowedDatasetTest, RejectsZeroParameters) {
  std::vector<double> series{1, 2, 3, 4};
  EXPECT_THROW(make_windowed_dataset(series, 0, 1), std::invalid_argument);
  EXPECT_THROW(make_windowed_dataset(series, 1, 0), std::invalid_argument);
}

Dataset sine_dataset(std::size_t n) {
  std::vector<double> series;
  for (std::size_t i = 0; i < n; ++i) {
    series.push_back(0.5 + 0.4 * std::sin(0.3 * static_cast<double>(i)));
  }
  return make_windowed_dataset(series, 6, 2);
}

TEST(TrainerTest, ReducesValidationLoss) {
  util::Rng rng(3);
  NetworkConfig net_config;
  net_config.input_size = 6;
  net_config.hidden_layers = 2;
  net_config.hidden_units = 12;
  Network net(net_config, rng);

  TrainerConfig config;
  config.max_epochs = 30;
  config.pretrain_epochs = 0;
  Trainer trainer(config, rng);
  const Dataset data = sine_dataset(300);
  const double before = Trainer::evaluate(net, data);
  const TrainReport report = trainer.fit(net, 0.1, data);
  const double after = Trainer::evaluate(net, data);
  EXPECT_LT(after, before);
  EXPECT_GT(report.epochs_run, 0u);
  EXPECT_FALSE(report.validation_curve.empty());
  EXPECT_LT(report.best_validation_loss, before);
}

TEST(TrainerTest, PatienceStopsEarly) {
  util::Rng rng(3);
  NetworkConfig net_config;
  net_config.input_size = 6;
  net_config.hidden_layers = 1;
  net_config.hidden_units = 4;
  Network net(net_config, rng);
  TrainerConfig config;
  config.max_epochs = 200;
  config.patience = 2;
  config.min_delta = 1e-3;  // coarse: plateaus trigger quickly
  config.pretrain_epochs = 0;
  Trainer trainer(config, rng);
  const TrainReport report = trainer.fit(net, 0.05, sine_dataset(150));
  EXPECT_TRUE(report.converged);
  EXPECT_LT(report.epochs_run, 200u);
}

TEST(TrainerTest, PretrainingDoesNotBreakTraining) {
  util::Rng rng(5);
  NetworkConfig net_config;
  net_config.input_size = 6;
  net_config.hidden_layers = 2;
  net_config.hidden_units = 10;
  Network net(net_config, rng);
  TrainerConfig config;
  config.max_epochs = 20;
  config.pretrain_epochs = 3;
  Trainer trainer(config, rng);
  const Dataset data = sine_dataset(200);
  const TrainReport report = trainer.fit(net, 0.1, data);
  EXPECT_LT(report.best_validation_loss, 0.05);
}

TEST(TrainerTest, EmptyDatasetIsNoop) {
  util::Rng rng(5);
  NetworkConfig net_config;
  net_config.input_size = 2;
  Network net(net_config, rng);
  Trainer trainer({}, rng);
  const TrainReport report = trainer.fit(net, 0.1, Dataset{});
  EXPECT_EQ(report.epochs_run, 0u);
}

TEST(TrainerTest, InconsistentDatasetThrows) {
  util::Rng rng(5);
  NetworkConfig net_config;
  net_config.input_size = 2;
  Network net(net_config, rng);
  Trainer trainer({}, rng);
  Dataset bad;
  bad.inputs.push_back({1.0, 2.0});
  EXPECT_THROW(trainer.fit(net, 0.1, bad), std::invalid_argument);
}

TEST(TrainerTest, RejectsNonPositiveLearningRate) {
  util::Rng rng(5);
  NetworkConfig net_config;
  net_config.input_size = 6;
  Network net(net_config, rng);
  Trainer trainer({}, rng);
  const Dataset data = sine_dataset(50);
  EXPECT_THROW(trainer.fit(net, 0.0, data), std::invalid_argument);
  EXPECT_THROW(trainer.fit(net, -0.1, data), std::invalid_argument);
}

// evaluate() runs one batched forward pass in chunks; each row is
// bit-identical to predict() and the losses are summed in sample order,
// so it must equal the per-sample sweep exactly. 2500 rows cross two
// chunk boundaries.
TEST(TrainerTest, EvaluateMatchesPerSampleSweep) {
  util::Rng rng(9);
  NetworkConfig net_config;
  net_config.input_size = 6;
  net_config.hidden_layers = 2;
  net_config.hidden_units = 7;
  Network net(net_config, rng);
  const Dataset data = sine_dataset(2507);
  ASSERT_EQ(data.size(), 2500u);
  double total = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    total += mse(net.predict(data.inputs[i]), data.targets[i]);
  }
  EXPECT_EQ(Trainer::evaluate(net, data),
            total / static_cast<double>(data.size()));
}

}  // namespace
}  // namespace corp::dnn
