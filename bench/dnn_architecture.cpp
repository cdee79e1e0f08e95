// DNN architecture ablation: the paper fixes h = 4 hidden layers of
// N_n = 50 units (Table II, citing Lv et al.'s traffic-prediction work).
// This bench sweeps depth and width on the unused-resource prediction
// task and reports accuracy and training/inference cost.
#include <chrono>
#include <iostream>

#include "dnn/trainer.hpp"
#include "figure_common.hpp"
#include "util/table.hpp"

namespace {

using namespace corp;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_options(argc, argv);
  const bench::BenchTimer timer;
  const sim::ExperimentConfig experiment = bench::cluster_experiment(opts);
  trace::GoogleTraceGenerator gen(sim::scaled_generator_config(
      experiment.environment, experiment.training_jobs,
      experiment.training_horizon_slots));
  util::Rng trace_rng(31);
  const trace::Trace history = gen.generate(trace_rng);
  const predict::VectorCorpus corpus = sim::build_unused_corpus(history);

  // One pooled dataset (CPU type), windowed like the predictor does.
  dnn::Dataset data;
  for (const auto& series : corpus.per_type[0]) {
    dnn::Dataset part = dnn::make_windowed_dataset(series, 12, 6);
    for (auto& in : part.inputs) data.inputs.push_back(std::move(in));
    for (auto& tg : part.targets) data.targets.push_back(std::move(tg));
  }
  std::cout << "dataset: " << data.size()
            << " windows of unused-CPU history\n\n";

  struct Arch {
    std::string name;
    std::size_t layers;
    std::size_t units;
  };
  const std::vector<Arch> archs{
      {"2 x 25", 2, 25},  {"2 x 50", 2, 50},   {"4 x 50 (paper)", 4, 50},
      {"4 x 100", 4, 100}, {"6 x 50", 6, 50},
  };

  std::cout << "== architecture sweep ==\n";
  util::TextTable table({"architecture", "params", "val loss", "epochs",
                         "train ms", "infer us"});
  for (const Arch& arch : archs) {
    util::Rng rng(91);
    dnn::NetworkConfig net_config;
    net_config.input_size = 12;
    net_config.hidden_layers = arch.layers;
    net_config.hidden_units = arch.units;
    dnn::Network net(net_config, rng);
    dnn::TrainerConfig trainer_config;
    trainer_config.max_epochs = 25;
    trainer_config.patience = 3;
    trainer_config.pretrain_epochs = 2;
    dnn::Trainer trainer(trainer_config, rng);

    const auto t0 = Clock::now();
    const dnn::TrainReport report = trainer.fit(net, 0.05, data);
    const double train_ms = ms_since(t0);

    const std::vector<double> probe(12, 0.5);
    const auto t1 = Clock::now();
    constexpr int kReps = 2000;
    for (int i = 0; i < kReps; ++i) net.predict(probe);
    const double infer_us = ms_since(t1) * 1000.0 / kReps;

    table.add_row(arch.name,
                  {static_cast<double>(net.parameter_count()),
                   report.best_validation_loss,
                   static_cast<double>(report.epochs_run), train_ms,
                   infer_us});
  }
  std::cout << table.to_string();
  bench::finish(opts, "dnn_architecture", timer, archs.size(), 1);
  return 0;
}
