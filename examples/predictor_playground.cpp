// Scenario: the prediction stack under a microscope.
//
// Trains CORP's full pipeline (DNN + HMM correction + confidence bound +
// Eq. 21 gate) next to the three baselines on the same historical corpus,
// then walks one job's life slot-by-slot, printing each method's forecast
// of the next window's unused CPU against what actually happened.
//
//   ./predictor_playground [seed]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "predict/stacks.hpp"
#include "sim/experiment.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace corp;
  const std::uint64_t seed =
      argc > 1 ? static_cast<std::uint64_t>(std::atoll(argv[1])) : 3;

  const auto env = cluster::EnvironmentConfig::PalmettoCluster();

  // Historical corpus (request-normalized unused-CPU series).
  trace::GoogleTraceGenerator history_gen(
      sim::scaled_generator_config(env, 200, 240));
  util::Rng history_rng(seed);
  const trace::Trace history = history_gen.generate(history_rng);
  const predict::VectorCorpus corpus = sim::build_unused_corpus(history);
  constexpr std::size_t kCpu = 0;

  std::cout << "training on " << corpus.per_type[kCpu].size()
            << " historical unused-CPU segments...\n";

  // Use the experiment harness's default operating point: Table II's raw
  // values (eta = 0.9, P_th = 0.95) describe the most conservative corner
  // of the sweep; the harness maps a moderate aggressiveness onto them.
  sim::ExperimentConfig experiment;
  experiment.environment = env;
  const predict::StackConfig stack_config =
      *sim::make_simulation_config(experiment, predict::Method::kCorp).stack;

  util::Rng rng(seed * 7 + 1);
  std::vector<std::unique_ptr<predict::PredictionStack>> stacks;
  for (predict::Method m : predict::kAllMethods) {
    stacks.push_back(predict::make_stack(m, stack_config, rng));
    stacks.back()->train(corpus.per_type[kCpu]);
  }

  // Pick a reasonably long job from a fresh trace to walk through.
  trace::GoogleTraceGenerator eval_gen(
      sim::scaled_generator_config(env, 40, 20));
  util::Rng eval_rng(seed * 11 + 2);
  const trace::Trace eval = eval_gen.generate(eval_rng);
  const trace::Job* subject = nullptr;
  for (const auto& job : eval.jobs()) {
    if (job.duration_slots >= 24 &&
        (subject == nullptr ||
         job.duration_slots > subject->duration_slots)) {
      subject = &job;
    }
  }
  if (subject == nullptr) {
    std::cerr << "no long-enough job in the sample trace\n";
    return 1;
  }

  std::cout << "subject task " << subject->id << ": "
            << subject->duration_slots << " slots, request "
            << subject->request << ", class "
            << trace::job_class_name(subject->job_class) << "\n\n";

  std::vector<double> unused;
  for (std::size_t t = 0; t < subject->usage.size(); ++t) {
    unused.push_back(subject->unused_at(t)[kCpu] /
                     subject->request[kCpu]);
  }

  const std::size_t window = trace::kWindowSlots;
  util::TextTable table({"t (slot)", "actual next-window", "CORP", "RCCR",
                         "CloudScale", "DRA"});
  for (std::size_t t = window; t + window < unused.size(); t += window) {
    const std::span<const double> observed(unused.data(), t);
    double actual = 0.0;
    for (std::size_t k = 0; k < window; ++k) actual += unused[t + k];
    actual /= static_cast<double>(window);
    std::vector<double> row{actual};
    for (auto& stack : stacks) row.push_back(stack->predict(observed));
    table.add_row(std::to_string(t), row);
  }
  std::cout << "request-normalized unused CPU, forecast one window (1 min) "
               "ahead:\n"
            << table.to_string() << '\n';

  // Gate state (Eq. 21): which stacks would currently unlock their
  // predicted unused resource for reallocation?
  util::TextTable gates({"method", "gate probability", "unlocked"});
  for (std::size_t i = 0; i < stacks.size(); ++i) {
    gates.add_row(std::string(predict::method_name(predict::kAllMethods[i])),
                  {stacks[i]->gate_probability(),
                   stacks[i]->unlocked() ? 1.0 : 0.0});
  }
  std::cout << gates.to_string()
            << "\nCORP's forecasts sit just under the actuals (the Eq. 19 "
               "lower bound), which is what keeps its gate probability "
               "high: errors are small AND on the safe side.\n";
  return 0;
}
