// Experiment harness: parameter sweeps that regenerate each figure of the
// paper's evaluation (Sec. IV) as a printable/CSV-able series table.
//
// Figure map (see DESIGN.md):
//   Fig. 6        prediction error rate vs number of jobs
//   Fig. 7 / 11   per-type resource utilization vs number of jobs
//   Fig. 8 / 12   overall utilization vs SLO violation rate
//   Fig. 9 / 13   SLO violation rate vs confidence level
//   Fig. 10 / 14  allocation latency for 300 jobs
// The cluster figures use EnvironmentConfig::PalmettoCluster(), the EC2
// figures EnvironmentConfig::AmazonEc2(); the harness is parameterized on
// the environment so each bench binary picks its testbed.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/prediction_eval.hpp"
#include "sim/simulation.hpp"
#include "util/seed_streams.hpp"

namespace corp::sim {

/// Stream tags for util::derive_seed live in the central registry
/// (util/seed_streams.hpp), where a static_assert proves they are
/// pairwise distinct. The alias keeps the historical spelling
/// `seed_stream::kTraining` etc. working for sim code.
namespace seed_stream = ::corp::util::seed_stream;

/// Seed of the (shared, per-experiment) training trace.
std::uint64_t training_seed(std::uint64_t base_seed);
/// Seed of the evaluation trace for one sweep point.
std::uint64_t evaluation_seed(std::uint64_t base_seed, std::size_t num_jobs);
/// Seed of one method's simulation (scheduler tie-breaks etc.).
std::uint64_t simulation_seed(std::uint64_t base_seed, Method method);

/// One plotted series: a method's y value per x.
struct Series {
  std::string name;
  std::vector<double> y;
};

/// A figure as a table: shared x axis plus one series per method.
struct Figure {
  std::string id;      // e.g. "fig06"
  std::string title;
  std::string xlabel;
  std::string ylabel;
  std::vector<double> x;
  std::vector<Series> series;

  /// Renders as an aligned text table.
  std::string to_table() const;
  /// Writes CSV (header: xlabel, series names).
  void write_csv(std::ostream& out) const;
};

struct ExperimentConfig {
  cluster::EnvironmentConfig environment =
      cluster::EnvironmentConfig::PalmettoCluster();
  Params params;
  /// Fault-injection model forwarded into every simulation this
  /// experiment runs (inert by default).
  fault::FaultConfig faults;
  std::uint64_t seed = 7;
  /// Jobs in the historical (training) trace.
  std::size_t training_jobs = 200;
  std::int64_t training_horizon_slots = 240;
  /// Arrival horizon of evaluation traces. Dense enough that the 300-job
  /// sweep point loads the cluster heavily (the paper's evaluation runs
  /// its testbeds near saturation at 300 jobs).
  std::int64_t eval_horizon_slots = 20;
  /// Worker threads for sweep parallelism live in params.threads (one knob
  /// shared with the replication harness).
};

/// Everything one (method, workload) run produces.
struct PointResult {
  SimulationResult sim;
  PredictionEvalResult prediction;
};

/// Knob in [0, 1] trading SLO risk for utilization, mapped onto each
/// method's own aggressiveness lever (P_th/confidence for CORP and RCCR,
/// padding scale for CloudScale, entitlement scale for DRA). 0 = most
/// conservative.
SimulationConfig make_simulation_config(const ExperimentConfig& experiment,
                                        Method method,
                                        double aggressiveness = 0.35);

/// Runs one point: builds training + evaluation traces (seeded by
/// `num_jobs` so every method sees identical workloads), trains, runs,
/// and evaluates prediction error. `confidence_override` pins the
/// confidence level eta regardless of the aggressiveness mapping (used by
/// the Fig. 9/13 sweep).
PointResult run_point(const ExperimentConfig& experiment, Method method,
                      std::size_t num_jobs, double aggressiveness = 0.35,
                      std::optional<double> confidence_override = {});

class ExperimentHarness {
 public:
  explicit ExperimentHarness(ExperimentConfig config);

  const ExperimentConfig& config() const { return config_; }

  /// Fig. 6: prediction error rate vs number of jobs.
  Figure figure_prediction_error();

  /// Fig. 7 / 11: one Figure per resource type, utilization vs jobs.
  std::vector<Figure> figure_utilization();

  /// Fig. 8 / 12: overall utilization at target SLO violation rates
  /// (5%..30%), interpolated from an aggressiveness sweep.
  Figure figure_utilization_vs_slo();

  /// Fig. 9 / 13: SLO violation rate vs confidence level (50%..90%).
  Figure figure_slo_vs_confidence();

  /// Fig. 10 / 14: allocation latency for 300 jobs, one value per method.
  Figure figure_overhead();

  /// Number of simulated points this harness has run (cache hits excluded);
  /// the bench timing records divide wall time by this for points/sec.
  std::size_t points_run() const { return points_run_.load(); }

  /// Actual worker-thread count the sweeps use.
  std::size_t sweep_threads() const;

 private:
  std::vector<std::size_t> job_counts() const;

  /// Jobs sweep (50..300 step 50) for every method at the default
  /// aggressiveness, parallelized. Results indexed [method][point].
  std::vector<std::vector<PointResult>> sweep_jobs();

  ExperimentConfig config_;
  /// Cached jobs sweep (figures 6 and 7 share it).
  std::vector<std::vector<PointResult>> cached_sweep_;
  bool sweep_cached_ = false;
  std::atomic<std::size_t> points_run_{0};
};

}  // namespace corp::sim
