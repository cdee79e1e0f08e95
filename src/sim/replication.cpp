#include "sim/replication.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/seed_streams.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace corp::sim {

namespace {

/// Confidence level of the half-width (two-sided, normal approx).
constexpr double kConfidence = 0.95;

MetricEstimate estimate(const std::vector<double>& samples) {
  MetricEstimate out;
  // A lone sample carries no spread information: report "unknown", not a
  // misleadingly tight zero-width interval. Table/CSV writers render the
  // NaN as "n/a".
  out.half_width = std::numeric_limits<double>::quiet_NaN();
  if (samples.empty()) return out;
  util::RunningStats stats;
  for (double x : samples) stats.add(x);
  out.mean = stats.mean();
  out.min = stats.min();
  out.max = stats.max();
  if (samples.size() > 1) {
    const double theta = 1.0 - kConfidence;
    out.half_width = util::z_half_alpha(theta) * stats.stddev() /
                     std::sqrt(static_cast<double>(samples.size()));
  }
  return out;
}

}  // namespace

std::uint64_t replica_seed(std::uint64_t base_seed, std::size_t replica) {
  return util::derive_seed(base_seed, util::seed_stream::kReplica,
                           static_cast<std::uint64_t>(replica));
}

ReplicatedPoint run_replicated_point(const ExperimentConfig& experiment,
                                     Method method, std::size_t num_jobs,
                                     const ReplicationConfig& config,
                                     double aggressiveness) {
  if (config.replications == 0) {
    throw std::invalid_argument("run_replicated_point: zero replications");
  }
  const obs::ScopedTimer point_timer("replicate.point");
  obs::count("replicate.replicas", config.replications);
  const auto start = std::chrono::steady_clock::now();

  // Each replica writes only its own pre-allocated slot; aggregation below
  // walks the slots in replica order, so the thread schedule cannot leak
  // into the result.
  std::vector<PointResult> points(config.replications);
  util::ThreadPool pool(config.threads);
  pool.parallel_for(config.replications, [&](std::size_t r) {
    // Per-replica stage timing: replicas run concurrently, so total_ms
    // across replicas exceeds the wall time of the fan-out.
    const obs::ScopedTimer replica_timer("replicate.replica");
    ExperimentConfig replica = experiment;
    replica.seed = replica_seed(experiment.seed, r);
    points[r] = run_point(replica, method, num_jobs, aggressiveness);
  });

  std::vector<double> util_s, slo, err, opp;
  util_s.reserve(points.size());
  slo.reserve(points.size());
  err.reserve(points.size());
  opp.reserve(points.size());
  for (const PointResult& point : points) {
    util_s.push_back(point.sim.overall_utilization);
    slo.push_back(point.sim.slo_violation_rate);
    err.push_back(point.prediction.error_rate);
    opp.push_back(static_cast<double>(point.sim.opportunistic_placements));
  }

  ReplicatedPoint out;
  out.replications = config.replications;
  out.overall_utilization = estimate(util_s);
  out.slo_violation_rate = estimate(slo);
  out.prediction_error_rate = estimate(err);
  out.opportunistic_placements = estimate(opp);

  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - start;
  out.timing.wall_ms = wall.count();
  out.timing.replicas_per_sec =
      wall.count() > 0.0
          ? static_cast<double>(config.replications) * 1e3 / wall.count()
          : 0.0;
  out.timing.threads = pool.size();
  if (obs::enabled()) {
    obs::registry()
        .gauge("replicate.replicas_per_sec")
        .set(out.timing.replicas_per_sec);
  }
  return out;
}

}  // namespace corp::sim
