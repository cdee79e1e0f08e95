// Multi-seed replication: the paper reports single curves, but a credible
// reproduction quantifies run-to-run spread. ReplicatedPoint repeats a
// (method, workload) point across independent seeds and reports mean and
// a normal-approximation confidence half-width for each headline metric.
//
// Replicas fan out over a util::ThreadPool and are gathered in replica
// order, so the result is bit-identical whatever the thread count or
// schedule. Replica seeds come from util::derive_seed (SplitMix64), which
// guarantees that replica streams never collide — neither within one base
// seed nor across the base seeds of a sweep (the old additive
// `seed + 1000*(r+1)` formula aliased replica k+1 of seed S onto replica k
// of seed S+1000, silently correlating "independent" samples).
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/experiment.hpp"

namespace corp::sim {

/// Mean and symmetric confidence half-width of one metric across seeds.
struct MetricEstimate {
  double mean = 0.0;
  /// z * sd / sqrt(n) at 95% confidence (two-sided, normal approx); NaN
  /// when n < 2 (spread unknown, not zero).
  double half_width = 0.0;
  double min = 0.0;
  double max = 0.0;

  double lower() const { return mean - half_width; }
  double upper() const { return mean + half_width; }
};

/// Wall-clock record of one replicated point, for tracking the harness's
/// throughput over time. Not part of the statistical result: determinism
/// comparisons must ignore it.
struct ReplicationTiming {
  double wall_ms = 0.0;
  double replicas_per_sec = 0.0;
  std::size_t threads = 1;  // actual worker count used
};

struct ReplicatedPoint {
  std::size_t replications = 0;
  MetricEstimate overall_utilization;
  MetricEstimate slo_violation_rate;
  MetricEstimate prediction_error_rate;
  MetricEstimate opportunistic_placements;
  ReplicationTiming timing;
};

struct ReplicationConfig {
  std::size_t replications = 5;
  /// Worker threads for the replica fan-out (0 = hardware concurrency).
  std::size_t threads = 0;
};

/// Seed of replica `replica` of base seed `base_seed`: a dedicated
/// SplitMix64 stream, collision-free across replicas and sweep seeds.
/// Exposed so tests and docs can pin the scheme down.
std::uint64_t replica_seed(std::uint64_t base_seed, std::size_t replica);

/// Runs `config.replications` independent repetitions of a point — each
/// with a distinct derived experiment seed, hence distinct training and
/// evaluation traces — and aggregates the headline metrics. Parallel
/// execution is bit-identical to serial.
ReplicatedPoint run_replicated_point(const ExperimentConfig& experiment,
                                     Method method, std::size_t num_jobs,
                                     const ReplicationConfig& config = {},
                                     double aggressiveness = 0.35);

}  // namespace corp::sim
