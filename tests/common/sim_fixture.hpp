// Shared fixtures of the simulation suites: the small generated traces
// and fault mix every differential test runs on, and the one field list
// that decides what "bit-identical results" means. The differential
// suites (shards, threads, clock modes, streamed vs materialized input,
// metrics on/off) and the golden pins all compare through
// `deterministic_fields`, so a field added to SimulationResult is
// compared everywhere or nowhere.
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/environment.hpp"
#include "fault/fault.hpp"
#include "sim/simulation.hpp"
#include "sim/timeline.hpp"
#include "trace/generator.hpp"
#include "util/rng.hpp"

namespace corp::testfix {

/// `jobs` generated short-lived jobs submitted over `horizon_slots`,
/// sized for `env`'s VMs.
inline trace::Trace tiny_trace(const cluster::EnvironmentConfig& env,
                               std::size_t jobs, std::uint64_t seed,
                               std::int64_t horizon_slots = 10) {
  trace::GoogleTraceGenerator gen(
      sim::scaled_generator_config(env, jobs, horizon_slots));
  util::Rng rng(seed);
  return gen.generate(rng);
}

/// tiny_trace on the paper's Palmetto testbed.
inline trace::Trace tiny_trace(std::size_t jobs, std::uint64_t seed) {
  return tiny_trace(cluster::EnvironmentConfig::PalmettoCluster(), jobs, seed);
}

/// `bursts` arrival waves separated by `gap`-slot idle valleys: the
/// generator spreads submissions over [0, bursts); remapping slot k to
/// k * gap keeps each wave's internal ordering while opening spans the
/// event clock can jump.
inline trace::Trace sparse_trace(const cluster::EnvironmentConfig& env,
                                 std::size_t jobs, std::int64_t bursts,
                                 std::int64_t gap, std::uint64_t seed) {
  trace::Trace t = tiny_trace(env, jobs, seed, bursts);
  for (trace::Job& job : t.jobs()) {
    job.submit_slot = (job.submit_slot % bursts) * gap;
  }
  t.sort();
  return t;
}

/// Heavy fault mix that is certain to fire on a short run.
inline fault::FaultConfig heavy_faults() {
  fault::FaultConfig faults;
  faults.vm_mttf_slots = 15.0;
  faults.vm_mttr_slots = 6.0;
  faults.telemetry_gap_rate = 0.10;
  faults.straggler_rate = 0.25;
  faults.predictor_fault_rate = 0.10;
  return faults;
}

struct ResultField {
  std::string name;
  double value = 0.0;  // counters are exact: all stay far below 2^53
};

/// FNV-1a over every timeline sample, field by field, doubles by bit
/// pattern; 0 for an empty timeline.
inline std::uint64_t timeline_digest(const sim::Timeline& timeline) {
  if (timeline.empty()) return 0;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (word >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const sim::TimelineSample& s : timeline.samples()) {
    mix(static_cast<std::uint64_t>(s.slot));
    mix(s.running_reserved);
    mix(s.running_opportunistic);
    mix(s.queued);
    mix(std::bit_cast<std::uint64_t>(s.overall_utilization));
    mix(std::bit_cast<std::uint64_t>(s.committed_fraction));
    mix(s.completions);
    mix(s.violations);
  }
  return h;
}

/// Every deterministic SimulationResult field, in declaration order,
/// except those that differ by design between the runs the suites
/// compare: `method`; the two wall-clock latencies; `slots_ticked` and
/// `slots_skipped`, which depend on the clock mode (their sum is
/// `slots_simulated`); and `trust_lambda`, which differs by method at
/// the prediction-aware λ=0 endpoint. The timeline enters as its sample
/// count plus a digest (stored as two 32-bit halves to stay exact).
inline std::vector<ResultField> deterministic_fields(
    const sim::SimulationResult& r) {
  const auto d = [](auto v) { return static_cast<double>(v); };
  std::vector<ResultField> f;
  for (std::size_t i = 0; i < trace::kNumResources; ++i) {
    const std::string kind(
        trace::resource_name(static_cast<trace::ResourceKind>(i)));
    f.push_back({"mean_utilization." + kind, r.mean_utilization[i]});
  }
  f.push_back({"overall_utilization", r.overall_utilization});
  for (std::size_t i = 0; i < trace::kNumResources; ++i) {
    const std::string kind(
        trace::resource_name(static_cast<trace::ResourceKind>(i)));
    f.push_back({"mean_wastage." + kind, r.mean_wastage[i]});
  }
  f.push_back({"overall_wastage", r.overall_wastage});
  f.push_back({"slo_violation_rate", r.slo_violation_rate});
  f.push_back({"mean_stretch", r.mean_stretch});
  f.push_back({"jobs_completed", d(r.jobs_completed)});
  f.push_back({"jobs_violated", d(r.jobs_violated)});
  f.push_back({"jobs_forced", d(r.jobs_forced)});
  f.push_back({"opportunistic_placements", d(r.opportunistic_placements)});
  f.push_back({"reserved_placements", d(r.reserved_placements)});
  f.push_back({"lease_promotions", d(r.lease_promotions)});
  f.push_back({"lease_preemptions", d(r.lease_preemptions)});
  f.push_back({"vm_crashes", d(r.vm_crashes)});
  f.push_back({"vm_recoveries", d(r.vm_recoveries)});
  f.push_back({"jobs_killed", d(r.jobs_killed)});
  f.push_back({"job_retries", d(r.job_retries)});
  f.push_back({"jobs_dropped", d(r.jobs_dropped)});
  f.push_back({"telemetry_gaps", d(r.telemetry_gaps)});
  f.push_back({"degradation_tier", d(r.degradation_tier)});
  f.push_back({"slots_simulated", d(r.slots_simulated)});
  f.push_back({"predictions_amortized", d(r.predictions_amortized)});
  const std::uint64_t digest = timeline_digest(r.timeline);
  f.push_back({"timeline.samples", d(r.timeline.samples().size())});
  f.push_back({"timeline.digest_hi", d(digest >> 32)});
  f.push_back({"timeline.digest_lo", d(digest & 0xffffffffULL)});
  return f;
}

/// Bit identity over deterministic_fields: doubles compare exactly, the
/// contract is not a tolerance.
inline void expect_identical(const sim::SimulationResult& a,
                             const sim::SimulationResult& b) {
  const std::vector<ResultField> fa = deterministic_fields(a);
  const std::vector<ResultField> fb = deterministic_fields(b);
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].value, fb[i].value) << fa[i].name;
  }
}

}  // namespace corp::testfix
