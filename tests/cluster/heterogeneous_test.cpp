// Heterogeneous node classes: Cluster must carve each NodeClass into a
// contiguous VM-id range with per-class capacities, homogeneous
// environments must keep the legacy layout bit for bit, and the
// partition-level reserved-admission cap (max_reserved_jobs) must gate
// new reservations inside the sharded slot engine — shard-invariantly,
// with opportunistic placement unaffected.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "../common/sim_fixture.hpp"
#include "cluster/cluster.hpp"
#include "cluster/environment.hpp"
#include "sim/simulation.hpp"

namespace corp::cluster {
namespace {

using testfix::expect_identical;
using testfix::tiny_trace;

sim::SimulationResult run_corp(const EnvironmentConfig& env,
                               std::size_t shards, std::size_t threads,
                               const trace::Trace& training,
                               const trace::Trace& eval) {
  sim::SimulationConfig config;
  config.environment = env;
  config.method = sim::Method::kCorp;
  config.seed = 5;
  config.params.shards = shards;
  config.params.threads = threads;
  sim::Simulation sim(std::move(config));
  sim.train(training);
  return sim.run(eval);
}

TEST(HeterogeneousClusterTest, SlurmPresetBuildsContiguousPartitions) {
  const EnvironmentConfig env = EnvironmentConfig::SlurmHeterogeneous();
  ASSERT_TRUE(env.heterogeneous());
  const Cluster cluster(env);

  // compute 32x2 = 64 VMs, bigmem 8x1 = 8, burst 10x4 = 40.
  ASSERT_EQ(cluster.num_vms(), 112u);
  ASSERT_EQ(cluster.num_pms(), 50u);
  ASSERT_EQ(cluster.num_partitions(), 3u);

  const trace::ResourceVector compute_vm(8.0, 32.0, 360.0);
  const trace::ResourceVector bigmem_vm(32.0, 256.0, 1440.0);
  const trace::ResourceVector burst_vm(2.0, 4.0, 90.0);
  for (std::size_t v = 0; v < cluster.num_vms(); ++v) {
    const std::uint32_t partition = cluster.vm_partition(v);
    if (v < 64) {
      EXPECT_EQ(partition, 0u) << "vm " << v;
      EXPECT_EQ(cluster.vm(v).capacity(), compute_vm) << "vm " << v;
    } else if (v < 72) {
      EXPECT_EQ(partition, 1u) << "vm " << v;
      EXPECT_EQ(cluster.vm(v).capacity(), bigmem_vm) << "vm " << v;
    } else {
      EXPECT_EQ(partition, 2u) << "vm " << v;
      EXPECT_EQ(cluster.vm(v).capacity(), burst_vm) << "vm " << v;
    }
  }

  // Every PM carries its class's capacity and its VMs point back at it.
  for (std::size_t p = 0; p < cluster.num_pms(); ++p) {
    const PhysicalMachine& pm = cluster.pm(p);
    for (const std::uint32_t vm_id : pm.vm_ids) {
      EXPECT_EQ(cluster.vm_partition(vm_id), pm.partition) << "pm " << p;
    }
  }

  EXPECT_EQ(cluster.partition_reserved_cap(0), 0u);
  EXPECT_EQ(cluster.partition_reserved_cap(1), 0u);
  EXPECT_EQ(cluster.partition_reserved_cap(2), 48u);

  // Workload generators size against the smallest VM carve.
  EXPECT_EQ(env.vm_capacity(), burst_vm);
  EXPECT_EQ(env.total_vms(), 112u);
}

TEST(HeterogeneousClusterTest, HomogeneousEnvironmentKeepsLegacyLayout) {
  const EnvironmentConfig env = EnvironmentConfig::PalmettoCluster();
  ASSERT_FALSE(env.heterogeneous());
  const Cluster cluster(env);
  EXPECT_EQ(cluster.num_vms(), 100u);
  EXPECT_EQ(cluster.num_partitions(), 1u);
  EXPECT_EQ(cluster.partition_reserved_cap(0), 0u);
  const trace::ResourceVector vm(8.0, 32.0, 360.0);
  for (std::size_t v = 0; v < cluster.num_vms(); ++v) {
    EXPECT_EQ(cluster.vm_partition(v), 0u) << "vm " << v;
    EXPECT_EQ(cluster.vm(v).capacity(), vm) << "vm " << v;
    EXPECT_EQ(cluster.pm(cluster.vm(v).pm_id()).partition, 0u) << "vm " << v;
  }
}

TEST(HeterogeneousClusterTest, HeterogeneousRunIsShardInvariant) {
  // The per-slot partition-reserved recount runs shard-locally and
  // merges serially; results must not depend on the shard layout.
  const EnvironmentConfig env = EnvironmentConfig::SlurmHeterogeneous();
  const trace::Trace training = tiny_trace(env, 60, 61);
  const trace::Trace eval = tiny_trace(env, 40, 62);

  const sim::SimulationResult serial =
      run_corp(env, 1, 1, training, eval);
  EXPECT_GT(serial.jobs_completed, 0u);

  const sim::SimulationResult sharded =
      run_corp(env, 8, 4, training, eval);
  expect_identical(serial, sharded);
}

TEST(HeterogeneousClusterTest, ReservedCapThrottlesAdmission) {
  // One partition whose cap allows a single concurrently reserved job:
  // admissions serialize, so far fewer reservations land than with the
  // cap lifted — while opportunistic placement keeps working. Both runs
  // are deterministic, so the comparison is stable.
  EnvironmentConfig capped;
  capped.name = "capped";
  NodeClass nodes;
  nodes.name = "only";
  nodes.num_pms = 2;
  nodes.vms_per_pm = 2;
  nodes.pm_capacity = trace::ResourceVector(16.0, 64.0, 720.0);
  nodes.max_reserved_jobs = 1;
  capped.partitions = {nodes};

  EnvironmentConfig uncapped = capped;
  uncapped.partitions[0].max_reserved_jobs = 0;

  const trace::Trace training = tiny_trace(capped, 60, 71);
  const trace::Trace eval = tiny_trace(capped, 50, 72);

  const sim::SimulationResult with_cap =
      run_corp(capped, 1, 1, training, eval);
  const sim::SimulationResult without_cap =
      run_corp(uncapped, 1, 1, training, eval);

  EXPECT_LT(with_cap.reserved_placements, without_cap.reserved_placements);
  EXPECT_GT(with_cap.reserved_placements, 0u);
  EXPECT_GT(with_cap.jobs_completed, 0u);

  // The cap also holds under sharding.
  const sim::SimulationResult with_cap_sharded =
      run_corp(capped, 4, 2, training, eval);
  expect_identical(with_cap, with_cap_sharded);
}

}  // namespace
}  // namespace corp::cluster
