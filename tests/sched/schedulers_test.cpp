#include <gtest/gtest.h>

#include "sched/baseline_schedulers.hpp"
#include "sched/corp_scheduler.hpp"
#include "sched/scheduler.hpp"

namespace corp::sched {
namespace {

Job make_job(std::uint64_t id, double cpu, double mem, double sto) {
  Job job;
  job.id = id;
  job.duration_slots = 2;
  job.request = ResourceVector(cpu, mem, sto);
  job.usage.assign(2, ResourceVector(cpu / 2, mem / 2, sto / 2));
  return job;
}

struct Fixture {
  std::vector<VmView> views;
  util::Rng rng{99};

  SchedulerContext context() {
    SchedulerContext ctx;
    ctx.vms = views;
    ctx.max_vm_capacity = ResourceVector(8, 32, 180);
    ctx.rng = &rng;
    return ctx;
  }
};

Fixture fixture_with_unused() {
  Fixture f;
  // VM 0: big unlocked unused pool; VM 1: unallocated only.
  VmView v0;
  v0.vm_id = 0;
  v0.predicted_unused = ResourceVector(4, 16, 90);
  v0.unlocked = true;
  v0.unallocated = ResourceVector(0.5, 2, 10);
  VmView v1;
  v1.vm_id = 1;
  v1.unallocated = ResourceVector(8, 32, 180);
  f.views = {v0, v1};
  return f;
}

TEST(CorpSchedulerTest, PrefersOpportunisticPool) {
  Fixture f = fixture_with_unused();
  CorpScheduler scheduler;
  const Job job = make_job(1, 1.0, 4.0, 10.0);
  const std::vector<const Job*> batch{&job};
  const auto ctx = f.context();
  const auto decisions = scheduler.place(batch, ctx);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, AllocationKind::kOpportunistic);
  EXPECT_EQ(decisions[0].vm_id, 0u);
  // Opportunistic carve is sized below the full request.
  EXPECT_LT(decisions[0].allocated.cpu(), job.request.cpu());
  EXPECT_LT(decisions[0].request_fraction, 1.0);
}

TEST(CorpSchedulerTest, FallsBackToFreshCommit) {
  Fixture f = fixture_with_unused();
  f.views[0].unlocked = false;  // pool locked
  CorpScheduler scheduler;
  const Job job = make_job(1, 1.0, 4.0, 10.0);
  const std::vector<const Job*> batch{&job};
  const auto ctx = f.context();
  const auto decisions = scheduler.place(batch, ctx);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, AllocationKind::kReserved);
  EXPECT_EQ(decisions[0].vm_id, 1u);
  EXPECT_EQ(decisions[0].allocated, job.request);
}

TEST(CorpSchedulerTest, UnplaceableJobOmitted) {
  Fixture f = fixture_with_unused();
  CorpScheduler scheduler;
  const Job huge = make_job(1, 100.0, 100.0, 1000.0);
  const std::vector<const Job*> batch{&huge};
  const auto ctx = f.context();
  EXPECT_TRUE(scheduler.place(batch, ctx).empty());
}

TEST(CorpSchedulerTest, PacksComplementaryArrivals) {
  Fixture f = fixture_with_unused();
  CorpScheduler scheduler;
  const Job cpu_job = make_job(1, 2.0, 0.5, 5.0);
  const Job mem_job = make_job(2, 0.5, 8.0, 5.0);
  const std::vector<const Job*> batch{&cpu_job, &mem_job};
  const auto ctx = f.context();
  const auto decisions = scheduler.place(batch, ctx);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].batch_indices.size(), 2u);
}

TEST(CorpSchedulerTest, PackingDisabledGivesSingletons) {
  Fixture f = fixture_with_unused();
  CorpSchedulerConfig config;
  config.enable_packing = false;
  CorpScheduler scheduler(config);
  const Job cpu_job = make_job(1, 2.0, 0.5, 5.0);
  const Job mem_job = make_job(2, 0.5, 8.0, 5.0);
  const std::vector<const Job*> batch{&cpu_job, &mem_job};
  const auto ctx = f.context();
  const auto decisions = scheduler.place(batch, ctx);
  EXPECT_EQ(decisions.size(), 2u);
}

TEST(CorpSchedulerTest, OpportunisticDisabledAlwaysReserves) {
  Fixture f = fixture_with_unused();
  CorpSchedulerConfig config;
  config.enable_opportunistic = false;
  CorpScheduler scheduler(config);
  const Job job = make_job(1, 1.0, 4.0, 10.0);
  const std::vector<const Job*> batch{&job};
  const auto ctx = f.context();
  const auto decisions = scheduler.place(batch, ctx);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, AllocationKind::kReserved);
}

TEST(CorpSchedulerTest, BatchDoesNotOversubscribeSnapshot) {
  // Two entities, each needing most of VM1's pool: the second must not
  // also land on VM1's opportunistic pool.
  Fixture f = fixture_with_unused();
  f.views[0].predicted_unused = ResourceVector(2.0, 8.0, 40.0);
  CorpScheduler scheduler;
  const Job a = make_job(1, 2.0, 2.0, 10.0);
  const Job b = make_job(2, 2.0, 2.0, 10.0);
  const std::vector<const Job*> batch{&a, &b};
  const auto ctx = f.context();
  const auto decisions = scheduler.place(batch, ctx);
  int opportunistic = 0;
  for (const auto& d : decisions) {
    if (d.kind == AllocationKind::kOpportunistic) ++opportunistic;
  }
  EXPECT_LE(opportunistic, 1);
}

TEST(RccrSchedulerTest, UsesOpportunisticPoolRandomly) {
  Fixture f = fixture_with_unused();
  RccrScheduler scheduler;
  const Job job = make_job(1, 1.0, 4.0, 10.0);
  const std::vector<const Job*> batch{&job};
  const auto ctx = f.context();
  const auto decisions = scheduler.place(batch, ctx);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, AllocationKind::kOpportunistic);
  EXPECT_EQ(decisions[0].vm_id, 0u);
}

TEST(RccrSchedulerTest, NoPacking) {
  Fixture f = fixture_with_unused();
  RccrScheduler scheduler;
  const Job cpu_job = make_job(1, 2.0, 0.5, 5.0);
  const Job mem_job = make_job(2, 0.5, 8.0, 5.0);
  const std::vector<const Job*> batch{&cpu_job, &mem_job};
  const auto ctx = f.context();
  const auto decisions = scheduler.place(batch, ctx);
  for (const auto& d : decisions) {
    EXPECT_EQ(d.batch_indices.size(), 1u);
  }
}

TEST(CloudScaleSchedulerTest, AllocatesBelowRequest) {
  Fixture f = fixture_with_unused();
  CloudScaleScheduler scheduler;
  scheduler.train({{0.5, 0.6, 0.5, 0.4, 0.55, 0.5}});
  const Job job = make_job(1, 1.0, 4.0, 10.0);
  const std::vector<const Job*> batch{&job};
  const auto ctx = f.context();
  const auto decisions = scheduler.place(batch, ctx);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, AllocationKind::kReserved);
  EXPECT_LT(decisions[0].allocated.cpu(), job.request.cpu());
  EXPECT_GT(decisions[0].allocated.cpu(), 0.0);
}

TEST(CloudScaleSchedulerTest, ReprovisionTracksDemandHistory) {
  CloudScaleScheduler scheduler;
  // Train on a mid-utilization corpus.
  predict::SeriesCorpus corpus;
  std::vector<double> series;
  for (int i = 0; i < 200; ++i) series.push_back(0.5 + 0.1 * ((i % 4) / 3.0));
  corpus.push_back(series);
  scheduler.train(corpus);

  const Job job = make_job(1, 2.0, 2.0, 2.0);
  DemandHistory high_demand;
  DemandHistory low_demand;
  for (std::size_t r = 0; r < kNumResources; ++r) {
    high_demand[r].assign(24, 1.8);  // 90% of request
    low_demand[r].assign(24, 0.6);   // 30% of request
  }
  const ResourceVector high =
      scheduler.reprovision(job, high_demand, job.request);
  const ResourceVector low =
      scheduler.reprovision(job, low_demand, job.request);
  EXPECT_GT(high.cpu(), low.cpu());
}

TEST(CloudScaleSchedulerTest, ReprovisionClampedToRequestBand) {
  CloudScaleScheduler scheduler;
  scheduler.train({{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}});
  const Job job = make_job(1, 2.0, 2.0, 2.0);
  DemandHistory history;
  for (std::size_t r = 0; r < kNumResources; ++r) {
    history[r].assign(24, 2.0);
  }
  const ResourceVector target =
      scheduler.reprovision(job, history, job.request);
  for (std::size_t r = 0; r < kNumResources; ++r) {
    EXPECT_LE(target[r],
              job.request[r] * CloudScaleScheduler::kMaxFraction + 1e-9);
    EXPECT_GE(target[r],
              job.request[r] * CloudScaleScheduler::kMinFraction - 1e-9);
  }
}

TEST(DraSchedulerTest, ShareClassesCycle) {
  DraScheduler scheduler;
  EXPECT_EQ(scheduler.share_class(make_job(0, 1, 1, 1)), 0u);
  EXPECT_EQ(scheduler.share_class(make_job(1, 1, 1, 1)), 1u);
  EXPECT_EQ(scheduler.share_class(make_job(2, 1, 1, 1)), 2u);
  EXPECT_EQ(scheduler.share_class(make_job(3, 1, 1, 1)), 0u);
}

TEST(DraSchedulerTest, LowShareSqueezed) {
  DraScheduler scheduler;
  Fixture f = fixture_with_unused();
  const Job high_share = make_job(0, 1.0, 1.0, 1.0);
  const Job low_share = make_job(2, 1.0, 1.0, 1.0);
  const std::vector<const Job*> batch{&high_share, &low_share};
  const auto ctx = f.context();
  const auto decisions = scheduler.place(batch, ctx);
  ASSERT_EQ(decisions.size(), 2u);
  EXPECT_GT(decisions[0].allocated.cpu(), decisions[1].allocated.cpu());
  // Low share gets less than its request; high share at least its request.
  EXPECT_LT(decisions[1].allocated.cpu(), 1.0);
  EXPECT_GE(decisions[0].allocated.cpu(), 1.0);
}

TEST(DraSchedulerTest, NeverUsesOpportunisticPool) {
  Fixture f = fixture_with_unused();
  DraScheduler scheduler;
  const Job job = make_job(0, 1.0, 4.0, 10.0);
  const std::vector<const Job*> batch{&job};
  const auto ctx = f.context();
  const auto decisions = scheduler.place(batch, ctx);
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(decisions[0].kind, AllocationKind::kReserved);
}

TEST(DraSchedulerTest, ReprovisionReturnsEntitlement) {
  DraScheduler scheduler;
  const Job job = make_job(2, 2.0, 2.0, 2.0);  // low share
  DemandHistory history;
  const ResourceVector target =
      scheduler.reprovision(job, history, job.request);
  EXPECT_LT(target.cpu(), job.request.cpu());
}

TEST(SchedulerBaseTest, DefaultReprovisionIsIdentity) {
  CorpScheduler corp_scheduler;
  const Job job = make_job(1, 2.0, 2.0, 2.0);
  DemandHistory history;
  const ResourceVector current(1.5, 1.5, 1.5);
  EXPECT_EQ(corp_scheduler.reprovision(job, history, current), current);
}

}  // namespace
}  // namespace corp::sched
