#include "sched/volume.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

namespace corp::sched {
namespace {

TEST(VolumeTest, Eq22PaperExample) {
  // Sec. III-B: C' = <25, 2, 30>; VM1 unused <5, 0, 20> -> 0.867.
  const ResourceVector max_cap(25, 2, 30);
  EXPECT_NEAR(unused_volume(ResourceVector(5, 0, 20), max_cap), 0.8667,
              1e-3);
  EXPECT_NEAR(unused_volume(ResourceVector(10, 1, 10), max_cap), 1.2333,
              1e-3);
  EXPECT_NEAR(unused_volume(ResourceVector(20, 2, 30), max_cap), 2.8, 1e-3);
  EXPECT_NEAR(unused_volume(ResourceVector(10, 1, 8.5), max_cap), 1.1833,
              1e-3);
}

TEST(VolumeTest, ZeroCapacityComponentSkipped) {
  EXPECT_DOUBLE_EQ(
      unused_volume(ResourceVector(5, 5, 5), ResourceVector(10, 0, 10)),
      1.0);
}

/// The VolumeIndex's most-matched pick over `vms` (view position = list
/// index), as CorpScheduler queries it.
std::optional<std::size_t> index_pick(const std::vector<VmAvailability>& vms,
                                      const ResourceVector& demand,
                                      const ResourceVector& max_cap) {
  std::vector<VolumeIndex::Entry> entries;
  for (std::size_t i = 0; i < vms.size(); ++i) {
    entries.push_back({unused_volume(vms[i].available, max_cap),
                       static_cast<std::uint32_t>(i), 0});
  }
  VolumeIndex index;
  index.assign(entries);
  std::vector<VolumeIndex::Entry> fits;
  index.most_matched(
      demand, max_cap,
      [&](const VolumeIndex::Entry& e) { return vms[e.position].available; },
      /*all_ties=*/false, fits);
  if (fits.empty()) return std::nullopt;
  return fits.front().position;
}

std::vector<VmAvailability> paper_vms() {
  // The Fig. 5 walk-through: four VMs with the listed unused vectors.
  return {{1, ResourceVector(5, 0, 20)},
          {2, ResourceVector(10, 1, 10)},
          {3, ResourceVector(20, 2, 30)},
          {4, ResourceVector(10, 1, 8.5)}};
}

TEST(MostMatchedTest, ReproducesPaperEntityPlacement) {
  const ResourceVector max_cap(25, 2, 30);
  // Entity (job3, job4) demand: feasible on VM2 and VM3 only; VM2's
  // volume (1.233) < VM3's (2.8) -> pick VM2 (index 1).
  const ResourceVector entity_34(8, 1, 9);
  const auto pick = index_pick(paper_vms(), entity_34, max_cap);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(paper_vms()[*pick].vm_id, 2u);
}

TEST(MostMatchedTest, SecondEntityPrefersVm4) {
  const ResourceVector max_cap(25, 2, 30);
  // Entity (job5, job6): feasible on VM2, VM3, VM4; VM4's volume is the
  // smallest (1.183 < 1.233 < 2.8).
  const ResourceVector entity_56(9, 1, 8);
  const auto pick = index_pick(paper_vms(), entity_56, max_cap);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(paper_vms()[*pick].vm_id, 4u);
}

TEST(MostMatchedTest, InfeasibleEverywhereReturnsNull) {
  const ResourceVector max_cap(25, 2, 30);
  EXPECT_FALSE(
      index_pick(paper_vms(), ResourceVector(100, 1, 1), max_cap)
          .has_value());
}

TEST(MostMatchedTest, EmptyCandidates) {
  EXPECT_FALSE(
      index_pick({}, ResourceVector(1, 1, 1), ResourceVector(10, 10, 10))
          .has_value());
}

TEST(RandomFeasibleTest, OnlyPicksFeasible) {
  const std::vector<VmAvailability> vms{
      {1, ResourceVector(1, 1, 1)},
      {2, ResourceVector(10, 10, 10)},
      {3, ResourceVector(2, 2, 2)},
  };
  const ResourceVector demand(5, 5, 5);
  for (double pick : {0.0, 0.3, 0.7, 0.999}) {
    const auto idx = random_feasible(vms, demand, pick);
    ASSERT_TRUE(idx.has_value());
    EXPECT_EQ(vms[*idx].vm_id, 2u);
  }
}

TEST(RandomFeasibleTest, SpansAllFeasible) {
  const std::vector<VmAvailability> vms{
      {1, ResourceVector(10, 10, 10)},
      {2, ResourceVector(10, 10, 10)},
  };
  const ResourceVector demand(1, 1, 1);
  EXPECT_EQ(vms[*random_feasible(vms, demand, 0.0)].vm_id, 1u);
  EXPECT_EQ(vms[*random_feasible(vms, demand, 0.99)].vm_id, 2u);
}

TEST(RandomFeasibleTest, NoneFeasibleReturnsNull) {
  const std::vector<VmAvailability> vms{{1, ResourceVector(1, 1, 1)}};
  EXPECT_FALSE(
      random_feasible(vms, ResourceVector(2, 2, 2), 0.5).has_value());
}

TEST(RandomFeasibleTest, UnitUniformPicksLastFeasible) {
  // Regression: u == 1.0 (the rng's uniform(0.0, 1.0) can return exactly
  // 1.0) must clamp onto the last feasible index instead of reading one
  // past the end of the feasible list.
  const std::vector<VmAvailability> vms{
      {1, ResourceVector(10, 10, 10)},
      {2, ResourceVector(1, 1, 1)},
      {3, ResourceVector(10, 10, 10)},
  };
  const auto idx = random_feasible(vms, ResourceVector(5, 5, 5), 1.0);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(vms[*idx].vm_id, 3u);
}

TEST(RandomFeasibleTest, SingleCandidateAlwaysPicked) {
  // With one feasible VM, every u in [0, 1] — including the endpoints —
  // must land on it (the floor(u * n) index would be 1 at u == 1.0; the
  // clamp keeps it at 0).
  const std::vector<VmAvailability> vms{{7, ResourceVector(5, 5, 5)}};
  const ResourceVector demand(1, 1, 1);
  for (double u : {0.0, 0.25, 0.5, 0.75, 0.999, 1.0}) {
    const auto idx = random_feasible(vms, demand, u);
    ASSERT_TRUE(idx.has_value()) << "u = " << u;
    EXPECT_EQ(vms[*idx].vm_id, 7u) << "u = " << u;
  }
}

TEST(RandomFeasibleTest, PickClamped) {
  const std::vector<VmAvailability> vms{{1, ResourceVector(5, 5, 5)}};
  EXPECT_TRUE(random_feasible(vms, ResourceVector(1, 1, 1), 1.5).has_value());
  EXPECT_TRUE(
      random_feasible(vms, ResourceVector(1, 1, 1), -0.5).has_value());
}

}  // namespace
}  // namespace corp::sched
