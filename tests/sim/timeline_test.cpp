#include "sim/timeline.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "../common/sim_fixture.hpp"
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"

namespace corp::sim {
namespace {

TEST(TimelineTest, EmptyStats) {
  Timeline timeline;
  EXPECT_TRUE(timeline.empty());
  EXPECT_EQ(timeline.peak_running(), 0u);
  EXPECT_EQ(timeline.peak_queue(), 0u);
  EXPECT_EQ(timeline.busiest_slot(), 0);
}

TEST(TimelineTest, PeaksAndBusiestSlot) {
  Timeline timeline;
  timeline.add({.slot = 0, .running_reserved = 2, .running_opportunistic = 0,
                .queued = 1});
  timeline.add({.slot = 1, .running_reserved = 3, .running_opportunistic = 2,
                .queued = 4});
  timeline.add({.slot = 2, .running_reserved = 1, .running_opportunistic = 0,
                .queued = 0});
  EXPECT_EQ(timeline.peak_running(), 5u);
  EXPECT_EQ(timeline.peak_queue(), 4u);
  EXPECT_EQ(timeline.busiest_slot(), 1);
}

TEST(TimelineTest, CsvHasHeaderAndRows) {
  Timeline timeline;
  timeline.add({.slot = 3, .running_reserved = 1});
  std::ostringstream out;
  timeline.write_csv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("slot,running_reserved"), std::string::npos);
  EXPECT_NE(csv.find("\n3,1,"), std::string::npos);
}

TEST(TimelineTest, SimulationRecordsWhenEnabled) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace training = testfix::tiny_trace(env, 60, 5, 30);
  const trace::Trace eval = testfix::tiny_trace(env, 20, 6);

  SimulationConfig config;
  config.method = Method::kDra;
  config.record_timeline = true;
  Simulation sim(std::move(config));
  sim.train(training);
  const SimulationResult result = sim.run(eval);
  ASSERT_FALSE(result.timeline.empty());
  EXPECT_EQ(static_cast<std::int64_t>(result.timeline.samples().size()),
            result.slots_simulated);
  // Conservation: total completions across slots = jobs completed.
  std::size_t completions = 0;
  for (const auto& s : result.timeline.samples()) {
    completions += s.completions;
    EXPECT_GE(s.committed_fraction, 0.0);
    EXPECT_LE(s.committed_fraction, 1.0 + 1e-9);
  }
  EXPECT_EQ(completions, result.jobs_completed);
  EXPECT_GT(result.timeline.peak_running(), 0u);
}

TEST(TimelineTest, SimulationSkipsWhenDisabled) {
  const trace::Trace trace = testfix::tiny_trace(20, 7);
  SimulationConfig config;
  config.method = Method::kDra;
  Simulation sim(std::move(config));
  sim.train(trace);
  const SimulationResult result = sim.run(trace);
  EXPECT_TRUE(result.timeline.empty());
}

}  // namespace
}  // namespace corp::sim
