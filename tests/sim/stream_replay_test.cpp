// Differential pin of the JobSource determinism contract: for the same
// underlying job set, Simulation::run produces bit-identical results
// whether arrivals come from a materialized trace (the legacy path, and
// its TraceJobSource adapter) or from trace::StreamReader through
// StreamingJobSource — including under sharded, multi-threaded engines.
// Mirrors tests/sim/shard_equivalence_test.cpp, one source-abstraction
// layer up.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "../common/sim_fixture.hpp"
#include "../common/trace_fixture.hpp"
#include "sim/job_source.hpp"
#include "sim/simulation.hpp"
#include "trace/stream_reader.hpp"

namespace corp::sim {
namespace {

using testfix::expect_identical;

Simulation trained_simulation(const cluster::EnvironmentConfig& env,
                              std::size_t shards, std::size_t threads) {
  SimulationConfig config;
  config.environment = env;
  config.method = Method::kCorp;
  config.seed = 5;
  config.params.shards = shards;
  config.params.threads = threads;
  Simulation sim(std::move(config));
  sim.train(testfix::tiny_trace(env, 60, 11));
  return sim;
}

/// Small streamed fixture; tiny chunks force multiple ingest batches, so
/// the engine genuinely runs ahead of the unread file tail.
trace::StreamReaderConfig small_chunks() {
  trace::StreamReaderConfig config;
  config.chunk_bytes = 4096;
  config.chunks_per_batch = 2;
  return config;
}

class StreamReplayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = testing::TempDir() + "/stream_replay.csv";
    testfix::write_google_fixture(path_, 4, 50, 23);
  }

  std::string path_;
};

TEST_F(StreamReplayTest, StreamedRunMatchesMaterializedRun) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace materialized =
      trace::StreamReader::read_all(path_, small_chunks());
  ASSERT_GT(materialized.size(), 0u);

  Simulation on_trace = trained_simulation(env, 1, 1);
  const SimulationResult from_trace = on_trace.run(materialized);
  EXPECT_GT(from_trace.jobs_completed, 0u);

  Simulation on_stream = trained_simulation(env, 1, 1);
  trace::StreamReader reader(path_, small_chunks());
  StreamingJobSource source(reader);
  const SimulationResult from_stream = on_stream.run(source);

  expect_identical(from_trace, from_stream);
  // Retirement freed every delivered job once the run finished.
  EXPECT_EQ(source.live_jobs(), 0u);
}

TEST_F(StreamReplayTest, TraceJobSourceMatchesDirectTraceRun) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace materialized =
      trace::StreamReader::read_all(path_, small_chunks());

  Simulation direct = trained_simulation(env, 1, 1);
  const SimulationResult from_trace = direct.run(materialized);

  Simulation adapted = trained_simulation(env, 1, 1);
  TraceJobSource source(materialized);
  const SimulationResult from_source = adapted.run(source);

  expect_identical(from_trace, from_source);
}

TEST_F(StreamReplayTest, StreamedRunIsShardAndThreadInvariant) {
  const auto env = cluster::EnvironmentConfig::PalmettoCluster();
  const trace::Trace materialized =
      trace::StreamReader::read_all(path_, small_chunks());

  Simulation serial = trained_simulation(env, 1, 1);
  const SimulationResult reference = serial.run(materialized);

  Simulation sharded = trained_simulation(env, 8, 4);
  trace::StreamReader reader(path_, small_chunks());
  StreamingJobSource source(reader);
  expect_identical(reference, sharded.run(source));
}

TEST_F(StreamReplayTest, StreamingSourceDeliversInSubmitOrder) {
  const trace::Trace materialized =
      trace::StreamReader::read_all(path_, small_chunks());

  trace::StreamReader reader(path_, small_chunks());
  StreamingJobSource source(reader);

  std::vector<const trace::Job*> delivered;
  std::int64_t slot = 0;
  while (!source.exhausted() && slot < 100000) {
    std::vector<const trace::Job*> batch;
    source.poll(slot, batch);
    for (const trace::Job* job : batch) {
      EXPECT_LE(job->submit_slot, slot);
      if (!delivered.empty()) {
        const trace::Job* prev = delivered.back();
        const bool ordered =
            prev->submit_slot < job->submit_slot ||
            (prev->submit_slot == job->submit_slot && prev->id < job->id);
        EXPECT_TRUE(ordered)
            << "job " << job->id << " after job " << prev->id;
      }
      delivered.push_back(job);
    }
    ++slot;
  }
  EXPECT_TRUE(source.exhausted());
  ASSERT_EQ(delivered.size(), materialized.size());
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i]->id, materialized.jobs()[i].id) << "job " << i;
    EXPECT_EQ(delivered[i]->submit_slot, materialized.jobs()[i].submit_slot)
        << "job " << i;
  }

  // Retiring every job releases the source's live storage.
  EXPECT_EQ(source.live_jobs(), delivered.size());
  for (const trace::Job* job : delivered) source.retire(*job);
  EXPECT_EQ(source.live_jobs(), 0u);
}

}  // namespace
}  // namespace corp::sim
