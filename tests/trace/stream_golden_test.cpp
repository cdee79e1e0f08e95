// Golden pins of trace::StreamReader's emitted job stream. The reader's
// own suite compares it with itself across chunk sizes and worker
// counts, so a change that shifts every chunking the same way passes
// there; these pins catch it. Each case reads one input under one
// long-task policy three ways: in one default-sized batch, in 4 KiB
// chunks three to a batch, and in the same small chunks parsed on a
// two-worker pool. Each way renders one block of
//   * a 64-bit digest of every emitted job field in emission order: id,
//     submit slot, duration, SLO stretch, class, request and the bits of
//     every usage sample (plus the job count, horizon and epoch);
//   * every StreamStats counter;
//   * the safe_submit_slot() sequence after each advance().
// The pooled read must render the serial small-chunk block exactly.
//
// A mismatch prints the actual block in the literal format of the k<Case>
// constants below. Paste it over the constant only after showing that the
// change is meant to move the reader's output.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "../common/trace_fixture.hpp"
#include "trace/job.hpp"
#include "trace/stream_reader.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace corp::trace {
namespace {

using testfix::kEpochUs;
using testfix::kWindowUs;

/// Order-sensitive running hash over every field of the emitted jobs.
class JobDigest {
 public:
  void absorb(const Job& job) {
    mix(job.id);
    mix(static_cast<std::uint64_t>(job.submit_slot));
    mix(job.duration_slots);
    mix(std::bit_cast<std::uint64_t>(job.slo_stretch));
    mix(static_cast<std::uint64_t>(job.job_class));
    for (std::size_t r = 0; r < kNumResources; ++r) {
      mix(std::bit_cast<std::uint64_t>(job.request[r]));
    }
    mix(job.usage.size());
    for (const ResourceVector& u : job.usage) {
      for (std::size_t r = 0; r < kNumResources; ++r) {
        mix(std::bit_cast<std::uint64_t>(u[r]));
      }
    }
  }
  std::uint64_t value() const { return state_; }

 private:
  void mix(std::uint64_t v) {
    state_ = util::splitmix64_mix(state_ ^ (v + util::kSplitMix64Gamma));
  }
  std::uint64_t state_ = 0;
};

/// Streams `path` advance() by advance() and renders the golden block.
std::string render(const std::string& path, const StreamReaderConfig& config,
                   util::ThreadPool* pool) {
  StreamReader reader(path, config, pool);
  JobDigest digest;
  std::uint64_t jobs = 0;
  std::string slots;
  do {
    reader.advance();
    for (const Job& job : reader.take_ready()) {
      digest.absorb(job);
      ++jobs;
    }
    const std::int64_t safe = reader.safe_submit_slot();
    slots += slots.empty() ? "" : ",";
    slots += safe == std::numeric_limits<std::int64_t>::max()
                 ? std::string("max")
                 : std::to_string(safe);
  } while (!reader.exhausted());

  const StreamStats& s = reader.stats();
  char head[160];
  std::snprintf(head, sizeof(head),
                "digest=0x%016llx jobs=%llu horizon=%lld epoch_us=%lld\n",
                static_cast<unsigned long long>(digest.value()),
                static_cast<unsigned long long>(jobs),
                static_cast<long long>(reader.horizon_slots()),
                static_cast<long long>(reader.epoch_us()));
  const std::vector<std::pair<const char*, std::uint64_t>> counters = {
      {"file_bytes", s.file_bytes},
      {"bytes_read", s.bytes_read},
      {"rows_parsed", s.rows_parsed},
      {"lines_seen", s.lines_seen},
      {"chunks_parsed", s.chunks_parsed},
      {"batches_mapped", s.batches_mapped},
      {"tasks_opened", s.tasks_opened},
      {"jobs_emitted", s.jobs_emitted},
      {"jobs_dropped_long", s.jobs_dropped_long},
      {"jobs_segmented", s.jobs_segmented},
      {"gap_fills", s.gap_fills},
      {"peak_open_tasks", s.peak_open_tasks},
  };
  std::string block = head;
  for (const auto& [name, value] : counters) {
    block += std::string(name) + "=" + std::to_string(value) + "\n";
  }
  block += "safe_slots=" + slots + "\n";
  return block;
}

struct Expected {
  const char* one_batch;
  const char* small_chunks;
};

void expect_block(const std::string& actual, const char* expected,
                  const char* way) {
  if (actual == expected) return;
  ADD_FAILURE() << way << ": golden mismatch; actual:\nR\"(" << actual
                << ")\"\nexpected:\n" << expected;
}

/// Reads `path` the three ways and compares each block with its pin.
void expect_golden(const std::string& path, TraceSchema schema,
                   LongTaskPolicy policy, const Expected& expected) {
  StreamReaderConfig one_batch;
  one_batch.schema = schema;
  one_batch.long_tasks = policy;
  StreamReaderConfig small = one_batch;
  small.chunk_bytes = 4096;
  small.chunks_per_batch = 3;
  util::ThreadPool pool(2);

  expect_block(render(path, one_batch, nullptr), expected.one_batch,
               "one batch, serial");
  expect_block(render(path, small, nullptr), expected.small_chunks,
               "4 KiB chunks x 3, serial");
  expect_block(render(path, small, &pool), expected.small_chunks,
               "4 KiB chunks x 3, two-worker pool");
}

/// A google-v2 row with an explicit task index.
std::string task_row(std::int64_t start_us, std::int64_t end_us,
                     std::uint64_t job_id, std::uint64_t task_index,
                     double cpu, double mem, double disk) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%lld,%lld,%llu,%llu,%llu,%.6f,%.6f,0,0,0,0,0,%.6f\n",
                static_cast<long long>(start_us),
                static_cast<long long>(end_us),
                static_cast<unsigned long long>(job_id),
                static_cast<unsigned long long>(task_index),
                static_cast<unsigned long long>(job_id % 89), cpu, mem,
                disk);
  return buf;
}

/// Writes the rows start-sorted (stable, so ties keep generation order).
void write_sorted(const std::string& path, const std::string& directive,
                  std::vector<std::pair<std::int64_t, std::string>> rows) {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << directive;
  for (const auto& row : rows) out << row.second;
}

/// Seeded google-v2 body that exercises every assembly path: records end
/// anywhere inside their window (so close times arrive out of order),
/// some windows are split into two records at a random cut, a skip of
/// one window is gap-filled, and a skip of two or more lets the key
/// close and then re-open as a new task. Keys share job ids across task
/// indices 0-3.
void write_ragged_google(const std::string& path, std::uint64_t seed) {
  constexpr std::int64_t kTasks = 420;
  constexpr std::int64_t kFirstWindows = 36;
  util::Rng rng(seed);
  std::vector<std::pair<std::int64_t, std::string>> rows;
  for (std::int64_t t = 0; t < kTasks; ++t) {
    const auto job_id = static_cast<std::uint64_t>(1000 + t / 4);
    const auto task_index = static_cast<std::uint64_t>(t % 4);
    std::int64_t window = rng.uniform_int(0, kFirstWindows - 1);
    const std::int64_t reports = rng.uniform_int(1, 5);
    for (std::int64_t k = 0; k < reports; ++k) {
      const std::int64_t start = kEpochUs + window * kWindowUs;
      const std::int64_t end = start + rng.uniform_int(1, kWindowUs);
      const double cpu = rng.uniform(0.001, 0.05);
      const double mem = rng.uniform(0.001, 0.04);
      const double disk = rng.uniform(0.0, 0.002);
      if (end - start > 1 && rng.bernoulli(0.2)) {
        const std::int64_t cut = start + rng.uniform_int(1, end - start - 1);
        rows.emplace_back(start, task_row(start, cut, job_id, task_index,
                                          cpu, mem, disk));
        rows.emplace_back(cut, task_row(cut, end, job_id, task_index,
                                        cpu * 1.3, mem * 0.7, disk));
      } else {
        rows.emplace_back(start, task_row(start, end, job_id, task_index,
                                          cpu, mem, disk));
      }
      window += 1 + (rng.bernoulli(0.3) ? rng.uniform_int(1, 4) : 0);
    }
  }
  write_sorted(path, "#corp-trace schema=google-v2\n", std::move(rows));
}

/// Seeded azure-vm body: VMs of 1-6 readings, some separated by skipped
/// windows.
void write_ragged_azure(const std::string& path, std::uint64_t seed) {
  constexpr std::int64_t kVms = 520;
  constexpr std::int64_t kFirstWindows = 40;
  const std::int64_t epoch_s = kEpochUs / 1'000'000;
  util::Rng rng(seed);
  std::vector<std::pair<std::int64_t, std::string>> rows;
  for (std::int64_t v = 0; v < kVms; ++v) {
    std::int64_t window = rng.uniform_int(0, kFirstWindows - 1);
    const std::int64_t readings = rng.uniform_int(1, 6);
    for (std::int64_t k = 0; k < readings; ++k) {
      const std::int64_t timestamp = epoch_s + window * 300;
      const double avg = rng.uniform(0.0, 100.0);
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%lld,vm-%05lld,%.4f,%.4f,%.4f\n",
                    static_cast<long long>(timestamp),
                    static_cast<long long>(v), avg * 0.5,
                    std::min(100.0, avg * 1.5), avg);
      rows.emplace_back(timestamp, buf);
      window += 1 + (rng.bernoulli(0.25) ? rng.uniform_int(1, 3) : 0);
    }
  }
  write_sorted(path, "#corp-trace schema=azure-vm\n", std::move(rows));
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

StreamStats stats_of(const std::string& path, TraceSchema schema,
                     LongTaskPolicy policy) {
  StreamReaderConfig config;
  config.schema = schema;
  config.long_tasks = policy;
  StreamReader reader(path, config);
  while (reader.advance()) {
  }
  return reader.stats();
}

// Expected blocks of each case, as render() prints them.
// clang-format off
const Expected kGoogleFixtureDrop = {
R"(digest=0x45f98fc8d5161672 jobs=480 horizon=240 epoch_us=600000000
file_bytes=38775
bytes_read=38775
rows_parsed=568
lines_seen=569
chunks_parsed=1
batches_mapped=1
tasks_opened=496
jobs_emitted=480
jobs_dropped_long=16
jobs_segmented=0
gap_fills=0
peak_open_tasks=190
safe_slots=max
)",
R"(digest=0x45f98fc8d5161672 jobs=480 horizon=240 epoch_us=600000000
file_bytes=38775
bytes_read=38775
rows_parsed=568
lines_seen=569
chunks_parsed=10
batches_mapped=4
tasks_opened=496
jobs_emitted=480
jobs_dropped_long=16
jobs_segmented=0
gap_fills=0
peak_open_tasks=190
safe_slots=0,90,150,max
)"};
const Expected kGoogleFixtureSegment = {
R"(digest=0x75011dcb009a6a11 jobs=568 horizon=300 epoch_us=600000000
file_bytes=38775
bytes_read=38775
rows_parsed=568
lines_seen=569
chunks_parsed=1
batches_mapped=1
tasks_opened=496
jobs_emitted=568
jobs_dropped_long=0
jobs_segmented=568
gap_fills=0
peak_open_tasks=190
safe_slots=max
)",
R"(digest=0x75011dcb009a6a11 jobs=568 horizon=300 epoch_us=600000000
file_bytes=38775
bytes_read=38775
rows_parsed=568
lines_seen=569
chunks_parsed=10
batches_mapped=4
tasks_opened=496
jobs_emitted=568
jobs_dropped_long=0
jobs_segmented=568
gap_fills=0
peak_open_tasks=190
safe_slots=30,120,180,max
)"};
const Expected kRaggedGoogleDrop = {
R"(digest=0x540cc3386423b351 jobs=260 horizon=1380 epoch_us=600000000
file_bytes=103827
bytes_read=103827
rows_parsed=1500
lines_seen=1501
chunks_parsed=1
batches_mapped=1
tasks_opened=604
jobs_emitted=260
jobs_dropped_long=344
jobs_segmented=0
gap_fills=39
peak_open_tasks=82
safe_slots=max
)",
R"(digest=0x540cc3386423b351 jobs=260 horizon=1380 epoch_us=600000000
file_bytes=103827
bytes_read=103827
rows_parsed=1500
lines_seen=1501
chunks_parsed=26
batches_mapped=9
tasks_opened=604
jobs_emitted=260
jobs_dropped_long=344
jobs_segmented=0
gap_fills=39
peak_open_tasks=82
safe_slots=120,240,330,480,600,750,870,1020,max
)"};
const Expected kRaggedGoogleSegment = {
R"(digest=0xcc28be8d10cca87a jobs=1500 horizon=1440 epoch_us=600000000
file_bytes=103827
bytes_read=103827
rows_parsed=1500
lines_seen=1501
chunks_parsed=1
batches_mapped=1
tasks_opened=604
jobs_emitted=1500
jobs_dropped_long=0
jobs_segmented=1500
gap_fills=0
peak_open_tasks=82
safe_slots=max
)",
R"(digest=0xcc28be8d10cca87a jobs=1500 horizon=1440 epoch_us=600000000
file_bytes=103827
bytes_read=103827
rows_parsed=1500
lines_seen=1501
chunks_parsed=26
batches_mapped=9
tasks_opened=604
jobs_emitted=1500
jobs_dropped_long=0
jobs_segmented=1500
gap_fills=0
peak_open_tasks=82
safe_slots=150,270,360,510,630,780,900,1050,max
)"};
const Expected kRaggedAzureDrop = {
R"(digest=0xfa8941af853916c7 jobs=237 horizon=1350 epoch_us=600000000
file_bytes=69155
bytes_read=69155
rows_parsed=1809
lines_seen=1810
chunks_parsed=1
batches_mapped=1
tasks_opened=712
jobs_emitted=237
jobs_dropped_long=475
jobs_segmented=0
gap_fills=60
peak_open_tasks=100
safe_slots=max
)",
R"(digest=0xfa8941af853916c7 jobs=237 horizon=1350 epoch_us=600000000
file_bytes=69155
bytes_read=69155
rows_parsed=1809
lines_seen=1810
chunks_parsed=17
batches_mapped=6
tasks_opened=712
jobs_emitted=237
jobs_dropped_long=475
jobs_segmented=0
gap_fills=60
peak_open_tasks=100
safe_slots=240,450,660,870,1080,max
)"};
const Expected kRaggedAzureSegment = {
R"(digest=0xe00a74442383017c jobs=1809 horizon=1470 epoch_us=600000000
file_bytes=69155
bytes_read=69155
rows_parsed=1809
lines_seen=1810
chunks_parsed=1
batches_mapped=1
tasks_opened=712
jobs_emitted=1809
jobs_dropped_long=0
jobs_segmented=1809
gap_fills=0
peak_open_tasks=100
safe_slots=max
)",
R"(digest=0xe00a74442383017c jobs=1809 horizon=1470 epoch_us=600000000
file_bytes=69155
bytes_read=69155
rows_parsed=1809
lines_seen=1810
chunks_parsed=17
batches_mapped=6
tasks_opened=712
jobs_emitted=1809
jobs_dropped_long=0
jobs_segmented=1809
gap_fills=0
peak_open_tasks=100
safe_slots=270,480,690,900,1110,max
)"};
// clang-format on

TEST(StreamGoldenTest, GoogleFixtureDrop) {
  const std::string path = temp_path("golden_fixture_drop.csv");
  testfix::write_google_fixture(path, 8, 60, 5);
  expect_golden(path, TraceSchema::kGoogleV2, LongTaskPolicy::kDrop,
                kGoogleFixtureDrop);
}

TEST(StreamGoldenTest, GoogleFixtureSegment) {
  const std::string path = temp_path("golden_fixture_segment.csv");
  testfix::write_google_fixture(path, 8, 60, 5);
  expect_golden(path, TraceSchema::kGoogleV2, LongTaskPolicy::kSegment,
                kGoogleFixtureSegment);
}

TEST(StreamGoldenTest, RaggedGoogleDrop) {
  const std::string path = temp_path("golden_ragged_google_drop.csv");
  write_ragged_google(path, 17);
  // The paths this body exists for: one-window skips are filled, and
  // more keys open than the 420 distinct ones, so some closed and
  // re-opened.
  const StreamStats stats =
      stats_of(path, TraceSchema::kGoogleV2, LongTaskPolicy::kDrop);
  EXPECT_GT(stats.gap_fills, 0u);
  EXPECT_GT(stats.tasks_opened, 420u);
  expect_golden(path, TraceSchema::kGoogleV2, LongTaskPolicy::kDrop,
                kRaggedGoogleDrop);
}

TEST(StreamGoldenTest, RaggedGoogleSegment) {
  const std::string path = temp_path("golden_ragged_google_segment.csv");
  write_ragged_google(path, 17);
  expect_golden(path, TraceSchema::kGoogleV2, LongTaskPolicy::kSegment,
                kRaggedGoogleSegment);
}

TEST(StreamGoldenTest, RaggedAzureDrop) {
  const std::string path = temp_path("golden_ragged_azure_drop.csv");
  write_ragged_azure(path, 23);
  expect_golden(path, TraceSchema::kAzureVm, LongTaskPolicy::kDrop,
                kRaggedAzureDrop);
}

TEST(StreamGoldenTest, RaggedAzureSegment) {
  const std::string path = temp_path("golden_ragged_azure_segment.csv");
  write_ragged_azure(path, 23);
  expect_golden(path, TraceSchema::kAzureVm, LongTaskPolicy::kSegment,
                kRaggedAzureSegment);
}

}  // namespace
}  // namespace corp::trace
