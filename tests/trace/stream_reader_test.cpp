// Pins trace::StreamReader's two contracts:
//
//  * determinism — the emitted job stream is bit-identical for every
//    chunk size, batch size and worker count (chunk boundaries are pure
//    byte offsets; rows re-merge in file order before assembly);
//  * diagnostics — malformed input fails fast with the 1-based file line
//    and offending field ("line N, field 'F': reason"), and the error
//    text itself is chunking-invariant.
//
// Plus the windowing semantics real downloads depend on: machine scales
// and request headroom, split sub-window records merge, skipped windows
// gap-fill, long tasks drop or segment per policy, and
// safe_submit_slot() is a true lower bound.
#include "trace/stream_reader.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "../common/trace_fixture.hpp"
#include "trace/job.hpp"
#include "util/thread_pool.hpp"

namespace corp::trace {
namespace {

using testfix::kEpochUs;
using testfix::kWindowUs;

std::string write_file(const std::string& name, const std::string& body) {
  const std::string path = testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  return path;
}

/// Exact job-stream equality — the contract is bit identity, so doubles
/// compare with ==, not tolerance.
void expect_same_trace(const Trace& a, const Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Job& x = a.jobs()[i];
    const Job& y = b.jobs()[i];
    EXPECT_EQ(x.id, y.id) << "job " << i;
    EXPECT_EQ(x.submit_slot, y.submit_slot) << "job " << i;
    EXPECT_EQ(x.duration_slots, y.duration_slots) << "job " << i;
    EXPECT_EQ(x.slo_stretch, y.slo_stretch) << "job " << i;
    for (std::size_t r = 0; r < kNumResources; ++r) {
      EXPECT_EQ(x.request[r], y.request[r]) << "job " << i;
    }
    ASSERT_EQ(x.usage.size(), y.usage.size()) << "job " << i;
    for (std::size_t t = 0; t < x.usage.size(); ++t) {
      for (std::size_t r = 0; r < kNumResources; ++r) {
        EXPECT_EQ(x.usage[t][r], y.usage[t][r])
            << "job " << i << " slot " << t;
      }
    }
  }
}

TEST(StreamReaderTest, ChunkingAndThreadingAreBitIdentical) {
  const std::string path = testing::TempDir() + "/stream_invariance.csv";
  testfix::write_google_fixture(path, 6, 80, 97);

  StreamReaderConfig reference_config;
  const Trace reference = StreamReader::read_all(path, reference_config);
  ASSERT_GT(reference.size(), 0u);

  for (const std::size_t chunk_bytes : {4096UL, 10'000UL, 1UL << 16}) {
    for (const std::size_t chunks_per_batch : {1UL, 3UL}) {
      SCOPED_TRACE("chunk_bytes=" + std::to_string(chunk_bytes) +
                   " chunks_per_batch=" + std::to_string(chunks_per_batch));
      StreamReaderConfig config;
      config.chunk_bytes = chunk_bytes;
      config.chunks_per_batch = chunks_per_batch;
      expect_same_trace(reference, StreamReader::read_all(path, config));
    }
  }

  util::ThreadPool pool(4);
  StreamReaderConfig parallel_config;
  parallel_config.chunk_bytes = 8192;
  expect_same_trace(reference,
                    StreamReader::read_all(path, parallel_config, &pool));
}

TEST(StreamReaderTest, ScalesByMachineConstantsWithRequestHeadroom) {
  // One single-window task: normalized usage scales by the machine
  // constants (16 cores, 64 GB, 720 GB), the window repeats over its 30
  // fine slots without interpolation, and the declared request is the
  // peak times the headroom.
  const std::string path = write_file(
      "stream_scales.csv",
      "#corp-trace schema=google-v2\n" +
          testfix::google_row(kEpochUs, kEpochUs + kWindowUs, 9, 0.25, 0.5,
                              0.01));
  StreamReaderConfig config;
  const Trace trace = StreamReader::read_all(path, config);
  ASSERT_EQ(trace.size(), 1u);
  const Job& job = trace.jobs().front();
  const ResourceVector expected(0.25 * 16.0, 0.5 * 64.0, 0.01 * 720.0);
  ASSERT_EQ(job.usage.size(), kShortJobMaxSlots);
  EXPECT_EQ(job.duration_slots, kShortJobMaxSlots);
  for (std::size_t t = 0; t < job.usage.size(); ++t) {
    for (std::size_t r = 0; r < kNumResources; ++r) {
      EXPECT_EQ(job.usage[t][r], expected[r]) << "slot " << t;
    }
  }
  EXPECT_EQ(kRequestHeadroom, 1.25);
  const ResourceVector request = expected * kRequestHeadroom;
  for (std::size_t r = 0; r < kNumResources; ++r) {
    EXPECT_EQ(job.request[r], request[r]) << "resource " << r;
  }
  EXPECT_EQ(job.slo_stretch, 1.10);
  // Memory's 0.5 share is at least 1.5x CPU's 0.25, the runner-up.
  EXPECT_EQ(job.job_class, JobClass::kMemIntensive);
}

TEST(StreamReaderTest, SplitSubWindowRecordsMergeIntoOneWindow) {
  // Task 7 reports its window as two half-window records; task 8 as one
  // whole-window record. Both must come out as one-coarse-window jobs.
  const std::int64_t half = kEpochUs + kWindowUs / 2;
  const std::string path = write_file(
      "stream_split.csv",
      "#corp-trace schema=google-v2\n" +
          testfix::google_row(kEpochUs, half, 7, 0.010, 0.008, 0.0005) +
          testfix::google_row(kEpochUs, kEpochUs + kWindowUs, 8, 0.012,
                              0.006, 0.0004) +
          testfix::google_row(half, kEpochUs + kWindowUs, 7, 0.020, 0.008,
                              0.0005));

  StreamReaderConfig config;
  StreamReader reader(path, config);
  while (reader.advance()) {
  }
  const std::vector<Job> jobs = reader.take_ready();
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(reader.stats().rows_parsed, 3u);
  EXPECT_EQ(reader.stats().tasks_opened, 2u);
  EXPECT_EQ(reader.stats().gap_fills, 0u);
  for (const Job& job : jobs) {
    EXPECT_EQ(job.submit_slot, 0);
    EXPECT_EQ(job.usage.size(), job.duration_slots);
    EXPECT_LE(job.duration_slots, kShortJobMaxSlots);
  }
  // The two jobs cover the same single window, so identical durations.
  EXPECT_EQ(jobs[0].duration_slots, jobs[1].duration_slots);
}

TEST(StreamReaderTest, FileBytesIsTheFileSizeBeforeTheFirstAdvance) {
  const std::string body =
      "#corp-trace schema=google-v2\n" +
      testfix::google_row(kEpochUs, kEpochUs + kWindowUs, 3, 0.010, 0.008,
                          0.0005);
  const std::string path = write_file("stream_file_bytes.csv", body);
  StreamReader reader(path, StreamReaderConfig{});
  EXPECT_EQ(reader.stats().file_bytes, body.size());
  EXPECT_EQ(reader.stats().bytes_read, 0u);
  while (reader.advance()) {
  }
  EXPECT_EQ(reader.stats().file_bytes, body.size());
}

TEST(StreamReaderTest, SkippedWindowsAreGapFilled) {
  // Task 5 reports windows 0 and 2 but not 1 — the trace omits windows
  // with unchanged usage, so the reader must repeat window 0 across the
  // gap. Task 6 is a plain single-window control.
  const std::string body =
      "#corp-trace schema=google-v2\n" +
      testfix::google_row(kEpochUs, kEpochUs + kWindowUs, 5, 0.010, 0.008,
                          0.0005) +
      testfix::google_row(kEpochUs, kEpochUs + kWindowUs, 6, 0.012, 0.006,
                          0.0004) +
      testfix::google_row(kEpochUs + 2 * kWindowUs,
                          kEpochUs + 3 * kWindowUs, 5, 0.016, 0.008,
                          0.0005);
  const std::string path = write_file("stream_gap.csv", body);

  // Under kDrop the gap fill fires first (making the task long), then
  // the drop policy discards it — the paper's preprocessing.
  StreamReaderConfig drop;
  StreamReader drop_reader(path, drop);
  while (drop_reader.advance()) {
  }
  EXPECT_EQ(drop_reader.stats().gap_fills, 1u);
  EXPECT_EQ(drop_reader.stats().jobs_dropped_long, 1u);
  EXPECT_EQ(drop_reader.take_ready().size(), 1u);  // task 6 survives

  // Under kSegment one coarse window already fills the 30-slot cap, so
  // every window is emitted as its own segment the moment it arrives.
  // Window 2 then finds no open window to repeat across the gap: nothing
  // is filled, and only the two recorded windows of task 5 survive.
  StreamReaderConfig segment;
  segment.long_tasks = LongTaskPolicy::kSegment;
  const Trace trace = StreamReader::read_all(path, segment);

  StreamReader seg_reader(path, segment);
  while (seg_reader.advance()) {
  }
  EXPECT_EQ(seg_reader.stats().gap_fills, 0u);
  EXPECT_GE(seg_reader.stats().jobs_segmented, 1u);

  std::size_t total_slots = 0;
  for (const Job& job : trace.jobs()) {
    EXPECT_LE(job.duration_slots, kShortJobMaxSlots);
    total_slots += job.usage.size();
  }
  // Task 5 = two one-window segments (30 fine slots each); task 6 is one
  // window (30).
  EXPECT_EQ(total_slots, 3u * kShortJobMaxSlots);
}

TEST(StreamReaderTest, LongTaskPolicyDropsOrSegments) {
  // Task 3 spans two windows (too long for the short-job filter); task 4
  // fits in one.
  const std::string body =
      "#corp-trace schema=google-v2\n" +
      testfix::google_row(kEpochUs, kEpochUs + kWindowUs, 3, 0.010, 0.008,
                          0.0005) +
      testfix::google_row(kEpochUs, kEpochUs + kWindowUs, 4, 0.012, 0.006,
                          0.0004) +
      testfix::google_row(kEpochUs + kWindowUs, kEpochUs + 2 * kWindowUs,
                          3, 0.014, 0.008, 0.0005);
  const std::string path = write_file("stream_long.csv", body);

  StreamReaderConfig drop;
  drop.long_tasks = LongTaskPolicy::kDrop;
  const Trace dropped = StreamReader::read_all(path, drop);
  EXPECT_EQ(dropped.size(), 1u);

  StreamReader drop_reader(path, drop);
  while (drop_reader.advance()) {
  }
  EXPECT_EQ(drop_reader.stats().jobs_dropped_long, 1u);
  EXPECT_EQ(drop_reader.stats().jobs_segmented, 0u);

  StreamReaderConfig segment;
  segment.long_tasks = LongTaskPolicy::kSegment;
  const Trace segmented = StreamReader::read_all(path, segment);
  EXPECT_GT(segmented.size(), 2u);
  std::size_t total_slots = 0;
  for (const Job& job : segmented.jobs()) {
    EXPECT_LE(job.duration_slots, kShortJobMaxSlots);
    total_slots += job.usage.size();
  }
  EXPECT_EQ(total_slots, 3u * kShortJobMaxSlots);
}

TEST(StreamReaderTest, SafeSubmitSlotIsAMonotoneLowerBound) {
  const std::string path = testing::TempDir() + "/stream_watermark.csv";
  testfix::write_google_fixture(path, 8, 40, 13);

  StreamReaderConfig config;
  config.chunk_bytes = 4096;  // Many batches, so the bound moves often.
  config.chunks_per_batch = 1;
  StreamReader reader(path, config);

  std::int64_t previous_bound = 0;
  std::size_t jobs_taken = 0;
  bool more = true;
  while (more) {
    more = reader.advance();
    for (const Job& job : reader.take_ready()) {
      // Jobs emitted by this advance were "not yet emitted" before it,
      // so the bound published then must not exceed their submit slots.
      EXPECT_GE(job.submit_slot, previous_bound);
      ++jobs_taken;
    }
    EXPECT_GE(reader.safe_submit_slot(), previous_bound);
    previous_bound = reader.safe_submit_slot();
  }
  EXPECT_TRUE(reader.exhausted());
  EXPECT_GT(jobs_taken, 0u);
  EXPECT_GT(reader.stats().batches_mapped, 1u);
  EXPECT_EQ(reader.safe_submit_slot(),
            std::numeric_limits<std::int64_t>::max());
}

TEST(StreamReaderTest, AzureReadingsSegmentIntoShortJobs) {
  const std::int64_t epoch_s = kEpochUs / 1'000'000;
  std::string body = "#corp-trace schema=azure-vm\n";
  for (int window = 0; window < 4; ++window) {
    body += std::to_string(epoch_s + window * 300) +
            ",vm-a,10.0,40.0,25.0\n";
  }
  const std::string path = write_file("stream_azure.csv", body);

  StreamReaderConfig config;
  config.schema = TraceSchema::kAzureVm;
  config.long_tasks = LongTaskPolicy::kSegment;
  const Trace trace = StreamReader::read_all(path, config);
  ASSERT_GT(trace.size(), 1u);
  std::size_t total_slots = 0;
  for (const Job& job : trace.jobs()) {
    EXPECT_LE(job.duration_slots, kShortJobMaxSlots);
    total_slots += job.usage.size();
    // 25% of a 16-core machine = 4 cores feeds the resampled usage.
    EXPECT_GT(job.request.cpu(), 0.0);
  }
  EXPECT_EQ(total_slots, 4u * kShortJobMaxSlots);
}

// --- malformed input ----------------------------------------------------

/// Captures the diagnostic so the negative tests can pin that every
/// parse error names the 1-based file line and the offending field.
std::string stream_error(const std::string& path,
                         const StreamReaderConfig& config,
                         util::ThreadPool* pool = nullptr) {
  try {
    StreamReader::read_all(path, config, pool);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected streaming ingest of " << path << " to throw";
  return {};
}

const std::string kGoodRow = testfix::google_row(
    kEpochUs, kEpochUs + kWindowUs, 11, 0.010, 0.008, 0.0005);

TEST(StreamReaderTest, TruncatedRowNamesLineAndField) {
  const std::string path = write_file(
      "stream_truncated.csv",
      "#corp-trace schema=google-v2\n" + kGoodRow + "600000000,900000000,12,0\n");
  const std::string message = stream_error(path, {});
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("'row'"), std::string::npos) << message;
  EXPECT_NE(message.find("too few columns"), std::string::npos) << message;
}

TEST(StreamReaderTest, CrlfLineEndingRejected) {
  const std::string path = write_file(
      "stream_crlf.csv",
      "#corp-trace schema=google-v2\n600000000,900000000,11,0,11,0.01,"
      "0.008,0,0,0,0,0,0.0005\r\n");
  const std::string message = stream_error(path, {});
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("CRLF"), std::string::npos) << message;
}

TEST(StreamReaderTest, QuotedFieldRejected) {
  const std::string path = write_file(
      "stream_quoted.csv",
      "#corp-trace schema=google-v2\n600000000,900000000,\"11\",0,11,0.01,"
      "0.008,0,0,0,0,0,0.0005\n");
  const std::string message = stream_error(path, {});
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("'job_id'"), std::string::npos) << message;
  EXPECT_NE(message.find("quoted field"), std::string::npos) << message;
}

TEST(StreamReaderTest, OutOfOrderTimestampRejected) {
  const std::string path = write_file(
      "stream_order.csv",
      "#corp-trace schema=google-v2\n" + kGoodRow +
          testfix::google_row(kEpochUs - kWindowUs, kEpochUs, 12, 0.01,
                              0.008, 0.0005));
  const std::string message = stream_error(path, {});
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("'start_time'"), std::string::npos) << message;
  EXPECT_NE(message.find("out-of-order timestamp"), std::string::npos)
      << message;
}

TEST(StreamReaderTest, UnknownSchemaVersionRejected) {
  const std::string path = write_file(
      "stream_badschema.csv", "#corp-trace schema=google-v9\n" + kGoodRow);
  const std::string message = stream_error(path, {});
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("'schema'"), std::string::npos) << message;
  EXPECT_NE(message.find("unknown schema version"), std::string::npos)
      << message;
}

TEST(StreamReaderTest, SchemaMismatchRejected) {
  const std::string path = write_file(
      "stream_mismatch.csv", "#corp-trace schema=azure-vm\n" + kGoodRow);
  const std::string message = stream_error(path, {});
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("schema mismatch"), std::string::npos) << message;
}

TEST(StreamReaderTest, UnrecognizedDirectiveRejected) {
  const std::string path =
      write_file("stream_directive.csv", "#corp-trace fmt=v2\n" + kGoodRow);
  const std::string message = stream_error(path, {});
  EXPECT_NE(message.find("'directive'"), std::string::npos) << message;
}

TEST(StreamReaderTest, OverlongLineRejected) {
  const std::string path = write_file(
      "stream_overlong.csv", "#corp-trace schema=google-v2\n" + kGoodRow +
                                 std::string(kMaxLineBytes + 200, '1') +
                                 "\n");
  const std::string message = stream_error(path, {});
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("max_line_bytes"), std::string::npos) << message;
}

TEST(StreamReaderTest, NonNumericUsageRejected) {
  const std::string path = write_file(
      "stream_nonnumeric.csv",
      "#corp-trace schema=google-v2\n600000000,900000000,11,0,11,banana,"
      "0.008,0,0,0,0,0,0.0005\n");
  const std::string message = stream_error(path, {});
  EXPECT_NE(message.find("line 2"), std::string::npos) << message;
  EXPECT_NE(message.find("'mean_cpu'"), std::string::npos) << message;
  EXPECT_NE(message.find("banana"), std::string::npos) << message;
}

TEST(StreamReaderTest, NonFiniteUsageRejected) {
  // from_chars parses "nan" and "inf"; neither is a usage value.
  for (const char* value : {"nan", "inf", "-inf"}) {
    SCOPED_TRACE(value);
    const std::string path = write_file(
        "stream_nonfinite.csv",
        "#corp-trace schema=google-v2\n" + kGoodRow +
            "600000000,900000000,12,0,12," + value +
            ",0.008,0,0,0,0,0,0.0005\n");
    const std::string message = stream_error(path, {});
    EXPECT_NE(message.find("line 3"), std::string::npos) << message;
    EXPECT_NE(message.find("'mean_cpu'"), std::string::npos) << message;
    EXPECT_NE(message.find("expected a finite number"), std::string::npos)
        << message;
  }
}

TEST(StreamReaderTest, AzureNonFiniteReadingRejected) {
  StreamReaderConfig config;
  config.schema = TraceSchema::kAzureVm;
  const std::string path = write_file("stream_azure_nan.csv",
                                      "600,vm-a,10.0,40.0,nan\n");
  const std::string message = stream_error(path, config);
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("'avg_cpu'"), std::string::npos) << message;
  EXPECT_NE(message.find("expected a finite number"), std::string::npos)
      << message;
}

TEST(StreamReaderTest, AzurePercentOutOfRangeRejected) {
  StreamReaderConfig config;
  config.schema = TraceSchema::kAzureVm;
  const std::string path = write_file("stream_azure_pct.csv",
                                      "600,vm-a,10.0,40.0,250.0\n");
  const std::string message = stream_error(path, config);
  EXPECT_NE(message.find("line 1"), std::string::npos) << message;
  EXPECT_NE(message.find("'avg_cpu'"), std::string::npos) << message;
  EXPECT_NE(message.find("out of range"), std::string::npos) << message;
}

TEST(StreamReaderTest, MissingFileThrows) {
  EXPECT_THROW(StreamReader("/nonexistent/trace.csv", {}),
               std::runtime_error);
}

TEST(StreamReaderTest, DiagnosticsAreChunkingInvariant) {
  // A malformed row mid-file must produce the same message — same global
  // line number included — no matter how chunks slice the file, because
  // per-chunk errors are deferred and rebased during the in-order merge.
  const std::string path = testing::TempDir() + "/stream_error_det.csv";
  testfix::write_google_fixture(path, 4, 40, 31);
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "not,a,valid,row\n";
  }

  StreamReaderConfig serial;
  serial.chunk_bytes = 4096;
  const std::string reference = stream_error(path, serial);
  EXPECT_NE(reference.find("read_trace_stream: line"), std::string::npos)
      << reference;

  util::ThreadPool pool(4);
  StreamReaderConfig parallel;
  parallel.chunk_bytes = 1536;
  parallel.chunks_per_batch = 3;
  EXPECT_EQ(stream_error(path, parallel, &pool), reference);

  // With a pool each chunk of a batch parses as its own task and chunk k
  // merges while later chunks still parse, so a merge can throw with
  // tasks in flight. Chunks of 1536 bytes, eight to a batch, keep both
  // errors of each file below inside the first batch.
  StreamReaderConfig overlapped;
  overlapped.chunk_bytes = 1536;
  overlapped.chunks_per_batch = 8;
  util::ThreadPool two(2);
  const auto rows = [](std::int64_t window, std::uint64_t first_id,
                       std::uint64_t n) {
    std::string out;
    const std::int64_t start = kEpochUs + window * kWindowUs;
    for (std::uint64_t id = first_id; id < first_id + n; ++id) {
      out += testfix::google_row(start, start + kWindowUs, id, 0.010, 0.008,
                                 0.0005);
    }
    return out;
  };

  // Chunk 0 holds an out-of-order timestamp (line 12), which the merge
  // throws; chunk 3 holds a malformed field that parsed on a worker.
  const std::string order_first =
      "#corp-trace schema=google-v2\n" + rows(1, 100, 10) + rows(0, 500, 1) +
      rows(1, 110, 60) +
      "600000000,900000000,12,0,12,banana,0.008,0,0,0,0,0,0.0005\n" +
      rows(2, 200, 60);
  ASSERT_GT(order_first.find("banana"), 2u * 1536u);
  ASSERT_LT(order_first.find("banana"), 8u * 1536u);
  const std::string order_path =
      write_file("stream_error_overlap_order.csv", order_first);
  const std::string order_serial = stream_error(order_path, overlapped);
  EXPECT_NE(order_serial.find("line 12"), std::string::npos) << order_serial;
  EXPECT_NE(order_serial.find("out-of-order timestamp"), std::string::npos)
      << order_serial;
  EXPECT_EQ(stream_error(order_path, {}), order_serial);
  EXPECT_EQ(stream_error(order_path, overlapped, &two), order_serial);

  // A malformed row in chunk 0 (line 7) while the clean chunks after it
  // are still parsing.
  const std::string bad_first = "#corp-trace schema=google-v2\n" +
                                rows(0, 1, 5) + "not,a,valid,row\n" +
                                rows(0, 6, 60) + rows(1, 70, 60);
  const std::string bad_path =
      write_file("stream_error_overlap_chunk0.csv", bad_first);
  const std::string bad_serial = stream_error(bad_path, overlapped);
  EXPECT_NE(bad_serial.find("line 7"), std::string::npos) << bad_serial;
  EXPECT_NE(bad_serial.find("too few columns"), std::string::npos)
      << bad_serial;
  EXPECT_EQ(stream_error(bad_path, overlapped, &two), bad_serial);
}

}  // namespace
}  // namespace corp::trace
