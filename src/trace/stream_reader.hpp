// Streaming trace ingestion: a memory-mapped, chunked CSV reader for the
// public Google cluster-usage v2 (task_usage table) and Azure VM
// (vm_cpu_readings) schemas that parses, windows and resamples multi-GB
// trace files in bounded memory — the whole timeline is never
// materialized. Jobs become available incrementally, in a deterministic
// order, so sim::ShardEngine can consume arrivals slot-by-slot through
// sim::StreamingJobSource while the tail of the file is still unread.
//
// Bounded-memory contract (docs/traces.md):
//  * the file is mapped one batch window at a time
//    (chunks_per_batch * chunk_bytes + kMaxLineBytes + one page) and
//    unmapped before the next batch, once every parse task of the batch
//    has finished; each chunk's parsed rows are freed as soon as they
//    merge, so resident set and virtual address use stay O(batch), not
//    O(file);
//  * per-task assembly state is one coarse window vector per *open* task,
//    closed and emitted as soon as the row watermark passes the task's
//    last window by two coarse windows (long tasks are dropped or
//    segmented eagerly, so no task accumulates unbounded windows).
//
// Determinism contract: chunk boundaries are fixed byte offsets
// (multiples of chunk_bytes over the whole file), a chunk owns exactly
// the lines *starting* inside its byte range, and per-chunk parsing is a
// pure function of the mapped bytes. Parsed rows are re-merged in file
// order before assembly, parse errors are deferred per chunk and the
// earliest one rethrown globally, and resample jitter derives from the
// task key (seed_stream::kTraceIngest), never from arrival order. The
// emitted job stream is therefore bit-identical for every chunk size,
// batch size and worker count — pinned by tests/trace/stream_reader_test.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "trace/job.hpp"

namespace corp::util {
class ThreadPool;
}

namespace corp::trace {

/// On-disk schema of a streamed trace file.
enum class TraceSchema : std::uint8_t {
  /// Google cluster-usage v2 task_usage rows: start_time, end_time,
  /// job_id, task_index, machine_id, mean_cpu, canonical_mem, ... ,
  /// mean_disk_space (column 12). Headerless CSV, microsecond
  /// timestamps, usage normalized to the largest machine.
  kGoogleV2 = 0,
  /// Azure public VM trace CPU readings: timestamp (seconds), vm_id,
  /// min_cpu, max_cpu, avg_cpu (percent). Headerless CSV, one reading
  /// per VM per 5-minute interval.
  kAzureVm = 1,
};

std::string_view schema_name(TraceSchema schema);

/// Inverse of schema_name ("google-v2" | "azure-vm"); throws
/// std::invalid_argument on anything else.
TraceSchema parse_schema_name(std::string_view name);

/// Hard cap on one CSV line; a longer line is a malformed-input error,
/// and the mapped window carries exactly this much slack past the batch
/// for lines that straddle its end.
inline constexpr std::size_t kMaxLineBytes = std::size_t{64} << 10;

/// Streamed single-table ingest has no SUBMIT-event join, so the declared
/// request is peak observed usage times this headroom.
inline constexpr double kRequestHeadroom = 1.25;

/// What to do with tasks whose assembled duration exceeds the paper's
/// short-lived cap, kShortJobMaxSlots fine slots. Both schemas record
/// 5-minute windows, resampled to 10-second slots as the paper does.
enum class LongTaskPolicy : std::uint8_t {
  /// Drop them, as the paper does for the Google trace (Sec. IV). The
  /// task keeps streaming through the watermark machinery but its
  /// windows are discarded, so memory stays bounded.
  kDrop = 0,
  /// Split them into consecutive max-duration jobs — how a long-running
  /// Azure VM becomes a sequence of short-lived jobs the CORP model can
  /// schedule.
  kSegment = 1,
};

struct StreamReaderConfig {
  TraceSchema schema = TraceSchema::kGoogleV2;

  // --- chunking (throughput knobs; never affect results) ---
  /// Fixed chunk width in bytes; chunk k covers file bytes
  /// [k*chunk_bytes, (k+1)*chunk_bytes).
  std::size_t chunk_bytes = std::size_t{4} << 20;
  /// Chunks mapped and parsed per advance() call; one batch is the unit
  /// of parallel parsing and of mapped address space.
  std::size_t chunks_per_batch = 4;

  // --- assembly ---
  LongTaskPolicy long_tasks = LongTaskPolicy::kDrop;
  /// Base seed of the per-task resample-jitter streams
  /// (seed_stream::kTraceIngest).
  std::uint64_t seed = 42;
};

/// Ingestion counters, exported by bench/trace_replay as trace.* metrics
/// (corp_trace deliberately does not link corp_obs).
struct StreamStats {
  std::uint64_t file_bytes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t rows_parsed = 0;
  std::uint64_t lines_seen = 0;
  std::uint64_t chunks_parsed = 0;
  std::uint64_t batches_mapped = 0;
  std::uint64_t tasks_opened = 0;
  std::uint64_t jobs_emitted = 0;
  std::uint64_t jobs_dropped_long = 0;
  std::uint64_t jobs_segmented = 0;
  std::uint64_t gap_fills = 0;
  std::uint64_t peak_open_tasks = 0;
  /// The reader's own wall-clock timers; they never feed a decision.
  /// Seconds the caller spent parsing chunks itself or waiting on parse
  /// tasks.
  double parse_wait_seconds = 0.0;
  /// Seconds spent merging parsed rows: window assembly, closing, emitting
  /// and resampling tasks.
  double assemble_seconds = 0.0;
};

/// Pull-based streaming reader. Call advance() to ingest the next batch,
/// take_ready() to collect jobs whose tasks have closed, and
/// safe_submit_slot() to learn which simulation slots are complete (no
/// future job can be submitted before it).
class StreamReader {
 public:
  /// Opens and maps metadata for `path`. `pool` parses a batch's chunks
  /// as concurrent tasks when it has more than one worker, each chunk
  /// merging while later ones still parse; results are bit-identical
  /// with and without it. Throws std::runtime_error when the file cannot
  /// be opened or its first line carries an unknown #corp-trace
  /// directive.
  StreamReader(std::string path, StreamReaderConfig config,
               util::ThreadPool* pool = nullptr);
  ~StreamReader();

  StreamReader(const StreamReader&) = delete;
  StreamReader& operator=(const StreamReader&) = delete;

  /// Ingests one batch of chunks (or performs the final flush). Returns
  /// true while more input remains, false once exhausted. Malformed
  /// input raises std::runtime_error of the form "line N, field 'F':
  /// reason (got 'V')", N being the 1-based file line.
  bool advance();

  /// Moves out all jobs emitted since the previous call. Jobs carry
  /// sequential ids in emission order; emission order is deterministic
  /// but not submit-sorted (tasks emit when they close).
  std::vector<Job> take_ready();

  /// True once the whole file has been consumed and every open task
  /// flushed.
  bool exhausted() const { return exhausted_; }

  /// Lower bound on the submit_slot of every job not yet emitted: slots
  /// strictly below it are complete. Max int64 once exhausted.
  std::int64_t safe_submit_slot() const { return safe_submit_slot_; }

  /// Largest submit_slot + duration_slots over emitted jobs so far.
  std::int64_t horizon_slots() const { return horizon_slots_; }

  /// Microsecond timestamp of the first row; submit slots count from it.
  std::int64_t epoch_us() const { return epoch_us_; }

  const StreamStats& stats() const { return stats_; }
  const std::string& path() const { return path_; }

  /// Convenience for tests and small files: streams the whole file and
  /// returns the materialized, submit-sorted trace.
  static Trace read_all(const std::string& path,
                        const StreamReaderConfig& config,
                        util::ThreadPool* pool = nullptr);

 private:
  struct Impl;

  std::string path_;
  std::unique_ptr<Impl> impl_;
  StreamStats stats_;
  bool exhausted_ = false;
  std::int64_t safe_submit_slot_ = 0;
  std::int64_t horizon_slots_ = 0;
  std::int64_t epoch_us_ = 0;
};

}  // namespace corp::trace
