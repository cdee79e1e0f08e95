#include "trace/stream_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "trace/resampler.hpp"
#include "util/rng.hpp"
#include "util/seed_streams.hpp"
#include "util/thread_pool.hpp"

namespace corp::trace {

namespace {

/// Microseconds per coarse record: both public traces report one row per
/// task (Google) or VM reading (Azure) per 5-minute window.
constexpr std::int64_t kWindowUs = 300'000'000;
/// Machine scales: a normalized Google usage of 1.0, or 100% Azure CPU,
/// corresponds to this many CPU cores / GB of memory / GB of storage.
/// Azure readings carry CPU only, so their storage stays 0.
constexpr double kCpuScaleCores = 16.0;
constexpr double kMemScaleGb = 64.0;
constexpr double kStorageScaleGb = 720.0;
/// Fine 10-second slots per coarse window (ResampleConfig's default).
constexpr std::size_t kSlotsPerWindow = ResampleConfig{}.slots_per_sample;
constexpr std::int64_t kSlotUs =
    kWindowUs / static_cast<std::int64_t>(kSlotsPerWindow);
/// A task closes once the watermark passes its last window's end by two
/// coarse windows.
constexpr std::int64_t kCloseGapUs = 2 * kWindowUs;

/// Fine slots a task of `windows` coarse windows resamples to.
constexpr std::size_t fine_slots(std::size_t windows) {
  return windows <= 1 ? kSlotsPerWindow : (windows - 1) * kSlotsPerWindow + 1;
}
/// LongTaskPolicy::kSegment cut size: the largest window count whose
/// resampled duration stays within the short-lived cap. One 5-minute
/// window already fills the 30-slot cap, so every segment is one window.
constexpr std::size_t kSegmentWindows = 1;
static_assert(fine_slots(kSegmentWindows) <= kShortJobMaxSlots &&
              fine_slots(kSegmentWindows + 1) > kShortJobMaxSlots);
/// SLO stretch assigned to loaded tasks (the traces have no SLOs).
constexpr double kSloStretch = 1.10;

// Every diagnostic names the 1-based file line and the offending column,
// "line N, field 'F': reason (got 'V')", so a broken multi-gigabyte
// download is debuggable without bisecting it.
[[noreturn]] void fail_field(std::uint64_t line, std::string_view column,
                             std::string_view value, std::string_view reason) {
  throw std::runtime_error("read_trace_stream: line " + std::to_string(line) +
                           ", field '" + std::string(column) +
                           "': " + std::string(reason) + " (got '" +
                           std::string(value) + "')");
}

// Error values come out of a transient mmap window; clip and copy them.
std::string clip_value(std::string_view value) {
  constexpr std::size_t kMax = 64;
  if (value.size() <= kMax) return std::string(value);
  return std::string(value.substr(0, kMax)) + "...";
}

// One parsed usage row, already scaled into model units (cores / GB) so
// downstream assembly is schema-agnostic. `line` is chunk-local during
// parallel parsing and rebased to the global 1-based file line during the
// serial merge.
struct RawRow {
  std::uint64_t key_id = 0;
  std::uint32_t key_index = 0;
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  double cpu = 0.0;
  double mem = 0.0;
  double storage = 0.0;
  std::uint64_t line = 0;
};

struct ChunkError {
  std::uint64_t local_line = 0;
  std::string column;
  std::string value;
  std::string reason;
};

// Output of parsing one chunk: a pure function of the mapped bytes, so
// chunks can parse on any worker in any order. The first error in a chunk
// is deferred (not thrown) and rethrown during the in-order merge, which
// keeps diagnostics bit-identical between serial and parallel parsing.
struct ChunkOut {
  std::vector<RawRow> rows;
  std::uint64_t lines = 0;
  bool has_error = false;
  ChunkError error;
};

// Records the first error of the chunk; parsing stops at it.
bool defer_error(ChunkOut& out, std::uint64_t local_line,
                 std::string_view column, std::string_view value,
                 std::string reason) {
  if (!out.has_error) {
    out.has_error = true;
    out.error = ChunkError{local_line, std::string(column), clip_value(value),
                           std::move(reason)};
  }
  return false;
}

bool parse_u64_field(std::string_view field, std::string_view column,
                     std::uint64_t local_line, ChunkOut& out,
                     std::uint64_t& value) {
  if (field.empty()) {
    return defer_error(out, local_line, column, field, "missing field");
  }
  const char* first = field.data();
  const char* last = field.data() + field.size();
  const auto result = std::from_chars(first, last, value);
  if (result.ec != std::errc() || result.ptr != last) {
    return defer_error(out, local_line, column, field,
                       "expected an unsigned integer");
  }
  return true;
}

bool parse_f64_field(std::string_view field, std::string_view column,
                     std::uint64_t local_line, ChunkOut& out, double& value,
                     bool optional) {
  if (field.empty()) {
    if (optional) {
      value = 0.0;
      return true;
    }
    return defer_error(out, local_line, column, field, "missing field");
  }
  const char* first = field.data();
  const char* last = field.data() + field.size();
  const auto result = std::from_chars(first, last, value);
  if (result.ec != std::errc() || result.ptr != last) {
    return defer_error(out, local_line, column, field, "expected a number");
  }
  // from_chars accepts "nan" and "inf"; NaN would also pass the sign check.
  if (!std::isfinite(value)) {
    return defer_error(out, local_line, column, field,
                       "expected a finite number");
  }
  if (value < 0.0) {
    return defer_error(out, local_line, column, field, "negative value");
  }
  return true;
}

// Splits one CSV line on commas; both public schemas are plain headerless
// CSV without quoting, so a quoted field is rejected explicitly rather
// than silently mis-split.
bool split_fields(std::string_view line, std::uint64_t local_line,
                  std::span<const std::string_view> columns, ChunkOut& out,
                  std::vector<std::string_view>& fields) {
  fields.clear();
  std::size_t begin = 0;
  while (true) {
    const std::size_t comma = line.find(',', begin);
    const std::string_view field =
        comma == std::string_view::npos
            ? line.substr(begin)
            : line.substr(begin, comma - begin);
    if (!field.empty() && field.front() == '"') {
      const std::string_view column = fields.size() < columns.size()
                                          ? columns[fields.size()]
                                          : std::string_view("row");
      return defer_error(out, local_line, column, field,
                         "quoted field (CSV quoting is not supported)");
    }
    fields.push_back(field);
    if (comma == std::string_view::npos) break;
    begin = comma + 1;
  }
  return true;
}

// FNV-1a, for keying Azure VM id strings without retaining them. 64-bit
// means collisions among the trace's VM population are negligible.
std::uint64_t fnv1a_64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

// Google cluster-usage v2 task_usage columns (by position).
constexpr std::array<std::string_view, 13> kGoogleColumns = {
    "start_time",     "end_time",  "job_id",        "task_index",
    "machine_id",     "mean_cpu",  "canonical_mem", "assigned_mem",
    "unmapped_cache", "page_cache", "max_mem",      "mean_disk_io",
    "mean_disk_space"};

// Azure VM trace vm_cpu_readings columns (by position).
constexpr std::array<std::string_view, 5> kAzureColumns = {
    "timestamp", "vm_id", "min_cpu", "max_cpu", "avg_cpu"};

constexpr std::string_view kDirectivePrefix = "#corp-trace schema=";

bool parse_google_row(std::string_view line, std::uint64_t local_line,
                      ChunkOut& out, std::vector<std::string_view>& fields) {
  if (!split_fields(line, local_line, kGoogleColumns, out, fields)) {
    return false;
  }
  if (fields.size() < 7) {
    return defer_error(out, local_line, "row", line,
                       "too few columns for a task_usage row (need >= 7)");
  }
  RawRow row;
  std::uint64_t start = 0;
  std::uint64_t end = 0;
  std::uint64_t job_id = 0;
  std::uint64_t task_index = 0;
  if (!parse_u64_field(fields[0], kGoogleColumns[0], local_line, out, start) ||
      !parse_u64_field(fields[1], kGoogleColumns[1], local_line, out, end) ||
      !parse_u64_field(fields[2], kGoogleColumns[2], local_line, out,
                       job_id) ||
      !parse_u64_field(fields[3], kGoogleColumns[3], local_line, out,
                       task_index)) {
    return false;
  }
  if (end <= start) {
    return defer_error(out, local_line, kGoogleColumns[1], fields[1],
                       "window end not after start");
  }
  double mean_cpu = 0.0;
  double canonical_mem = 0.0;
  double mean_disk = 0.0;
  if (!parse_f64_field(fields[5], kGoogleColumns[5], local_line, out, mean_cpu,
                       /*optional=*/true) ||
      !parse_f64_field(fields[6], kGoogleColumns[6], local_line, out,
                       canonical_mem, /*optional=*/true)) {
    return false;
  }
  if (fields.size() > 12 &&
      !parse_f64_field(fields[12], kGoogleColumns[12], local_line, out,
                       mean_disk, /*optional=*/true)) {
    return false;
  }
  row.key_id = job_id;
  row.key_index = static_cast<std::uint32_t>(task_index);
  row.start_us = static_cast<std::int64_t>(start);
  row.end_us = static_cast<std::int64_t>(end);
  row.cpu = mean_cpu * kCpuScaleCores;
  row.mem = canonical_mem * kMemScaleGb;
  row.storage = mean_disk * kStorageScaleGb;
  row.line = local_line;
  out.rows.push_back(row);
  return true;
}

bool parse_azure_row(std::string_view line, std::uint64_t local_line,
                     ChunkOut& out, std::vector<std::string_view>& fields) {
  if (!split_fields(line, local_line, kAzureColumns, out, fields)) {
    return false;
  }
  if (fields.size() < 5) {
    return defer_error(out, local_line, "row", line,
                       "too few columns for a vm_cpu_readings row (need 5)");
  }
  std::uint64_t timestamp_s = 0;
  if (!parse_u64_field(fields[0], kAzureColumns[0], local_line, out,
                       timestamp_s)) {
    return false;
  }
  if (fields[1].empty()) {
    return defer_error(out, local_line, kAzureColumns[1], fields[1],
                       "missing field");
  }
  double min_cpu = 0.0;
  double max_cpu = 0.0;
  double avg_cpu = 0.0;
  if (!parse_f64_field(fields[2], kAzureColumns[2], local_line, out, min_cpu,
                       /*optional=*/false) ||
      !parse_f64_field(fields[3], kAzureColumns[3], local_line, out, max_cpu,
                       /*optional=*/false) ||
      !parse_f64_field(fields[4], kAzureColumns[4], local_line, out, avg_cpu,
                       /*optional=*/false)) {
    return false;
  }
  if (avg_cpu > 100.0) {
    return defer_error(out, local_line, kAzureColumns[4], fields[4],
                       "percent utilization out of range");
  }
  RawRow row;
  row.key_id = fnv1a_64(fields[1]);
  row.key_index = 0;
  row.start_us = static_cast<std::int64_t>(timestamp_s) * 1'000'000;
  row.end_us = row.start_us + kWindowUs;
  const double fraction = avg_cpu / 100.0;
  row.cpu = fraction * kCpuScaleCores;
  row.mem = fraction * kMemScaleGb;
  row.storage = 0.0;
  row.line = local_line;
  out.rows.push_back(row);
  return true;
}

// Validates the optional self-description on line 1 of fixture files
// ("#corp-trace schema=google-v2"). Raw public downloads have no
// directive and rely on the configured schema.
bool parse_directive(std::string_view line, const StreamReaderConfig& config,
                     ChunkOut& out) {
  if (line.substr(0, kDirectivePrefix.size()) != kDirectivePrefix) {
    return defer_error(out, 1, "directive", line,
                       "unrecognized directive (expected '#corp-trace "
                       "schema=<google-v2|azure-vm>')");
  }
  const std::string_view name = line.substr(kDirectivePrefix.size());
  TraceSchema file_schema = TraceSchema::kGoogleV2;
  try {
    file_schema = parse_schema_name(name);
  } catch (const std::invalid_argument&) {
    return defer_error(out, 1, "schema", name, "unknown schema version");
  }
  if (file_schema != config.schema) {
    return defer_error(out, 1, "schema", name,
                       "schema mismatch (reader configured for '" +
                           std::string(schema_name(config.schema)) + "')");
  }
  return true;
}

// Parses the lines *starting* inside [chunk_begin, chunk_end). A line
// starting before chunk_begin is the previous chunk's, even when it ends
// inside this one; the final owned line may run past chunk_end into the
// window's kMaxLineBytes slack. Pure function of the mapped bytes.
ChunkOut parse_chunk(const char* window, std::uint64_t window_offset,
                     std::uint64_t chunk_begin, std::uint64_t chunk_end,
                     std::uint64_t file_size,
                     const StreamReaderConfig& config) {
  ChunkOut out;
  const auto at = [&](std::uint64_t off) -> char {
    return window[off - window_offset];
  };
  std::uint64_t pos = chunk_begin;
  if (chunk_begin > 0 && at(chunk_begin - 1) != '\n') {
    while (pos < chunk_end && at(pos) != '\n') ++pos;
    ++pos;  // first byte after the boundary-spanning line
  }
  std::vector<std::string_view> fields;
  fields.reserve(16);
  while (pos < chunk_end && pos < file_size) {
    ++out.lines;
    const std::uint64_t local_line = out.lines;
    const std::uint64_t limit =
        std::min<std::uint64_t>(file_size, pos + kMaxLineBytes + 1);
    std::uint64_t eol = pos;
    while (eol < limit && at(eol) != '\n') ++eol;
    if (eol == limit && limit < file_size) {
      const std::uint64_t preview = std::min<std::uint64_t>(32, limit - pos);
      defer_error(out, local_line, "row",
                  std::string_view(window + (pos - window_offset),
                                   static_cast<std::size_t>(preview)),
                  "line exceeds max_line_bytes (" +
                      std::to_string(kMaxLineBytes) + ")");
      break;
    }
    std::string_view line(window + (pos - window_offset), eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') {
      defer_error(out, local_line, "row", "\\r",
                  "CRLF line ending (expected LF-only)");
      break;
    }
    if (line.empty()) continue;
    if (line.front() == '#') {
      if (chunk_begin == 0 && local_line == 1) {
        if (!parse_directive(line, config, out)) break;
        continue;
      }
      defer_error(out, local_line, "row", line,
                  "directive allowed on line 1 only");
      break;
    }
    const bool ok = config.schema == TraceSchema::kGoogleV2
                        ? parse_google_row(line, local_line, out, fields)
                        : parse_azure_row(line, local_line, out, fields);
    if (!ok) break;
  }
  return out;
}

// RAII for one batch's mapped window, so parse exceptions cannot leak
// address space.
class MappedWindow {
 public:
  MappedWindow(int fd, std::uint64_t offset, std::size_t length,
               const std::string& path)
      : length_(length) {
    ptr_ = ::mmap(nullptr, length, PROT_READ, MAP_PRIVATE, fd,
                  static_cast<off_t>(offset));
    if (ptr_ == MAP_FAILED) {
      throw std::runtime_error("read_trace_stream: mmap failed for '" + path +
                               "': " + std::strerror(errno));
    }
    ::madvise(ptr_, length, MADV_SEQUENTIAL);
  }
  ~MappedWindow() { ::munmap(ptr_, length_); }
  MappedWindow(const MappedWindow&) = delete;
  MappedWindow& operator=(const MappedWindow&) = delete;

  const char* data() const { return static_cast<const char*>(ptr_); }

 private:
  void* ptr_ = MAP_FAILED;
  std::size_t length_ = 0;
};

struct TaskKey {
  std::uint64_t id = 0;
  std::uint32_t index = 0;
  bool operator==(const TaskKey&) const = default;
};

struct TaskKeyHash {
  std::size_t operator()(const TaskKey& key) const {
    return static_cast<std::size_t>(util::splitmix64_mix(
        key.id + util::kSplitMix64Gamma *
                     (static_cast<std::uint64_t>(key.index) + 1)));
  }
};

struct OpenTask {
  std::int64_t first_start_us = 0;
  std::int64_t next_window_us = 0;
  std::int64_t last_end_us = 0;
  std::uint32_t segment = 0;
  bool dropped = false;
  std::vector<ResourceVector> windows;
};

// Lazy close-heap entry; stale entries (the task grew since) are skipped
// on pop by re-checking last_end_us.
struct CloseEntry {
  std::int64_t close_at_us = 0;
  std::uint64_t key_id = 0;
  std::uint32_t key_index = 0;
};

struct CloseEntryAfter {
  bool operator()(const CloseEntry& a, const CloseEntry& b) const {
    return std::tie(a.close_at_us, a.key_id, a.key_index) >
           std::tie(b.close_at_us, b.key_id, b.key_index);
  }
};

}  // namespace

std::string_view schema_name(TraceSchema schema) {
  switch (schema) {
    case TraceSchema::kGoogleV2:
      return "google-v2";
    case TraceSchema::kAzureVm:
      return "azure-vm";
  }
  return "unknown";
}

TraceSchema parse_schema_name(std::string_view name) {
  if (name == "google-v2") return TraceSchema::kGoogleV2;
  if (name == "azure-vm") return TraceSchema::kAzureVm;
  throw std::invalid_argument("unknown trace schema '" + std::string(name) +
                              "' (expected google-v2 or azure-vm)");
}

struct StreamReader::Impl {
  StreamReader* owner;
  StreamReaderConfig config;
  util::ThreadPool* pool;

  int fd = -1;
  std::uint64_t file_size = 0;
  std::uint64_t page_size = 4096;
  std::uint64_t num_chunks = 0;
  std::uint64_t next_chunk = 0;
  std::uint64_t lines_total = 0;

  bool have_epoch = false;
  std::int64_t watermark_us = 0;
  std::uint64_t next_job_id = 0;
  std::unordered_map<TaskKey, OpenTask, TaskKeyHash> open;
  std::priority_queue<CloseEntry, std::vector<CloseEntry>, CloseEntryAfter>
      close_heap;
  std::vector<Job> ready;

  Impl(StreamReader* owner_in, StreamReaderConfig config_in,
       util::ThreadPool* pool_in)
      : owner(owner_in), config(std::move(config_in)), pool(pool_in) {
    if (config.chunk_bytes == 0) {
      throw std::invalid_argument("StreamReaderConfig: chunk_bytes must be > 0");
    }
    if (config.chunks_per_batch == 0) config.chunks_per_batch = 1;

    fd = ::open(owner->path_.c_str(), O_RDONLY);
    if (fd < 0) {
      throw std::runtime_error("read_trace_stream: cannot open '" +
                               owner->path_ + "': " + std::strerror(errno));
    }
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      const std::string reason = std::strerror(errno);
      ::close(fd);
      fd = -1;
      throw std::runtime_error("read_trace_stream: cannot stat '" +
                               owner->path_ + "': " + reason);
    }
    file_size = static_cast<std::uint64_t>(st.st_size);
    const long page = ::sysconf(_SC_PAGESIZE);
    page_size = page > 0 ? static_cast<std::uint64_t>(page) : 4096;
    num_chunks = (file_size + config.chunk_bytes - 1) / config.chunk_bytes;
    owner->stats_.file_bytes = file_size;
  }

  ~Impl() {
    if (fd >= 0) ::close(fd);
  }

  std::int64_t slot_of(std::int64_t us) const {
    if (us <= owner->epoch_us_) return 0;
    return (us - owner->epoch_us_) / kSlotUs;
  }

  std::string_view timestamp_column() const {
    return config.schema == TraceSchema::kGoogleV2 ? kGoogleColumns[0]
                                                   : kAzureColumns[0];
  }

  static JobClass classify(const ResourceVector& peak) {
    const std::array<double, kNumResources> fraction{
        peak.cpu() / kCpuScaleCores, peak.memory() / kMemScaleGb,
        peak.storage() / kStorageScaleGb};
    std::size_t top = 0;
    for (std::size_t i = 1; i < fraction.size(); ++i) {
      if (fraction[i] > fraction[top]) top = i;
    }
    if (fraction[top] <= 0.0) return JobClass::kBalanced;
    double runner_up = 0.0;
    for (std::size_t i = 0; i < fraction.size(); ++i) {
      if (i != top) runner_up = std::max(runner_up, fraction[i]);
    }
    if (fraction[top] < 1.5 * runner_up) return JobClass::kBalanced;
    switch (top) {
      case 0:
        return JobClass::kCpuIntensive;
      case 1:
        return JobClass::kMemIntensive;
      default:
        return JobClass::kStorageIntensive;
    }
  }

  // Expands the coarse windows to fine 10-second slots. Jitter derives
  // from (seed, kTraceIngest, task key + segment), never from arrival
  // order, so the fine series is invariant to chunking and threading.
  Job refine(Job coarse, const TaskKey& key, std::uint32_t segment) const {
    const std::uint64_t substream =
        util::splitmix64_mix(
            key.id + util::kSplitMix64Gamma *
                         (static_cast<std::uint64_t>(key.index) + 1)) +
        segment;
    util::Rng rng(util::derive_seed(config.seed,
                                    util::seed_stream::kTraceIngest,
                                    substream));
    if (coarse.usage.size() > 1) {
      return resample_job(coarse, ResampleConfig{}, rng);
    }
    // A single coarse record still covers a full window of fine slots
    // (no interior anchors to interpolate).
    Job fine = std::move(coarse);
    const ResourceVector sample = fine.usage.front();
    fine.usage.assign(kSlotsPerWindow, sample);
    fine.duration_slots = fine.usage.size();
    return fine;
  }

  void emit(const TaskKey& key, OpenTask& task) {
    if (task.windows.empty()) return;
    Job coarse;
    coarse.id = next_job_id++;
    coarse.submit_slot = slot_of(task.first_start_us);
    coarse.slo_stretch = kSloStretch;
    ResourceVector peak = task.windows.front();
    for (const auto& w : task.windows) peak = ResourceVector::max(peak, w);
    coarse.request = peak * kRequestHeadroom;
    coarse.job_class = classify(peak);
    coarse.usage = std::move(task.windows);
    task.windows.clear();
    coarse.duration_slots = coarse.usage.size();
    Job fine = refine(std::move(coarse), key, task.segment);
    if (config.long_tasks == LongTaskPolicy::kDrop &&
        fine.duration_slots > kShortJobMaxSlots) {
      ++owner->stats_.jobs_dropped_long;
      return;
    }
    owner->horizon_slots_ = std::max(
        owner->horizon_slots_,
        fine.submit_slot + static_cast<std::int64_t>(fine.duration_slots));
    ++owner->stats_.jobs_emitted;
    ready.push_back(std::move(fine));
  }

  // Appends one coarse window; applies the long-task policy eagerly so an
  // open task never accumulates more than kSegmentWindows (or the drop
  // threshold) of state.
  void append_window(const TaskKey& key, OpenTask& task,
                     const ResourceVector& value, std::int64_t start_us) {
    if (task.windows.empty()) task.first_start_us = start_us;
    task.windows.push_back(value);
    task.next_window_us = start_us + kWindowUs;
    if (config.long_tasks == LongTaskPolicy::kDrop) {
      if (fine_slots(task.windows.size()) > kShortJobMaxSlots) {
        task.dropped = true;
        task.windows.clear();
        task.windows.shrink_to_fit();
        ++owner->stats_.jobs_dropped_long;
      }
    } else if (task.windows.size() >= kSegmentWindows) {
      emit(key, task);
      ++owner->stats_.jobs_segmented;
      ++task.segment;
    }
  }

  void drain_closed(std::int64_t up_to_watermark_us) {
    while (!close_heap.empty() &&
           close_heap.top().close_at_us <= up_to_watermark_us) {
      const CloseEntry entry = close_heap.top();
      close_heap.pop();
      const TaskKey key{entry.key_id, entry.key_index};
      auto it = open.find(key);
      if (it == open.end()) continue;
      if (it->second.last_end_us + kCloseGapUs != entry.close_at_us) {
        continue;  // stale: the task grew after this entry was pushed
      }
      emit(key, it->second);
      open.erase(it);
    }
  }

  void ingest_row(const RawRow& row) {
    if (!have_epoch) {
      have_epoch = true;
      owner->epoch_us_ = row.start_us;
      watermark_us = row.start_us;
    }
    // Both public traces are sorted, so no reordering slack is allowed.
    if (row.start_us < watermark_us) {
      fail_field(row.line, timestamp_column(), std::to_string(row.start_us),
                 "out-of-order timestamp (watermark " +
                     std::to_string(watermark_us) + " us)");
    }
    watermark_us = std::max(watermark_us, row.start_us);
    drain_closed(watermark_us);

    const TaskKey key{row.key_id, row.key_index};
    auto [it, inserted] = open.try_emplace(key);
    OpenTask& task = it->second;
    if (inserted) {
      ++owner->stats_.tasks_opened;
      owner->stats_.peak_open_tasks =
          std::max<std::uint64_t>(owner->stats_.peak_open_tasks, open.size());
      task.next_window_us = row.start_us;
      task.last_end_us = row.end_us;
    }
    const ResourceVector value(row.cpu, row.mem, row.storage);
    if (!task.dropped) {
      if (!task.windows.empty() && row.start_us < task.next_window_us) {
        // Sub-window record (task churn inside one 5-minute window):
        // merge into the current window by component-wise max.
        task.windows.back() = ResourceVector::max(task.windows.back(), value);
      } else {
        if (!task.windows.empty()) {
          // The trace omits windows with unchanged usage; repeat the
          // previous record across the gap.
          const std::int64_t missing =
              (row.start_us - task.next_window_us) / kWindowUs;
          const ResourceVector fill = task.windows.back();
          for (std::int64_t g = 0; g < missing && !task.dropped; ++g) {
            ++owner->stats_.gap_fills;
            append_window(key, task, fill, task.next_window_us);
          }
        }
        if (!task.dropped) append_window(key, task, value, row.start_us);
      }
    }
    task.last_end_us = std::max(task.last_end_us, row.end_us);
    close_heap.push(CloseEntry{task.last_end_us + kCloseGapUs, key.id,
                               key.index});
  }

  // Lower bound on any future emission's submit slot: the watermark
  // bounds rows not yet seen, and each open task's
  // anchor bounds the segments it will still emit. Min-reduction over the
  // open map is order-insensitive, so unordered iteration is safe.
  void update_safe_submit_slot() {
    if (owner->exhausted_) {
      owner->safe_submit_slot_ = std::numeric_limits<std::int64_t>::max();
      return;
    }
    if (!have_epoch) {
      owner->safe_submit_slot_ = 0;
      return;
    }
    std::int64_t bound_us = watermark_us;
    for (const auto& [key, task] : open) {  // lint: sorted-gather
      if (task.dropped) continue;
      const std::int64_t anchor =
          task.windows.empty() ? task.next_window_us : task.first_start_us;
      bound_us = std::min(bound_us, anchor);
    }
    owner->safe_submit_slot_ = slot_of(bound_us);
  }

  void flush_all() {
    drain_closed(std::numeric_limits<std::int64_t>::max());
    if (!open.empty()) {
      throw std::logic_error(
          "read_trace_stream: open tasks survived the final flush");
    }
    owner->exhausted_ = true;
  }

  void ingest_batch() {
    const std::uint64_t first = next_chunk;
    const std::uint64_t count =
        std::min<std::uint64_t>(config.chunks_per_batch, num_chunks - first);
    const std::uint64_t batch_begin = first * config.chunk_bytes;
    const std::uint64_t batch_end =
        std::min<std::uint64_t>(file_size, (first + count) * config.chunk_bytes);
    const std::uint64_t map_begin =
        batch_begin == 0 ? 0 : (batch_begin - 1) / page_size * page_size;
    const std::uint64_t map_end =
        std::min<std::uint64_t>(file_size, batch_end + kMaxLineBytes);
    const MappedWindow window(fd, map_begin,
                              static_cast<std::size_t>(map_end - map_begin),
                              owner->path_);
    ++owner->stats_.batches_mapped;

    std::vector<ChunkOut> outs(count);
    const auto parse_one = [&](std::size_t i) {
      const std::uint64_t begin = (first + i) * config.chunk_bytes;
      const std::uint64_t end =
          std::min<std::uint64_t>(file_size, begin + config.chunk_bytes);
      outs[i] = parse_chunk(window.data(), map_begin, begin, end, file_size,
                            config);
    };
    if (pool != nullptr && pool->size() > 1 && count > 1) {
      pool->parallel_for(static_cast<std::size_t>(count), parse_one);
    } else {
      for (std::size_t i = 0; i < count; ++i) parse_one(i);
    }

    // Serial in-order merge: rebase chunk-local lines to global file
    // lines, assemble rows, and rethrow the earliest deferred error —
    // identical diagnostics whether the chunks parsed serially or not.
    for (auto& chunk : outs) {
      for (RawRow& row : chunk.rows) {
        row.line += lines_total;
        ingest_row(row);
      }
      owner->stats_.rows_parsed += chunk.rows.size();
      ++owner->stats_.chunks_parsed;
      if (chunk.has_error) {
        fail_field(lines_total + chunk.error.local_line, chunk.error.column,
                   chunk.error.value, chunk.error.reason);
      }
      lines_total += chunk.lines;
    }
    owner->stats_.lines_seen = lines_total;
    owner->stats_.bytes_read += batch_end - batch_begin;
    next_chunk = first + count;
  }
};

StreamReader::StreamReader(std::string path, StreamReaderConfig config,
                           util::ThreadPool* pool)
    : path_(std::move(path)),
      impl_(std::make_unique<Impl>(this, std::move(config), pool)) {}

StreamReader::~StreamReader() = default;

bool StreamReader::advance() {
  if (exhausted_) return false;
  if (impl_->next_chunk < impl_->num_chunks) {
    impl_->ingest_batch();
  }
  if (impl_->next_chunk >= impl_->num_chunks) {
    impl_->flush_all();
  }
  impl_->update_safe_submit_slot();
  return !exhausted_;
}

std::vector<Job> StreamReader::take_ready() {
  std::vector<Job> out;
  out.swap(impl_->ready);
  return out;
}

Trace StreamReader::read_all(const std::string& path,
                             const StreamReaderConfig& config,
                             util::ThreadPool* pool) {
  StreamReader reader(path, config, pool);
  std::vector<Job> jobs;
  do {
    reader.advance();
    std::vector<Job> batch = reader.take_ready();
    for (auto& job : batch) jobs.push_back(std::move(job));
  } while (!reader.exhausted());
  Trace trace(std::move(jobs));
  trace.sort();
  return trace;
}

}  // namespace corp::trace
