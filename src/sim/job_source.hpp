// Where the slot loop's arrivals come from.
//
// The engine historically iterated a materialized trace::Trace. At
// production trace volume (multi-GB Google/Azure CSV files) the whole
// timeline never fits in memory, so the engine consumes a JobSource
// instead: poll(t) yields the jobs submitted at or before slot t, in the
// exact (submit_slot, id) order a sorted materialized trace would, and
// retire() tells the source a job finished so its storage can be freed.
//
// Determinism contract: for the same underlying job set, every JobSource
// implementation delivers the same pointers in the same order at the same
// slots, so ShardEngine results are bit-identical between a materialized
// trace and a streaming reader — pinned by tests/sim/stream_replay_test.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

#include "sim/slot_clock.hpp"
#include "trace/job.hpp"
#include "trace/stream_reader.hpp"

namespace corp::sim {

class JobSource {
 public:
  virtual ~JobSource() = default;

  /// Appends every not-yet-delivered job with submit_slot <= slot, in
  /// (submit_slot, id) order. Pointers stay valid until retire().
  virtual void poll(std::int64_t slot,
                    std::vector<const trace::Job*>& out) = 0;

  /// True once every job has been delivered.
  virtual bool exhausted() const = 0;

  /// Event horizon for the event-driven slot clock: the earliest slot
  /// > `after` at which this source could change the simulation — an
  /// arrival, or (for incremental sources) any internal state step the
  /// dense slot-by-slot path would have taken. kNoEventSlot when
  /// exhausted. Returning an earlier slot than strictly necessary is
  /// always safe (the engine just ticks an extra empty slot).
  virtual std::int64_t next_event_slot(std::int64_t after) = 0;

  /// Max submit_slot + duration_slots over delivered jobs; exact once
  /// exhausted() (the engine only uses it for the grace cutoff, which it
  /// evaluates only when the source is exhausted).
  virtual std::int64_t horizon_slots() const = 0;

  /// The engine is permanently done with `job` (completed, dropped after
  /// its retry budget, or force-completed). Default: no-op.
  virtual void retire(const trace::Job& job);
};

/// Adapter over a materialized, sorted trace — the legacy path; holds no
/// job storage of its own.
class TraceJobSource final : public JobSource {
 public:
  explicit TraceJobSource(const trace::Trace& trace);

  void poll(std::int64_t slot, std::vector<const trace::Job*>& out) override;
  bool exhausted() const override;
  /// Exact: the submit slot of the next undelivered job.
  std::int64_t next_event_slot(std::int64_t after) override;
  std::int64_t horizon_slots() const override { return horizon_; }

 private:
  const trace::Trace* trace_;
  std::size_t next_ = 0;
  std::int64_t horizon_ = 0;
};

/// Adapter over a trace::StreamReader: owns the jobs between emission and
/// retirement, and only releases slot-t arrivals once the reader's safe
/// submit bound has passed t, so no late emission can miss its slot.
/// Live-job storage is O(running jobs + one ingest batch), not O(trace).
class StreamingJobSource final : public JobSource {
 public:
  /// The reader must outlive this source; it may already be partially
  /// advanced (emitted-but-untaken jobs are absorbed on first poll).
  explicit StreamingJobSource(trace::StreamReader& reader);

  void poll(std::int64_t slot, std::vector<const trace::Job*>& out) override;
  bool exhausted() const override;
  /// The earliest pending submit slot, or — when no emitted job is
  /// waiting — the reader's safe submit bound: the first slot at which
  /// the dense path's poll() would advance the reader again. Landing
  /// there (instead of jumping straight to the next arrival) replays the
  /// exact ingest schedule of the dense loop, so reader state, stats and
  /// the exhaustion slot stay bit-identical between clock modes.
  std::int64_t next_event_slot(std::int64_t after) override;
  std::int64_t horizon_slots() const override;
  void retire(const trace::Job& job) override;

  /// Jobs currently owned (delivered or awaiting delivery); bounded-memory
  /// telemetry for bench/trace_replay.
  std::size_t live_jobs() const { return live_.size(); }
  std::size_t peak_live_jobs() const { return peak_live_; }

 private:
  struct Pending {
    std::int64_t submit_slot = 0;
    std::uint64_t id = 0;
    const trace::Job* job = nullptr;
  };
  struct PendingAfter {
    bool operator()(const Pending& a, const Pending& b) const {
      return a.submit_slot > b.submit_slot ||
             (a.submit_slot == b.submit_slot && a.id > b.id);
    }
  };

  void absorb();

  trace::StreamReader* reader_;
  std::unordered_map<std::uint64_t, std::unique_ptr<trace::Job>> live_;
  std::priority_queue<Pending, std::vector<Pending>, PendingAfter> pending_;
  std::size_t peak_live_ = 0;
};

}  // namespace corp::sim
