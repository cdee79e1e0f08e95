#include "sim/job_source.hpp"

#include <algorithm>
#include <utility>

namespace corp::sim {

void JobSource::retire(const trace::Job& job) { (void)job; }

TraceJobSource::TraceJobSource(const trace::Trace& trace)
    : trace_(&trace), horizon_(trace.horizon_slots()) {}

void TraceJobSource::poll(std::int64_t slot,
                          std::vector<const trace::Job*>& out) {
  const auto& jobs = trace_->jobs();
  while (next_ < jobs.size() && jobs[next_].submit_slot <= slot) {
    out.push_back(&jobs[next_]);
    ++next_;
  }
}

bool TraceJobSource::exhausted() const {
  return next_ == trace_->jobs().size();
}

std::int64_t TraceJobSource::next_event_slot(std::int64_t after) {
  (void)after;  // the trace is sorted: the next submit slot is exact
  const auto& jobs = trace_->jobs();
  return next_ < jobs.size() ? jobs[next_].submit_slot : kNoEventSlot;
}

StreamingJobSource::StreamingJobSource(trace::StreamReader& reader)
    : reader_(&reader) {}

void StreamingJobSource::absorb() {
  for (trace::Job& job : reader_->take_ready()) {
    auto owned = std::make_unique<trace::Job>(std::move(job));
    pending_.push(Pending{owned->submit_slot, owned->id, owned.get()});
    live_.emplace(owned->id, std::move(owned));
  }
  peak_live_ = std::max(peak_live_, live_.size());
}

void StreamingJobSource::poll(std::int64_t slot,
                              std::vector<const trace::Job*>& out) {
  absorb();
  // A job submitted at `slot` may close (and so emit) arbitrarily later
  // in the file; keep ingesting until the reader guarantees every job
  // with submit_slot <= slot has been emitted.
  while (!reader_->exhausted() && reader_->safe_submit_slot() <= slot) {
    reader_->advance();
    absorb();
  }
  while (!pending_.empty() && pending_.top().submit_slot <= slot) {
    out.push_back(pending_.top().job);
    pending_.pop();
  }
}

std::int64_t StreamingJobSource::next_event_slot(std::int64_t after) {
  absorb();
  // Catch up to `after` exactly as poll(after) would have; in the engine
  // flow poll already ran this slot, so the loop is a no-op there.
  while (!reader_->exhausted() && reader_->safe_submit_slot() <= after) {
    reader_->advance();
    absorb();
  }
  std::int64_t next = pending_.empty() ? kNoEventSlot
                                       : pending_.top().submit_slot;
  if (!reader_->exhausted()) {
    // No jump past the safe bound: the dense path would advance the
    // reader at that slot, and the clock must replay that schedule.
    next = std::min(next, reader_->safe_submit_slot());
  }
  return next;
}

bool StreamingJobSource::exhausted() const {
  return reader_->exhausted() && pending_.empty();
}

std::int64_t StreamingJobSource::horizon_slots() const {
  return reader_->horizon_slots();
}

void StreamingJobSource::retire(const trace::Job& job) {
  live_.erase(job.id);
}

}  // namespace corp::sim
