// Lightweight observability: a process-wide MetricRegistry of counters,
// gauges, fixed-bucket histograms (with interpolated quantile extraction)
// and named phase timers, designed so the instrumented hot paths cost one
// relaxed atomic load when collection is disabled.
//
// Concurrency contract: every mutation path (Counter::add, Gauge::set,
// Histogram::observe, PhaseStat::add) is lock-free after the first
// name lookup, so replicas fanned out over util::ThreadPool can share the
// global registry. Name lookups take a mutex; hot loops should hoist the
// handle (`Counter& c = registry().counter("x")`) outside the loop.
//
// Determinism contract: the registry only *observes* — it never feeds
// back into simulation state or RNG streams — so enabling metrics must
// not perturb any experiment output (tests/obs/determinism_test.cpp pins
// this down).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace corp::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins scalar (losses, log-likelihoods, rates).
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Aggregated wall time of one named phase: call count, total and max
/// milliseconds. Fed by ScopedTimer; cheap enough to leave in hot paths.
class PhaseStat {
 public:
  void add(double elapsed_ms);
  std::uint64_t calls() const {
    return calls_.load(std::memory_order_relaxed);
  }
  double total_ms() const {
    return total_ms_.load(std::memory_order_relaxed);
  }
  double max_ms() const { return max_ms_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<double> total_ms_{0.0};
  std::atomic<double> max_ms_{0.0};
};

/// Fixed-bucket histogram: counts per upper-bound bucket plus running
/// count/sum/min/max, all atomics. Bounds are fixed at construction (the
/// registry ignores bounds on repeat lookups of the same name).
class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing; an implicit +inf
  /// overflow bucket is appended. Empty = default_time_bounds_ms().
  explicit Histogram(std::vector<double> upper_bounds = {});

  void observe(double value);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Smallest/largest observed value; 0 when count() == 0.
  double min() const;
  double max() const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts, bounds().size() + 1 entries (last = overflow).
  std::vector<std::uint64_t> bucket_counts() const;

  /// Interpolated quantile (q in [0, 1]) from the bucket counts, clamped
  /// to the observed [min, max] range. 0 when empty.
  double quantile(double q) const;

  void reset();

  /// Exponential millisecond grid, 10 us .. 100 s, for phase durations.
  static std::vector<double> default_time_bounds_ms();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Point-in-time copy of everything a registry holds, safe to serialize
/// while the run continues.
struct PhaseSnapshot {
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
};

struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::vector<double> bounds;            // upper edges, +inf implicit
  std::vector<std::uint64_t> cumulative;  // monotonic, last == count
};

struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, PhaseSnapshot> phases;
  std::map<std::string, HistogramSnapshot> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && phases.empty() &&
           histograms.empty();
  }
};

/// Named metric store. Handles returned by the lookup methods stay valid
/// for the registry's lifetime (metrics are never erased, only reset).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` only applies on first creation of `name`.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});
  PhaseStat& phase(const std::string& name);

  /// Collection switch: instrumentation helpers and ScopedTimer become
  /// no-ops when disabled. Direct handle mutation is never gated.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Zeroes every metric's value; names and handles survive.
  void reset();

  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<PhaseStat>> phases_;
  std::atomic<bool> enabled_{false};
};

/// The process-wide registry the instrumented libraries report into.
MetricRegistry& registry();

/// Convenience switches for the global registry.
inline bool enabled() { return registry().enabled(); }
inline void set_enabled(bool on) { registry().set_enabled(on); }

/// Gauge writes held back for later publication. Gauges are
/// last-writer-wins, so tasks that run concurrently would leave whichever
/// write the schedule put last. Each task instead captures its writes
/// into its own log (ScopedGaugeCapture) and the caller publishes the
/// logs after the join in task order, which leaves every gauge as a
/// serial run in that order would.
class GaugeLog {
 public:
  void record(const char* name, double value) {
    writes_.emplace_back(name, value);
  }
  /// Replays the captured writes into `reg`, oldest first.
  void publish(MetricRegistry& reg) const;

 private:
  std::vector<std::pair<std::string, double>> writes_;
};

/// While alive, routes the current thread's set_gauge() calls into `log`
/// instead of the registry (restoring any outer capture on destruction).
class ScopedGaugeCapture {
 public:
  explicit ScopedGaugeCapture(GaugeLog& log);
  ~ScopedGaugeCapture();
  ScopedGaugeCapture(const ScopedGaugeCapture&) = delete;
  ScopedGaugeCapture& operator=(const ScopedGaugeCapture&) = delete;

 private:
  GaugeLog* previous_;
};

/// The current thread's active capture, or null.
GaugeLog* active_gauge_capture();

/// Gated helpers: one relaxed load when disabled, name lookup + atomic
/// bump when enabled. Hot loops should hoist handles instead.
inline void count(const char* name, std::uint64_t delta = 1) {
  MetricRegistry& reg = registry();
  if (reg.enabled()) reg.counter(name).add(delta);
}
/// Sets a gauge, or records the write in the thread's ScopedGaugeCapture.
inline void set_gauge(const char* name, double value) {
  MetricRegistry& reg = registry();
  if (!reg.enabled()) return;
  if (GaugeLog* log = active_gauge_capture()) {
    log->record(name, value);
  } else {
    reg.gauge(name).set(value);
  }
}
inline void observe(const char* name, double value) {
  MetricRegistry& reg = registry();
  if (reg.enabled()) reg.histogram(name).observe(value);
}

/// RAII phase timer: records wall milliseconds into the named PhaseStat
/// on destruction. When the registry is disabled at construction the
/// timer is inert (no clock call, no lookup).
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* phase_name,
                       MetricRegistry& reg = registry())
      : phase_(reg.enabled() ? &reg.phase(phase_name) : nullptr) {
    if (phase_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (phase_ != nullptr) {
      const std::chrono::duration<double, std::milli> wall =
          std::chrono::steady_clock::now() - start_;
      phase_->add(wall.count());
    }
  }

 private:
  PhaseStat* phase_ = nullptr;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace corp::obs
