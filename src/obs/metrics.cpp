#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace corp::obs {

namespace {

/// fetch-max for atomic<double> via CAS (no std::atomic<double>::fetch_max).
void atomic_max(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (current < value &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (current > value &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace

void PhaseStat::add(double elapsed_ms) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  total_ms_.fetch_add(elapsed_ms, std::memory_order_relaxed);
  atomic_max(max_ms_, elapsed_ms);
}

void PhaseStat::reset() {
  calls_.store(0, std::memory_order_relaxed);
  total_ms_.store(0.0, std::memory_order_relaxed);
  max_ms_.store(0.0, std::memory_order_relaxed);
}

std::vector<double> Histogram::default_time_bounds_ms() {
  // 10 us .. 100 s in a 1-2.5-5 decade ladder: wide enough for a single
  // SGD step at the bottom and a full replication harness at the top.
  return {0.01, 0.025, 0.05, 0.1,  0.25,  0.5,  1.0,   2.5,   5.0,
          10.0, 25.0,  50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
          10000.0, 25000.0, 50000.0, 100000.0};
}

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(upper_bounds.empty() ? default_time_bounds_ms()
                                   : std::move(upper_bounds)),
      buckets_(bounds_.size() + 1) {
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument(
          "Histogram: bounds must be strictly increasing");
    }
  }
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  const auto bucket = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  atomic_min(min_, value);
  atomic_max(max_, value);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> counts(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(n);
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const std::uint64_t next = cumulative + counts[b];
    if (static_cast<double>(next) >= rank && counts[b] > 0) {
      // Linear interpolation within the bucket, clamped to the observed
      // range so the overflow/underflow buckets cannot extrapolate.
      const double lo = b == 0 ? min() : bounds_[b - 1];
      const double hi = b < bounds_.size() ? bounds_[b] : max();
      const double within =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(counts[b]);
      const double value = lo + (hi - lo) * within;
      return std::clamp(value, min(), max());
    }
    cumulative = next;
  }
  return max();
}

void Histogram::reset() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

Counter& MetricRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricRegistry::histogram(const std::string& name,
                                     std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(bounds));
  return *slot;
}

PhaseStat& MetricRegistry::phase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = phases_[name];
  if (!slot) slot = std::make_unique<PhaseStat>();
  return *slot;
}

void MetricRegistry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
  for (auto& [name, phase] : phases_) phase->reset();
}

MetricsSnapshot MetricRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot snap;
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->value();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->value();
  }
  for (const auto& [name, phase] : phases_) {
    PhaseSnapshot p;
    p.calls = phase->calls();
    p.total_ms = phase->total_ms();
    p.max_ms = phase->max_ms();
    p.mean_ms =
        p.calls > 0 ? p.total_ms / static_cast<double>(p.calls) : 0.0;
    snap.phases[name] = p;
  }
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.count = histogram->count();
    h.sum = histogram->sum();
    h.min = histogram->min();
    h.max = histogram->max();
    h.p50 = histogram->quantile(0.50);
    h.p90 = histogram->quantile(0.90);
    h.p99 = histogram->quantile(0.99);
    h.bounds = histogram->bounds();
    const std::vector<std::uint64_t> counts = histogram->bucket_counts();
    h.cumulative.reserve(counts.size());
    std::uint64_t running = 0;
    for (std::uint64_t c : counts) {
      running += c;
      h.cumulative.push_back(running);
    }
    snap.histograms[name] = std::move(h);
  }
  return snap;
}

MetricRegistry& registry() {
  static MetricRegistry instance;
  return instance;
}

namespace {
thread_local GaugeLog* t_gauge_capture = nullptr;
}  // namespace

void GaugeLog::publish(MetricRegistry& reg) const {
  for (const auto& [name, value] : writes_) reg.gauge(name).set(value);
}

ScopedGaugeCapture::ScopedGaugeCapture(GaugeLog& log)
    : previous_(t_gauge_capture) {
  t_gauge_capture = &log;
}

ScopedGaugeCapture::~ScopedGaugeCapture() { t_gauge_capture = previous_; }

GaugeLog* active_gauge_capture() { return t_gauge_capture; }

}  // namespace corp::obs
