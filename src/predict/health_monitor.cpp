#include "predict/health_monitor.hpp"

#include <cmath>

#include "obs/metrics.hpp"

namespace corp::predict {

const char* tier_name(DegradationTier tier) {
  switch (tier) {
    case DegradationTier::kPrimary: return "primary";
    case DegradationTier::kFallback: return "fallback";
    case DegradationTier::kReservedOnly: return "reserved-only";
  }
  return "?";
}

bool PredictorHealthMonitor::healthy(double raw_forecast) const {
  return std::isfinite(raw_forecast) &&
         std::abs(raw_forecast) <= kExplosionThreshold;
}

bool PredictorHealthMonitor::observe(double raw_forecast) {
  const bool ok = healthy(raw_forecast);
  window_.push_back(!ok);
  if (!ok) {
    ++window_faults_;
    ++faults_observed_;
    healthy_streak_ = 0;
    obs::count("degrade.faulty_forecasts");
  } else {
    ++healthy_streak_;
  }
  while (window_.size() > kFaultWindow) {
    if (window_.front()) --window_faults_;
    window_.pop_front();
  }
  if (window_faults_ >= kDemoteFaults &&
      tier_ != DegradationTier::kReservedOnly) {
    demote();
  } else if (healthy_streak_ >= kPromoteHealthy &&
             tier_ != DegradationTier::kPrimary) {
    promote();
  }
  return ok;
}

void PredictorHealthMonitor::demote() {
  tier_ = tier_ == DegradationTier::kPrimary ? DegradationTier::kFallback
                                             : DegradationTier::kReservedOnly;
  ++demotions_;
  // Demotion consumes the evidence: a fresh window and streak, so the
  // next rung gets a full observation period before any further move.
  window_.clear();
  window_faults_ = 0;
  healthy_streak_ = 0;
  obs::count("degrade.demotions");
}

void PredictorHealthMonitor::promote() {
  tier_ = tier_ == DegradationTier::kReservedOnly
              ? DegradationTier::kFallback
              : DegradationTier::kPrimary;
  ++promotions_;
  healthy_streak_ = 0;
  obs::count("degrade.promotions");
}

void PredictorHealthMonitor::reset() {
  tier_ = DegradationTier::kPrimary;
  window_.clear();
  window_faults_ = 0;
  healthy_streak_ = 0;
  faults_observed_ = 0;
  demotions_ = 0;
  promotions_ = 0;
}

}  // namespace corp::predict
