// Fluent, validated construction of per-resource prediction stacks.
//
// All stack construction funnels through StackBuilder::build — the lint
// rule CORP-API-001 flags direct CorpStack/RccrStack/CloudScaleStack/
// DraStack constructions anywhere else, so method-specific option tuning
// (trainer schedules, ETS trend policy, HMM windows) lives in exactly one
// place. Defaults come from StackConfig; sim::make_simulation_config
// fills a StackConfig from sim::Params::stack_config().
#pragma once

#include <memory>

#include "predict/stacks.hpp"

namespace corp::predict {

class StackBuilder {
 public:
  explicit StackBuilder(Method method) : method_(method) {}

  /// Replaces the whole StackConfig (knobs set before this call are lost).
  StackBuilder& config(const StackConfig& config) {
    config_ = config;
    return *this;
  }

  StackBuilder& confidence_level(double value) {
    config_.confidence_level = value;
    return *this;
  }
  StackBuilder& error_tolerance(double value) {
    config_.error_tolerance = value;
    return *this;
  }
  StackBuilder& probability_threshold(double value) {
    config_.probability_threshold = value;
    return *this;
  }
  StackBuilder& error_history(std::size_t value) {
    config_.error_history = value;
    return *this;
  }
  StackBuilder& horizon_slots(std::size_t value) {
    config_.horizon_slots = value;
    return *this;
  }

  /// CORP-only ablation switches (ignored by the baselines).
  StackBuilder& hmm_correction(bool enabled) {
    enable_hmm_correction_ = enabled;
    return *this;
  }
  StackBuilder& confidence_bound(bool enabled) {
    enable_confidence_bound_ = enabled;
    return *this;
  }

  Method method() const { return method_; }
  const StackConfig& stack_config() const { return config_; }

  /// Validates every knob (throws std::invalid_argument naming the bad
  /// field) and constructs the stack with the method's paper-default
  /// option tuning.
  std::unique_ptr<PredictionStack> build(util::Rng& rng) const;

 private:
  Method method_;
  StackConfig config_{};
  bool enable_hmm_correction_ = true;
  bool enable_confidence_bound_ = true;
};

}  // namespace corp::predict
