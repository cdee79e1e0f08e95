#include "sim/params.hpp"

namespace corp::sim {

predict::StackConfig Params::stack_config() const {
  predict::StackConfig config;
  config.confidence_level = kConfidenceMax;  // most conservative default
  config.error_tolerance = kErrorTolerance;
  config.probability_threshold = kProbabilityThreshold;
  config.horizon_slots = window_slots;
  return config;
}

}  // namespace corp::sim
