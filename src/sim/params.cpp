#include "sim/params.hpp"

#include "sim/replication.hpp"

namespace corp::sim {

predict::StackConfig Params::stack_config() const {
  predict::StackConfig config;
  config.confidence_level = confidence_max;  // most conservative default
  config.error_tolerance = error_tolerance;
  config.probability_threshold = probability_threshold;
  config.horizon_slots = window_slots;
  return config;
}

ReplicationConfig Params::replication_config() const {
  ReplicationConfig config;
  config.replications = replications;
  config.confidence = replication_confidence;
  config.threads = threads;
  return config;
}

}  // namespace corp::sim
