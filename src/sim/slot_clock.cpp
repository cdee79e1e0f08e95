#include "sim/slot_clock.hpp"

#include <stdexcept>
#include <string>

namespace corp::sim {

SlotClockMode parse_slot_clock(std::string_view name) {
  if (name == "dense") return SlotClockMode::kDense;
  if (name == "event") return SlotClockMode::kEvent;
  throw std::invalid_argument("unknown slot clock '" + std::string(name) +
                              "' (expected dense|event)");
}

PredictCadence parse_predict_cadence(std::string_view name) {
  if (name == "slot") return PredictCadence::kEverySlot;
  if (name == "window") return PredictCadence::kWindow;
  throw std::invalid_argument("unknown prediction cadence '" +
                              std::string(name) +
                              "' (expected slot|window)");
}

std::string_view to_string(SlotClockMode mode) {
  return mode == SlotClockMode::kDense ? "dense" : "event";
}

}  // namespace corp::sim
