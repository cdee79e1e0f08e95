// Time-base enums of the slot loop and their CLI parsers.
//
// The dense reference clock ticks every 10-second slot. The event clock
// (ShardEngine's clock-advance phase) jumps directly to the next slot
// where anything can change, skipping spans where the engine provably
// does nothing: no queued work (so no placement attempt, no RNG draw, no
// trust sample), no running jobs (so no execution accounting, no
// telemetry append, no prediction call, no completion). On such a span
// every per-slot phase is a no-op — SlotMetricsAccumulator::observe_slot
// early-returns on an empty sample set before touching its slot count —
// so skipping is bit-identical to ticking by construction;
// tests/sim/event_clock_test.cpp pins it under fault injection for every
// shard/thread count.
//
// A skip lands on the earliest of: the next arrival
// (JobSource::next_event_slot), the next crash-retry release, the next
// fault-plan transition (FaultInjector::next_transition_slot — the clock
// always lands ON a transition slot, never jumps one), and the grace
// cutoff once the source is exhausted. Lease expiry/completion and
// prediction-refresh deadlines need no entries: both only exist while a
// job runs, and the clock never skips while any job runs.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>

namespace corp::sim {

/// Sentinel for "no pending event of this class".
inline constexpr std::int64_t kNoEventSlot =
    std::numeric_limits<std::int64_t>::max();

enum class SlotClockMode : std::uint8_t {
  kDense = 0,  ///< Tick every slot — the differential reference.
  kEvent = 1,  ///< Jump empty spans to the next event slot.
};

/// Forecast refresh cadence of the opportunistic methods' slot loop.
enum class PredictCadence : std::uint8_t {
  /// Re-run the batched stack for every reserved tenant each slot (the
  /// paper harness's rolled-forward per-window forecast; the default —
  /// every historical pinned number was produced under it).
  kEverySlot = 0,
  /// Refresh a tenant only when its window watermark moved (history
  /// length crossed a multiple of L), its Eq. 20 pledge just resolved,
  /// or the predictor health tier changed since its last forecast —
  /// amortizing prediction across unchanged telemetry windows.
  kWindow = 1,
};

/// CLI helpers ("dense" | "event", "slot" | "window"); throw
/// std::invalid_argument on anything else.
SlotClockMode parse_slot_clock(std::string_view name);
PredictCadence parse_predict_cadence(std::string_view name);
std::string_view to_string(SlotClockMode mode);

}  // namespace corp::sim
