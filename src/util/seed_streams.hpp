// Central registry of every util::derive_seed stream tag in the process.
//
// Determinism contract: every random stream hanging off one experiment
// seed gets its own tag here, so streams can never alias each other (or
// a neighbouring sweep seed's streams, thanks to derive_seed's double
// avalanche). Scattering tags across translation units is how two call
// sites end up passing the same literal without either knowing about the
// other — exactly the collision class PR 1 fixed. The static_assert
// below makes that collision a compile error instead.
//
// Conventions:
//   * small integers for the classic experiment streams (values are
//     load-bearing: changing any value changes every derived seed and
//     therefore every figure — treat them as frozen),
//   * ASCII mnemonics for subsystem streams ("REPL", "FALT", ...).
//
// The determinism analyzer (CORP-SEED-001, tools/analyze/corp_analyze.py)
// rejects bare literal stream tags at derive_seed call sites; add new
// tags here and pass them by name.
#pragma once

#include <cstddef>
#include <cstdint>

namespace corp::util::seed_stream {

// --- experiment streams (sim/experiment.cpp) ---------------------------
/// Shared per-experiment training trace.
inline constexpr std::uint64_t kTraining = 1;
/// Evaluation trace of one sweep point (substream: num_jobs).
inline constexpr std::uint64_t kEvaluation = 2;
/// One method's simulation — scheduler tie-breaks etc. (substream:
/// method index).
inline constexpr std::uint64_t kSimulation = 3;

// --- subsystem streams -------------------------------------------------
/// Replica fan-out (sim/replication.cpp; substream: replica index).
inline constexpr std::uint64_t kReplica = 0x5245504cULL;  // "REPL"
/// Root of the fault-injection oracle (sim/simulation.cpp).
inline constexpr std::uint64_t kFault = 0x46414C54ULL;  // "FALT"
/// Per-VM crash/recovery schedules (fault.cpp; substream: vm index).
inline constexpr std::uint64_t kFaultVm = 0x564d4352ULL;  // "VMCR"
/// Bursty telemetry gaps (fault.cpp; keyed by job id and slot).
inline constexpr std::uint64_t kFaultTelemetryGap = 0x54474150ULL;  // "TGAP"
/// Demand-spike stragglers (fault.cpp; keyed by job id).
inline constexpr std::uint64_t kFaultStraggler = 0x53545247ULL;  // "STRG"
/// Poisoned-forecast faults (fault.cpp; keyed by job id and slot).
inline constexpr std::uint64_t kFaultPredictor = 0x50464c54ULL;  // "PFLT"
/// Streaming trace ingest: per-task resample jitter (trace/stream_reader
/// .cpp; substream: task key + segment), so the fine-grained series a task
/// gets is independent of chunk size, batch size and worker count.
inline constexpr std::uint64_t kTraceIngest = 0x54494e47ULL;  // "TING"
/// Trust-scaled CORP placement tie-breaking (sched/corp_scheduler.cpp,
/// method pred-aware): candidate selection among exactly-tied
/// most-matched volumes at interior trust values. Dedicated stream so the
/// λ∈{0,1} endpoints stay bit-identical to the reference placements,
/// which draw nothing.
inline constexpr std::uint64_t kTrustAdaptation = 0x54525354ULL;  // "TRST"

namespace detail {
inline constexpr std::uint64_t kAll[] = {
    kTraining,  kEvaluation,       kSimulation,     kReplica,
    kFault,     kFaultVm,          kFaultTelemetryGap,
    kFaultStraggler, kFaultPredictor, kTraceIngest,  kTrustAdaptation,
};

constexpr bool all_distinct() {
  constexpr std::size_t n = sizeof(kAll) / sizeof(kAll[0]);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (kAll[i] == kAll[j]) return false;
    }
  }
  return true;
}
}  // namespace detail

static_assert(detail::all_distinct(),
              "seed stream tags must be pairwise distinct — a duplicate "
              "tag silently aliases two random streams");

}  // namespace corp::util::seed_stream
