// Message vocabulary of the PowerAPI pipeline (Figure 2).
//
// Inside one host, sensors, formulas, calibration and the aggregator run as
// one straight-line StageChain (stage_chain.h): nothing between them is a
// message. What crosses the event bus are the chain's edges. Topics (within
// one pipeline's namespace — see pipeline.h):
//   "tick"                MonitorTick     → metrics reporter; published only
//                                           while something subscribes
//   "power:aggregated"    AggregatedPower → reporters, the fleet dimension,
//                                           remote and governor relays
//   "calibration:updated" ModelUpdated    → model-update callbacks; published
//                                           only while something subscribes
//
// In a multi-host fleet each host's pipeline lives under a namespace prefix
// ("h3/power:aggregated"); the fleet dimension adds "fleet/power:aggregated".
// PowerEstimate is the per-formula record of the telemetry wire (see
// net/wire.h); the in-process chain hands estimates to its aggregator as
// plain calls.
#pragma once

#include <cstdint>
#include <string>

#include "util/units.h"

namespace powerapi::api {

/// Scope marker for machine-wide rows.
inline constexpr std::int64_t kMachinePid = -1;

/// Periodic monitoring tick: one pass of a host's stage chain.
///
/// When the pipeline carries an observability bundle, each tick also gets a
/// per-pipeline sequence number and the real (monitor wall clock) time it
/// started. Both flow through every stage into AggregatedPower so trace
/// spans and end-to-end latency can be correlated per tick; both stay 0
/// when observability is off.
struct MonitorTick {
  util::TimestampNs timestamp = 0;
  std::uint64_t seq = 0;
  std::int64_t wall_ns = 0;  ///< obs::wall_now_ns() at publish.
};

/// A formula's power attribution for one target at one timestamp.
struct PowerEstimate {
  util::TimestampNs timestamp = 0;
  std::int64_t pid = kMachinePid;
  std::string formula;            ///< e.g. "powerapi-hpc", "cpu-load", "rapl".
  double watts = 0.0;
  /// Registry version of the model that produced this estimate; 0 for
  /// formulas that do not read a versioned model (meters, datasheets).
  std::uint64_t model_version = 0;

  // Observability correlation (carried forward from the tick).
  std::uint64_t seq = 0;
  std::int64_t tick_wall_ns = 0;
};

/// Aggregated power along a dimension (per PID, per group, or summed per
/// timestamp).
struct AggregatedPower {
  util::TimestampNs timestamp = 0;
  std::int64_t pid = kMachinePid;  ///< kMachinePid for summed rows.
  std::string group;               ///< Set only by group-dimension aggregation.
  std::string formula;
  double watts = 0.0;
  /// Tick sequence id of the estimates this row aggregates (observability
  /// correlation; 0 when off).
  std::uint64_t seq = 0;
  /// Registry version of the model that produced the aggregated estimates;
  /// 0 for formulas that do not read a versioned model (meters, datasheets).
  /// Process-local: the telemetry wire does not carry it.
  std::uint64_t model_version = 0;
};

}  // namespace powerapi::api
