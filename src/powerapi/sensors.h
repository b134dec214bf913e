// Sensor stages: turn one monitoring tick into readings.
//
// Sensors are plain objects owned by a host's StageChain (see
// stage_chain.h) and called in order once per tick; nothing queues between
// stages, so every sensor reuses its output buffers across ticks. Window
// bookkeeping lives in SamplingWindow instances (or, for the HPC sensor,
// row-parallel arrays with the same semantics) rather than hand-rolled
// primed/last fields.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "hpc/backend.h"
#include "model/feature_matrix.h"
#include "os/monitorable_host.h"
#include "powerapi/sampling_window.h"
#include "powermeter/rapl.h"

namespace powerapi::api {

/// Reads HPC counters for each target plus the machine scope in one batched
/// lane gather and converts the per-window deltas into rates lane-by-lane.
/// observe() returns the completed rows as one lane-major matrix (row 0 =
/// machine scope when its window completed, then the targets in monitoring
/// order); rows still priming, dead or stale are left out.
///
/// Window bookkeeping is kept per row as parallel arrays instead of a
/// pid→SamplingWindow map: prime/stale/regression semantics are identical
/// to SamplingWindow's (documented per branch in the implementation), and a
/// target-set change re-aligns the previous-snapshot lanes by pid so
/// surviving targets keep their windows.
///
/// `host` is optional: when present (simulation) it supplies frequency,
/// utilization and — when the backend's batch read does not — the SMT
/// co-residency and cpu-time side lanes; a live deployment passes nullptr
/// and those fields default.
class HpcSensor {
 public:
  HpcSensor(hpc::CounterBackend& backend, const os::MonitorableHost* host)
      : backend_(&backend), host_(host) {}

  /// Observes the targets (the machine scope is always observed) at `now`.
  /// Returns the completed rows, or nullptr when none completed. The matrix
  /// is reused: it stays valid until the next observe().
  const model::FeatureMatrix* observe(util::TimestampNs now,
                                      std::span<const std::int64_t> targets);

 private:
  void realign_rows(std::span<const std::int64_t> targets);

  hpc::CounterBackend* backend_;
  const os::MonitorableHost* host_;

  // Row-parallel window state. pids_[0] is always kMachinePid.
  std::vector<std::int64_t> pids_;
  simcpu::CounterLanes cur_;
  simcpu::CounterLanes prev_;
  std::vector<util::TimestampNs> last_time_;
  std::vector<std::uint8_t> primed_;
  // Per-tick scratch.
  std::vector<double> window_seconds_;
  std::vector<std::uint8_t> completed_;
  std::vector<std::int64_t> realign_pids_;
  simcpu::CounterLanes realign_lanes_;
  std::vector<util::TimestampNs> realign_last_time_;
  std::vector<std::uint8_t> realign_primed_;
  model::FeatureMatrix extract_scratch_;
  model::FeatureMatrix out_;
};

/// Reads the emulated RAPL MSR and differentiates energy into package watts.
/// The raw MSR value is a wrapping 32-bit counter, so a decrease is a
/// wraparound, not a reset — energy_between unwraps it and the window never
/// re-primes.
class RaplSensor {
 public:
  explicit RaplSensor(std::shared_ptr<powermeter::RaplMsr> msr) : msr_(std::move(msr)) {}

  /// Watts over the window ending at `now`; nullopt while priming, on a
  /// stale timestamp or when the MSR is unavailable.
  std::optional<double> observe(util::TimestampNs now);

 private:
  std::shared_ptr<powermeter::RaplMsr> msr_;
  SamplingWindow<std::uint32_t> window_;
};

/// Machine-scope IO rates over one window (the disk/network dimension of
/// the paper's component splitting).
struct IoRates {
  double disk_iops = 0.0;
  double disk_bytes_per_sec = 0.0;
  double net_bytes_per_sec = 0.0;
};

/// Differences the host's iostat-style IO counters into machine-scope rates.
/// Reads nothing when the host has no peripherals.
class IoSensor {
 public:
  explicit IoSensor(const os::MonitorableHost& host) : host_(&host) {}

  /// Rates over the window ending at `now`; nullopt while priming, on a
  /// stale timestamp, after a counter regression, or without peripherals.
  std::optional<IoRates> observe(util::TimestampNs now);

 private:
  const os::MonitorableHost* host_;
  SamplingWindow<os::IoTotals> window_;
};

}  // namespace powerapi::api
