// Shared fixtures of the google-benchmark binaries: per-frequency power
// models over the i3-2120 ladder and simulated hosts already running a
// steady load.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "hpc/events.h"
#include "model/power_model.h"
#include "os/system.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::benchx {

/// A per-frequency model over the i3-2120 ladder: `coefficients(hz)` gives
/// the formula's coefficients for `events` at frequency `hz`.
inline model::CpuPowerModel ladder_model(
    double idle_watts, const std::vector<hpc::EventId>& events,
    const std::function<std::vector<double>(double hz)>& coefficients) {
  std::vector<model::FrequencyFormula> formulas;
  for (const double hz : simcpu::i3_2120().frequencies_hz) {
    model::FrequencyFormula f;
    f.frequency_hz = hz;
    f.events = events;
    f.coefficients = coefficients(hz);
    formulas.push_back(std::move(f));
  }
  return model::CpuPowerModel(idle_watts, std::move(formulas));
}

/// The paper's three generic counters with frequency-flat coefficients: the
/// model of the fleet-tick and overhead fixtures.
inline model::CpuPowerModel tiny_model() {
  return ladder_model(
      31.48,
      {hpc::EventId::kInstructions, hpc::EventId::kCacheReferences,
       hpc::EventId::kCacheMisses},
      [](double) { return std::vector<double>{2.2e-9, 2.5e-8, 1.9e-7}; });
}

/// An i3-2120 host running `processes` copies of `profile`, warmed up for
/// 10 ms so the first measured tick already completes a window.
inline std::unique_ptr<os::System> loaded_host(
    std::size_t processes = 4,
    const simcpu::ExecProfile& profile =
        workloads::mixed_stress(0.5, 4.0 * 1024 * 1024, 0.8)) {
  auto host = std::make_unique<os::System>(simcpu::i3_2120());
  for (std::size_t i = 0; i < processes; ++i) {
    host->spawn("app", std::make_unique<workloads::SteadyBehavior>(profile, /*duration=*/0));
  }
  host->run_for(util::ms_to_ns(10));
  return host;
}

}  // namespace powerapi::benchx
