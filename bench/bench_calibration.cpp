// Experiment O2 — online calibration overhead. The model lifecycle claims
// the in-pipeline learn→deploy loop is cheap enough to leave on: this
// google-benchmark binary measures host monitoring throughput (host-ticks/s)
// with calibration off vs on — same host, same workload, same meters — in
// both dispatcher modes, plus the cost of one registry swap cycle. Emits
// BENCH_calibration.json for the results pipeline.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "fixtures.h"
#include "gbench_json.h"
#include "model/model_registry.h"
#include "model/power_model.h"
#include "os/system.h"
#include "powerapi/power_meter.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

using namespace powerapi;

namespace {

/// The paper's counters with frequency-scaled coefficients, off by
/// `distortion` from the host's truth.
model::CpuPowerModel seed_model(double distortion) {
  return benchx::ladder_model(
      31.48, {hpc::paper_events().begin(), hpc::paper_events().end()},
      [distortion](double hz) {
        const double scale = distortion * hz / 3.3e9;
        return std::vector<double>{2.2e-9 * scale, 2.5e-8 * scale, 1.9e-7 * scale};
      });
}

std::unique_ptr<os::System> loaded_host() {
  return benchx::loaded_host(4, workloads::mixed_stress(0.6, 6.0 * 1024 * 1024, 0.8));
}

/// One monitoring tick of a single-host pipeline, calibration on or off.
/// The distorted model keeps the drift trigger firing, so the "on" variant
/// pays for pairing, accumulation AND periodic refits — the worst case.
void meter_tick_bench(benchmark::State& state, bool with_calibration) {
  auto host = loaded_host();
  api::PowerMeter::Config config;
  config.period = util::ms_to_ns(1);
  config.with_powerspy = true;
  config.with_calibration = with_calibration;
  config.calibration.drift_window = 8;
  config.calibration.drift_threshold_watts = 1.0;
  config.calibration.min_samples_per_fit = 12;
  config.calibration.min_refit_interval = util::ms_to_ns(50);
  api::PowerMeter meter(*host, seed_model(with_calibration ? 4.0 : 1.0),
                        std::move(config));

  for (auto _ : state) {
    meter.run_for(util::ms_to_ns(1));
  }
  state.SetItemsProcessed(state.iterations());
  if (with_calibration) {
    state.counters["model_version"] =
        static_cast<double>(meter.pipeline().registry()->version());
  }
}

void BM_MeterTick_CalibrationOff(benchmark::State& state) {
  meter_tick_bench(state, /*with_calibration=*/false);
}
BENCHMARK(BM_MeterTick_CalibrationOff)->Unit(benchmark::kMicrosecond);

void BM_MeterTick_CalibrationOn(benchmark::State& state) {
  meter_tick_bench(state, /*with_calibration=*/true);
}
BENCHMARK(BM_MeterTick_CalibrationOn)->Unit(benchmark::kMicrosecond);

/// The swap primitive itself: publish a new snapshot into a registry that a
/// reader pins per estimate — the atomic shared_ptr exchange every refit pays.
void BM_RegistryPublish(benchmark::State& state) {
  model::ModelRegistry registry(seed_model(1.0));
  const model::CpuPowerModel next = seed_model(1.1);
  for (auto _ : state) {
    registry.publish(next);
    benchmark::DoNotOptimize(registry.current());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryPublish);

/// Reader side: pinning the current snapshot, as a pipeline does once per
/// round for its regression formula.
void BM_RegistryRead(benchmark::State& state) {
  model::ModelRegistry registry(seed_model(1.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.current());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryRead);

}  // namespace

int main(int argc, char** argv) {
  return powerapi::benchx::run_benchmarks_with_json(argc, argv, "calibration");
}
