// Experiment O1 — monitoring overhead. The paper requires "an efficient,
// scalable and non-invasive tool"; this google-benchmark binary measures the
// cost of one monitoring tick through the full actor pipeline (sensor read →
// formula → aggregator → reporter) as the number of monitored processes
// grows, plus the cost of the building blocks (backend read, model
// evaluation).
#include <benchmark/benchmark.h>

#include <memory>

#include "fixtures.h"
#include "gbench_json.h"
#include "hpc/sim_backend.h"
#include "model/power_model.h"
#include "os/system.h"
#include "powerapi/power_meter.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

using namespace powerapi;

namespace {

using benchx::tiny_model;

void BM_BackendRead(benchmark::State& state) {
  auto system = benchx::loaded_host(4);
  hpc::SimBackend backend(*system);
  for (auto _ : state) {
    auto values = backend.read(hpc::Target::machine());
    benchmark::DoNotOptimize(values);
  }
}
BENCHMARK(BM_BackendRead);

void BM_ModelEvaluate(benchmark::State& state) {
  const model::CpuPowerModel model = tiny_model();
  model::EventRates rates{};
  model::set_rate(rates, hpc::EventId::kInstructions, 3.1e9);
  model::set_rate(rates, hpc::EventId::kCacheReferences, 2.4e8);
  model::set_rate(rates, hpc::EventId::kCacheMisses, 1.7e7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.estimate_machine(3.3e9, rates));
  }
}
BENCHMARK(BM_ModelEvaluate);

/// Full pipeline cost per monitoring tick, varying monitored process count.
/// The simulated OS advances the minimum possible (1 tick) between monitor
/// ticks so the measurement is dominated by the pipeline, not the simulator.
void BM_PipelineTick(benchmark::State& state) {
  const auto processes = static_cast<std::size_t>(state.range(0));
  auto system = benchx::loaded_host(processes);
  api::PowerMeter::Config config;
  config.period = util::ms_to_ns(1);
  config.with_powerspy = false;  // Meter off: measure the software pipeline.
  api::PowerMeter meter(*system, tiny_model(), config);
  meter.monitor_all();

  for (auto _ : state) {
    meter.run_for(util::ms_to_ns(1));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["monitored"] = static_cast<double>(processes);
}
BENCHMARK(BM_PipelineTick)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

}  // namespace

int main(int argc, char** argv) {
  return powerapi::benchx::run_benchmarks_with_json(argc, argv, "overhead");
}
