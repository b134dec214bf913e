// Online calibration: the learn→deploy loop inside a running pipeline.
//
// A deliberately distorted model drifts against the PowerSpy ground truth;
// the calibration stage must detect it, refit from paired samples and swap
// the registry — after which the "powerapi-hpc" rows carry a newer model
// version and sit measurably closer to the meter. kManual runs are
// bit-deterministic; the threaded fleet variant is the TSan target.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <vector>

#include "os/system.h"
#include "powerapi/calibration.h"
#include "powerapi/fleet_monitor.h"
#include "powerapi/power_meter.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::api {
namespace {

using util::ms_to_ns;
using util::seconds_to_ns;

/// A model whose structure matches the machine but whose coefficients are
/// scaled by `distortion` — the "shipped profile gone stale" scenario.
model::CpuPowerModel scaled_model(double distortion) {
  std::vector<model::FrequencyFormula> formulas;
  for (const double hz : simcpu::i3_2120().frequencies_hz) {
    model::FrequencyFormula f;
    f.frequency_hz = hz;
    f.events.assign(hpc::paper_events().begin(), hpc::paper_events().end());
    f.coefficients = std::vector<double>(f.events.size(), 0.0);
    const double scale = distortion * hz / 3.3e9;
    f.coefficients[0] = 2.2e-9 * scale;
    f.coefficients[1] = 2.5e-8 * scale;
    f.coefficients[2] = 1.9e-7 * scale;
    formulas.push_back(std::move(f));
  }
  return model::CpuPowerModel(31.48, std::move(formulas));
}

std::unique_ptr<os::System> busy_host() {
  auto host = std::make_unique<os::System>(simcpu::i3_2120());
  host->spawn("app", std::make_unique<workloads::SteadyBehavior>(
                         workloads::mixed_stress(0.7, 8.0 * 1024 * 1024, 0.9), 0));
  host->spawn("mem", std::make_unique<workloads::SteadyBehavior>(
                         workloads::memory_stress(6e6), 0));
  host->run_for(ms_to_ns(10));
  return host;
}

PowerMeter::Config calibrating_config() {
  PowerMeter::Config config;
  config.period = ms_to_ns(100);
  config.with_powerspy = true;
  config.with_calibration = true;
  config.calibration.min_samples_per_fit = 12;
  config.calibration.drift_window = 8;
  config.calibration.drift_threshold_watts = 1.0;
  config.calibration.min_refit_interval = seconds_to_ns(1);
  return config;
}

struct CalibratedRun {
  std::vector<ModelUpdated> swaps;
  std::vector<AggregatedPower> estimates;  ///< Every aggregated row, arrival order.
};

CalibratedRun run_calibrated(double distortion, util::DurationNs duration,
                             PowerMeter::Config config = calibrating_config()) {
  auto host = busy_host();
  PowerMeter meter(*host, scaled_model(distortion), std::move(config));

  CalibratedRun run;
  meter.pipeline().add_model_update_callback(
      [&run](const ModelUpdated& update) { run.swaps.push_back(update); });
  const MemoryReporter& rows = meter.add_memory_reporter();

  meter.run_for(duration);
  meter.finish();
  run.estimates = rows.all();
  return run;
}

TEST(Calibration, DriftTriggersSwapAndReducesError) {
  const auto run = run_calibrated(/*distortion=*/4.0, seconds_to_ns(10));
  ASSERT_FALSE(run.swaps.empty()) << "distorted model never triggered a refit";
  EXPECT_GE(run.swaps.front().version, 2u);
  EXPECT_GT(run.swaps.front().pre_swap_error_watts, 1.0);
  EXPECT_GE(run.swaps.front().samples_used, 12u);
  EXPECT_GE(run.swaps.front().bins_refit, 1u);

  // Pair the regression estimates with the meter per timestamp and compare
  // the error of version-1 (pre-swap) rows against post-swap rows.
  std::map<util::TimestampNs, double> truth;
  for (const auto& e : run.estimates) {
    if (e.formula == "powerspy") truth[e.timestamp] = e.watts;
  }
  double pre_error = 0.0, post_error = 0.0;
  std::size_t pre_n = 0, post_n = 0;
  for (const auto& e : run.estimates) {
    if (e.formula != "powerapi-hpc" || e.pid != kMachinePid) continue;
    const auto it = truth.find(e.timestamp);
    if (it == truth.end()) continue;
    const double error = std::abs(e.watts - it->second);
    if (e.model_version <= 1) {
      pre_error += error;
      ++pre_n;
    } else {
      post_error += error;
      ++post_n;
    }
  }
  ASSERT_GT(pre_n, 0u);
  ASSERT_GT(post_n, 0u);
  EXPECT_LT(post_error / static_cast<double>(post_n),
            pre_error / static_cast<double>(pre_n));
}

TEST(Calibration, EstimatesCarryTheModelVersionThatProducedThem) {
  const auto run = run_calibrated(/*distortion=*/4.0, seconds_to_ns(10));
  ASSERT_FALSE(run.swaps.empty());
  const util::TimestampNs swap_at = run.swaps.front().timestamp;
  for (const auto& e : run.estimates) {
    if (e.formula != "powerapi-hpc") continue;
    // Calibration runs after the formulas within a tick: the swap tick
    // itself still used the old model, the next tick reads the new one.
    if (e.timestamp <= swap_at) {
      EXPECT_EQ(e.model_version, 1u) << "t=" << e.timestamp;
    } else {
      EXPECT_GE(e.model_version, 2u) << "t=" << e.timestamp;
    }
  }
  // Meter pass-through rows never claim a model version.
  for (const auto& e : run.estimates) {
    if (e.formula == "powerspy") EXPECT_EQ(e.model_version, 0u);
  }
}

TEST(Calibration, WarmupGateHoldsBackUnderdeterminedFits) {
  auto config = calibrating_config();
  config.calibration.min_samples_per_fit = 100000;  // Never enough samples.
  const auto run = run_calibrated(/*distortion=*/4.0, seconds_to_ns(5), config);
  EXPECT_TRUE(run.swaps.empty());
  for (const auto& e : run.estimates) {
    if (e.formula == "powerapi-hpc") EXPECT_EQ(e.model_version, 1u);
  }
}

TEST(Calibration, DriftThresholdGatesRefits) {
  // With the tolerance set above any plausible error, even a grossly
  // distorted model is left alone: drift detection, not sample count, is
  // what pulls the trigger.
  auto config = calibrating_config();
  config.calibration.drift_threshold_watts = 1e6;
  const auto run = run_calibrated(/*distortion=*/4.0, seconds_to_ns(5), config);
  EXPECT_TRUE(run.swaps.empty());
  for (const auto& e : run.estimates) {
    if (e.formula == "powerapi-hpc") EXPECT_EQ(e.model_version, 1u);
  }
}

TEST(Calibration, ManualModeIsDeterministicAcrossRuns) {
  const auto first = run_calibrated(/*distortion=*/4.0, seconds_to_ns(8));
  const auto second = run_calibrated(/*distortion=*/4.0, seconds_to_ns(8));
  ASSERT_EQ(first.swaps.size(), second.swaps.size());
  for (std::size_t i = 0; i < first.swaps.size(); ++i) {
    EXPECT_EQ(first.swaps[i].timestamp, second.swaps[i].timestamp);
    EXPECT_EQ(first.swaps[i].version, second.swaps[i].version);
    EXPECT_DOUBLE_EQ(first.swaps[i].pre_swap_error_watts,
                     second.swaps[i].pre_swap_error_watts);
  }
  ASSERT_EQ(first.estimates.size(), second.estimates.size());
  for (std::size_t i = 0; i < first.estimates.size(); ++i) {
    EXPECT_EQ(first.estimates[i].timestamp, second.estimates[i].timestamp);
    EXPECT_EQ(first.estimates[i].model_version, second.estimates[i].model_version);
    EXPECT_DOUBLE_EQ(first.estimates[i].watts, second.estimates[i].watts);
  }
}

TEST(Calibration, ThreadedFleetCalibratesEveryHostIndependently) {
  // The TSan target: registry swaps race against formula reads across a
  // work-stealing dispatcher. Each host owns a private registry (spec.model
  // is wrapped per pipeline), so versions advance per host.
  constexpr std::size_t kHosts = 4;
  std::vector<std::unique_ptr<os::System>> hosts;
  for (std::size_t i = 0; i < kHosts; ++i) hosts.push_back(busy_host());

  FleetMonitor::Options options;
  options.mode = actors::ActorSystem::Mode::kThreaded;
  options.workers = 4;
  FleetMonitor fleet(options);
  for (auto& host : hosts) {
    PipelineSpec spec = calibrating_config();
    spec.model = scaled_model(4.0);
    fleet.add_host(*host, spec);
  }
  fleet.run_for(seconds_to_ns(8));
  fleet.finish();

  EXPECT_EQ(fleet.actor_system().failures(), 0u);
  for (std::size_t i = 0; i < kHosts; ++i) {
    ASSERT_NE(fleet.pipeline(i).registry(), nullptr);
    EXPECT_GE(fleet.pipeline(i).registry()->version(), 2u)
        << "host " << i << " never calibrated";
  }
}

TEST(Calibration, RequiresAGroundTruthMeter) {
  auto host = busy_host();
  PowerMeter::Config config = calibrating_config();
  config.with_powerspy = false;
  config.with_rapl = false;
  EXPECT_THROW(PowerMeter(*host, scaled_model(1.0), config), std::invalid_argument);
}

TEST(Calibration, CallbackRequiresCalibrationEnabled) {
  auto host = busy_host();
  PowerMeter meter(*host, scaled_model(1.0));  // Default config: no calibration.
  EXPECT_THROW(meter.pipeline().add_model_update_callback([](const ModelUpdated&) {}),
               std::logic_error);
}

TEST(Calibration, ColdStartLearnsFromNothing) {
  // No shipped model at all: the pipeline bootstraps an empty registry and
  // estimates the idle floor (0 W) until calibration fills in formulas.
  auto host = busy_host();
  PowerMeter::Config config = calibrating_config();
  config.calibration.drift_threshold_watts = 0.5;
  PowerMeter meter(*host, model::CpuPowerModel(), std::move(config));
  std::vector<ModelUpdated> swaps;
  meter.pipeline().add_model_update_callback(
      [&swaps](const ModelUpdated& update) { swaps.push_back(update); });
  meter.run_for(seconds_to_ns(6));
  meter.finish();
  EXPECT_EQ(meter.actor_system().failures(), 0u);
  ASSERT_FALSE(swaps.empty()) << "cold start never learned a model";
  ASSERT_NE(meter.pipeline().registry(), nullptr);
  EXPECT_GE(meter.pipeline().registry()->version(), 2u);
}

}  // namespace
}  // namespace powerapi::api
