// Unit tests for the pipeline stages in isolation: sensors driven by
// hand-picked tick timestamps, formulas fed synthetic feature rows, and the
// aggregator's watermark/flush semantics — complementing the end-to-end
// PowerMeter tests with stage-level checks.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hpc/sim_backend.h"
#include "os/system.h"
#include "powerapi/aggregators.h"
#include "powerapi/formulas.h"
#include "powerapi/sensors.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::api {
namespace {

using util::ms_to_ns;

// --- HpcSensor ---

TEST(HpcSensor, FirstTickPrimesSecondTickReports) {
  os::System system(simcpu::i3_2120());
  system.spawn("app", std::make_unique<workloads::SteadyBehavior>(
                          workloads::cpu_stress(), 0));
  hpc::SimBackend backend(system);
  HpcSensor sensor(backend, &system);

  system.run_for(ms_to_ns(10));
  EXPECT_EQ(sensor.observe(system.now_ns(), {}), nullptr);  // Priming tick.

  system.run_for(ms_to_ns(10));
  const model::FeatureMatrix* rows = sensor.observe(system.now_ns(), {});
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->rows(), 1u);  // Machine scope only.
  EXPECT_EQ(rows->pid(0), kMachinePid);
  EXPECT_NEAR(rows->window_seconds(0), 0.010, 1e-9);
  const model::FeatureVector r = rows->row(0);
  EXPECT_GT(model::rate_of(r.rates, hpc::EventId::kInstructions), 0.0);
  EXPECT_GT(r.utilization, 0.0);
  EXPECT_DOUBLE_EQ(r.frequency_hz, 3.3e9);
}

TEST(HpcSensor, ReportsEachMonitoredPidAndForgetsDeadOnes) {
  os::System system(simcpu::i3_2120());
  const os::Pid pid = system.spawn(
      "app", std::make_unique<workloads::SteadyBehavior>(workloads::cpu_stress(), 0));
  hpc::SimBackend backend(system);
  HpcSensor sensor(backend, &system);
  std::vector<std::int64_t> targets = {pid};

  std::vector<std::int64_t> seen;
  for (int i = 0; i < 3; ++i) {
    system.run_for(ms_to_ns(10));
    if (const auto* rows = sensor.observe(system.now_ns(), targets)) {
      seen.insert(seen.end(), rows->pids(), rows->pids() + rows->rows());
    }
  }
  // 2 reporting ticks x (machine + pid).
  EXPECT_EQ(seen, (std::vector<std::int64_t>{kMachinePid, pid, kMachinePid, pid}));

  // Kill the process and drop it from the target list (as monitor_all's
  // dynamic provider does): the sensor must keep going.
  system.kill(pid);
  targets.clear();
  system.run_for(ms_to_ns(10));
  const auto* rows = sensor.observe(system.now_ns(), targets);
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->rows(), 1u);
  EXPECT_EQ(rows->pid(0), kMachinePid);
}

TEST(HpcSensor, IgnoresStaleTimestamps) {
  os::System system(simcpu::i3_2120());
  hpc::SimBackend backend(system);
  HpcSensor sensor(backend, &system);
  system.run_for(ms_to_ns(5));
  EXPECT_EQ(sensor.observe(system.now_ns(), {}), nullptr);  // Prime.
  EXPECT_EQ(sensor.observe(system.now_ns(), {}), nullptr);  // Same timestamp: no window.
}

// --- Regression formula ---

TEST(RegressionFormula, MachineRowsGetIdleProcessRowsDoNot) {
  model::FrequencyFormula f;
  f.frequency_hz = 3.3e9;
  f.events = {hpc::EventId::kInstructions};
  f.coefficients = {2e-9};
  const model::CpuPowerModel model(30.0, {f});

  model::FeatureMatrix features;
  features.frequency_hz = 3.3e9;
  features.resize(2);
  features.pids()[0] = kMachinePid;
  features.pids()[1] = 42;
  features.rate_lane(hpc::EventId::kInstructions)[0] = 1e9;
  features.rate_lane(hpc::EventId::kInstructions)[1] = 1e9;
  std::vector<double> watts;
  estimate_regression_rows(model, features, watts);
  ASSERT_EQ(watts.size(), 2u);
  EXPECT_NEAR(watts[0], 30.0 + 2.0, 1e-9);  // Idle + activity.
  EXPECT_NEAR(watts[1], 2.0, 1e-9);         // Activity only.

  // An empty model (cold-start calibration) estimates the idle floor only.
  estimate_regression_rows(model::CpuPowerModel(25.0, {}), features, watts);
  EXPECT_EQ(watts, (std::vector<double>{25.0, 0.0}));
}

// --- Aggregator watermark semantics ---

struct AggregatorHarness {
  explicit AggregatorHarness(AggregationDimension dimension,
                             Aggregator::GroupResolver resolver = {})
      : aggregator(dimension, std::move(resolver),
                   [this](AggregatedPower&& row) { rows.push_back(std::move(row)); }) {}

  void absorb(util::TimestampNs t, std::int64_t pid, double watts,
              const char* formula = "powerapi-hpc") {
    aggregator.absorb(aggregator.intern(formula), t, pid, watts, 0, 0);
  }

  std::vector<AggregatedPower> rows;
  Aggregator aggregator;
};

TEST(AggregatorUnit, TimestampModeEmitsOnWatermarkAdvance) {
  AggregatorHarness h(AggregationDimension::kTimestamp);
  h.absorb(100, 1, 3.0);
  h.absorb(100, 2, 4.0);
  EXPECT_TRUE(h.rows.empty());  // Group still open.

  h.absorb(200, 1, 5.0);  // Watermark advances: t=100 emits.
  ASSERT_EQ(h.rows.size(), 1u);
  EXPECT_EQ(h.rows[0].timestamp, 100);
  EXPECT_NEAR(h.rows[0].watts, 7.0, 1e-12);  // Sum of per-pid rows.
}

TEST(AggregatorUnit, MachineRowWinsOverPerPidSum) {
  AggregatorHarness h(AggregationDimension::kTimestamp);
  h.absorb(100, 1, 3.0);
  h.absorb(100, kMachinePid, 40.0);  // Includes idle.
  h.absorb(200, 1, 1.0);
  ASSERT_EQ(h.rows.size(), 1u);
  EXPECT_NEAR(h.rows[0].watts, 40.0, 1e-12);
}

TEST(AggregatorUnit, FormulasAggregateIndependently) {
  AggregatorHarness h(AggregationDimension::kTimestamp);
  h.absorb(100, 1, 3.0, "a");
  h.absorb(100, 1, 9.0, "b");
  h.absorb(200, 1, 1.0, "a");  // Only formula a's watermark moves.
  ASSERT_EQ(h.rows.size(), 1u);
  EXPECT_EQ(h.rows[0].formula, "a");
  EXPECT_NEAR(h.rows[0].watts, 3.0, 1e-12);
}

TEST(AggregatorUnit, EqualFormulaNamesShareOneGroup) {
  AggregatorHarness h(AggregationDimension::kTimestamp);
  EXPECT_EQ(h.aggregator.intern("a"), h.aggregator.intern("a"));
  EXPECT_NE(h.aggregator.intern("a"), h.aggregator.intern("b"));
}

TEST(AggregatorUnit, FlushEmitsPendingGroupsInFormulaNameOrder) {
  AggregatorHarness h(AggregationDimension::kTimestamp);
  h.absorb(100, 1, 9.0, "b");
  h.absorb(100, 1, 3.0, "a");
  h.aggregator.flush();
  ASSERT_EQ(h.rows.size(), 2u);
  EXPECT_EQ(h.rows[0].formula, "a");
  EXPECT_EQ(h.rows[1].formula, "b");
  h.aggregator.flush();  // Nothing left pending.
  EXPECT_EQ(h.rows.size(), 2u);
}

TEST(AggregatorUnit, GroupModeRoutesByResolver) {
  AggregatorHarness h(AggregationDimension::kGroup, [](std::int64_t pid) {
    return pid < 10 ? "small" : "large";
  });
  h.absorb(100, 1, 1.0);
  h.absorb(100, 2, 2.0);
  h.absorb(100, 20, 7.0);
  h.absorb(100, kMachinePid, 50.0);
  h.absorb(200, 1, 1.0);  // Advance watermark.

  // One row per label, in label order.
  ASSERT_EQ(h.rows.size(), 3u);
  EXPECT_EQ(h.rows[0].group, "(machine)");
  EXPECT_NEAR(h.rows[0].watts, 50.0, 1e-12);
  EXPECT_EQ(h.rows[1].group, "large");
  EXPECT_NEAR(h.rows[1].watts, 7.0, 1e-12);
  EXPECT_EQ(h.rows[2].group, "small");
  EXPECT_NEAR(h.rows[2].watts, 3.0, 1e-12);

  // Only labels seen since the last emit are emitted again.
  h.aggregator.flush();
  ASSERT_EQ(h.rows.size(), 4u);
  EXPECT_EQ(h.rows[3].group, "small");
  EXPECT_NEAR(h.rows[3].watts, 1.0, 1e-12);
}

TEST(AggregatorUnit, PidModeForwardsEveryRow) {
  AggregatorHarness h(AggregationDimension::kPid);
  h.absorb(100, 1, 1.0);
  h.absorb(100, kMachinePid, 40.0);
  ASSERT_EQ(h.rows.size(), 2u);
  EXPECT_EQ(h.rows[0].pid, 1);
  EXPECT_EQ(h.rows[1].pid, kMachinePid);
}

// --- IO datasheet formula ---

TEST(IoFormulaUnit, ChargesDatasheetEnergies) {
  periph::DiskParams disk;
  periph::NicParams nic;
  IoRates rates;
  rates.disk_iops = 50;
  rates.disk_bytes_per_sec = 10e6;
  rates.net_bytes_per_sec = 20e6;
  const double expected =
      disk.idle_spinning_watts + nic.link_active_watts + 50 * disk.joules_per_op +
      10 * disk.joules_per_megabyte +
      20 * (nic.joules_per_megabyte_tx + nic.joules_per_megabyte_rx) / 2.0;
  EXPECT_NEAR(io_datasheet_watts(rates, disk, nic), expected, 1e-9);
}

}  // namespace
}  // namespace powerapi::api
