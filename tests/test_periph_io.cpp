// Tests for the IO counter path: the cumulative iostat-style IoTotals a
// host exposes, the IoSensor that differences them into rates, and the
// datasheet formula that turns those rates into a peripheral power share —
// the disk/network dimension of the paper's component splitting, stage
// level (complementing the peripheral POWER model tests in
// test_periph_turbo.cpp).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "os/monitorable_host.h"
#include "os/system.h"
#include "powerapi/formulas.h"
#include "powerapi/sensors.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::api {
namespace {

using util::ms_to_ns;
using util::seconds_to_ns;

/// A host whose IO totals are scripted by the test: the sensor's input is
/// then exact, so rate assertions can be EXPECT_DOUBLE_EQ, not NEAR.
class ScriptedIoHost final : public os::MonitorableHost {
 public:
  ScriptedIoHost() : disk_(periph::DiskParams{}), nic_(periph::NicParams{}) {}

  std::vector<os::Pid> pids() const override { return {}; }
  std::optional<os::ProcStat> proc_stat(os::Pid) const override {
    return std::nullopt;
  }
  os::SystemStat system_stat() const override { return {}; }
  util::TimestampNs now_ns() const override { return now_; }
  const simcpu::CounterBlock& machine_counters() const override {
    return counters_;
  }
  std::size_t hw_threads() const override { return 4; }
  double total_energy_joules() const override { return 0.0; }
  double package_energy_joules() const override { return 0.0; }
  const os::IoTotals& io_totals() const override { return totals_; }
  const periph::DiskModel* disk() const override { return &disk_; }
  const periph::NicModel* nic() const override { return &nic_; }
  void advance(util::DurationNs duration) override { now_ += duration; }

  os::IoTotals totals_;
  util::TimestampNs now_ = 0;

 private:
  simcpu::CounterBlock counters_;
  periph::DiskModel disk_;
  periph::NicModel nic_;
};

// --- IoTotals accounting (os::System with peripherals) ---

TEST(IoTotals, ZeroWithoutPeripheralsAndMonotonicWithThem) {
  os::System plain(simcpu::i3_2120());
  plain.run_for(seconds_to_ns(1));
  EXPECT_DOUBLE_EQ(plain.io_totals().disk_ops, 0.0);
  EXPECT_DOUBLE_EQ(plain.io_totals().disk_bytes, 0.0);
  EXPECT_DOUBLE_EQ(plain.io_totals().net_bytes, 0.0);

  os::System::Options options;
  options.with_peripherals = true;
  os::System system(simcpu::i3_2120(), std::move(options));
  system.spawn("fileserver",
               std::make_unique<workloads::SteadyBehavior>(
                   workloads::io_stress(/*disk_mb=*/40, /*net_mb=*/30, 1.0), 0));
  os::IoTotals last{};
  for (int i = 0; i < 5; ++i) {
    system.run_for(ms_to_ns(200));
    const os::IoTotals& now = system.io_totals();
    EXPECT_GE(now.disk_ops, last.disk_ops);
    EXPECT_GE(now.disk_bytes, last.disk_bytes);
    EXPECT_GE(now.net_bytes, last.net_bytes);
    last = now;
  }
  EXPECT_GT(last.disk_bytes, 0.0);
  EXPECT_GT(last.net_bytes, 0.0);
}

TEST(IoTotals, AccountingIsDeterministic) {
  auto build = [] {
    os::System::Options options;
    options.with_peripherals = true;
    auto system = std::make_unique<os::System>(simcpu::i3_2120(), std::move(options));
    system->spawn("fileserver",
                  std::make_unique<workloads::SteadyBehavior>(
                      workloads::io_stress(20, 10, 0.8), 0));
    return system;
  };
  auto a = build();
  auto b = build();
  a->run_for(seconds_to_ns(2));
  b->run_for(seconds_to_ns(2));
  EXPECT_DOUBLE_EQ(a->io_totals().disk_ops, b->io_totals().disk_ops);
  EXPECT_DOUBLE_EQ(a->io_totals().disk_bytes, b->io_totals().disk_bytes);
  EXPECT_DOUBLE_EQ(a->io_totals().net_bytes, b->io_totals().net_bytes);
}

// --- IoSensor: totals → rates ---

TEST(IoSensor, DifferencesTotalsIntoExactRates) {
  ScriptedIoHost host;
  IoSensor sensor(host);

  host.totals_ = {100.0, 1e6, 2e6};
  EXPECT_FALSE(sensor.observe(seconds_to_ns(1)));  // Priming tick.

  host.totals_ = {150.0, 3e6, 6e6};  // +50 ops, +2 MB disk, +4 MB net.
  const auto r = sensor.observe(seconds_to_ns(3));  // 2 s window.
  ASSERT_TRUE(r);
  EXPECT_DOUBLE_EQ(r->disk_iops, 25.0);
  EXPECT_DOUBLE_EQ(r->disk_bytes_per_sec, 1e6);
  EXPECT_DOUBLE_EQ(r->net_bytes_per_sec, 2e6);
}

TEST(IoSensor, CounterRegressionReprimesInsteadOfNegativeRates) {
  ScriptedIoHost host;
  IoSensor sensor(host);

  host.totals_ = {100.0, 1e6, 1e6};
  EXPECT_FALSE(sensor.observe(seconds_to_ns(1)));
  host.totals_ = {200.0, 2e6, 2e6};
  EXPECT_TRUE(sensor.observe(seconds_to_ns(2)));

  // The counter source resets (device re-probe / wraparound at the OS
  // boundary): totals regress. Differencing across the reset would yield a
  // negative rate — the sensor must skip the tick and re-prime instead.
  host.totals_ = {10.0, 1e5, 1e5};
  EXPECT_FALSE(sensor.observe(seconds_to_ns(3)));  // No rates on the reset tick.

  // The next window differences against the POST-reset baseline.
  host.totals_ = {20.0, 2e5, 3e5};
  const auto r = sensor.observe(seconds_to_ns(4));
  ASSERT_TRUE(r);
  EXPECT_DOUBLE_EQ(r->disk_iops, 10.0);
  EXPECT_DOUBLE_EQ(r->disk_bytes_per_sec, 1e5);
  EXPECT_DOUBLE_EQ(r->net_bytes_per_sec, 2e5);
}

TEST(IoSensor, SilentWhenHostHasNoDisk) {
  os::System system(simcpu::i3_2120());  // No peripherals.
  IoSensor sensor(system);
  for (int i = 1; i <= 3; ++i) EXPECT_FALSE(sensor.observe(seconds_to_ns(i)));
}

// --- The rates' contribution to the datasheet power estimate ---

TEST(IoFormula, ChargesDatasheetEnergiesForReportedRates) {
  const periph::DiskParams disk;
  const periph::NicParams nic;
  IoRates rates;
  rates.disk_iops = 50.0;
  rates.disk_bytes_per_sec = 10e6;
  rates.net_bytes_per_sec = 4e6;
  const double expected = disk.idle_spinning_watts + nic.link_active_watts +
                          50.0 * disk.joules_per_op +
                          10.0 * disk.joules_per_megabyte +
                          4.0 * (nic.joules_per_megabyte_tx +
                                 nic.joules_per_megabyte_rx) / 2.0;
  EXPECT_DOUBLE_EQ(io_datasheet_watts(rates, disk, nic), expected);
}

}  // namespace
}  // namespace powerapi::api
