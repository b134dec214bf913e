// Edge cases of the batched SoA feature/model hot path: batch-vs-scalar
// bit-identity, zero-delta windows, counter regression (re-prime) hitting
// one row of a batch while the others keep reporting, and the fleet's round
// loop: heterogeneous core counts, claim sizes that do not divide the fleet
// evenly, and threaded rounds (every worker count and claim cap) advancing
// every host exactly once per round with per-host series equal to kManual.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hpc/backend.h"
#include "model/feature_matrix.h"
#include "model/power_model.h"
#include "os/system.h"
#include "powerapi/fleet_monitor.h"
#include "powerapi/sensors.h"
#include "util/result.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace powerapi::api {
namespace {

using util::ms_to_ns;
using util::ns_to_seconds;
using util::seconds_to_ns;

// --- extract_features_rows against the scalar reference ---

/// Deterministic pseudo-values: enough spread to exercise every lane, no
/// RNG so failures reproduce.
std::uint64_t fake_counter(std::size_t lane, std::size_t row, std::uint64_t base) {
  return base + lane * 977 + row * 131071 + (lane * row) % 89;
}

TEST(FeatureBatch, BatchMatchesScalarExtractionBitForBit) {
  constexpr std::size_t kRows = 5;
  constexpr double kFreq = 3.1e9;
  constexpr std::size_t kHwThreads = 4;

  simcpu::CounterLanes prev, cur;
  prev.resize(kRows);
  cur.resize(kRows);
  std::vector<double> windows(kRows);
  std::vector<std::int64_t> pids = {kMachinePid, 10, 11, 12, 13};
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t l = 0; l < simcpu::CounterLanes::kLanes; ++l) {
      prev.lane(l)[r] = fake_counter(l, r, 1'000'000);
      cur.lane(l)[r] = fake_counter(l, r, 1'000'000) + fake_counter(l, r, 5000);
    }
    prev.cpu_time()[r] = static_cast<std::int64_t>(r) * 1'000'000;
    cur.cpu_time()[r] = static_cast<std::int64_t>(r) * 1'000'000 + 400'000 * (r + 1);
    cur.live()[r] = 1;
    windows[r] = 0.01 + 0.001 * static_cast<double>(r);
  }

  model::FeatureMatrix out;
  out.frequency_hz = kFreq;
  out.resize(kRows);
  for (std::size_t r = 0; r < kRows; ++r) out.pids()[r] = pids[r];
  model::extract_features_rows(cur, prev, windows.data(), kHwThreads, out);

  for (std::size_t r = 0; r < kRows; ++r) {
    hpc::EventValues delta;
    for (hpc::EventId id : hpc::all_events()) {
      const auto l = static_cast<std::size_t>(id);
      delta[id] = cur.lane(l)[r] - prev.lane(l)[r];
    }
    const std::uint64_t smt_delta = cur.lane(simcpu::CounterLanes::kSmtLane)[r] -
                                    prev.lane(simcpu::CounterLanes::kSmtLane)[r];
    const model::FeatureVector scalar =
        model::extract_features(delta, smt_delta, windows[r], kFreq);
    const model::FeatureVector batched = out.row(r);
    for (hpc::EventId id : hpc::all_events()) {
      EXPECT_EQ(model::rate_of(batched.rates, id), model::rate_of(scalar.rates, id))
          << "row " << r << " event " << hpc::to_string(id);
    }
    EXPECT_EQ(batched.smt_shared_cycles_per_sec, scalar.smt_shared_cycles_per_sec)
        << "row " << r;
    if (pids[r] < 0) {
      EXPECT_EQ(batched.utilization,
                model::machine_utilization(scalar.rates, kFreq, kHwThreads));
    } else {
      EXPECT_EQ(batched.utilization,
                ns_to_seconds(cur.cpu_time()[r] - prev.cpu_time()[r]) / windows[r]);
    }
    EXPECT_EQ(out.window_seconds(r), windows[r]);
  }
}

TEST(FeatureBatch, ZeroDeltaWindowYieldsAllZeroFeatures) {
  constexpr std::size_t kRows = 3;
  simcpu::CounterLanes prev, cur;
  prev.resize(kRows);
  cur.resize(kRows);
  for (std::size_t r = 0; r < kRows; ++r) {
    for (std::size_t l = 0; l < simcpu::CounterLanes::kLanes; ++l) {
      prev.lane(l)[r] = cur.lane(l)[r] = 42'000 + 7 * l + r;
    }
    prev.cpu_time()[r] = cur.cpu_time()[r] = 9'000'000;
  }
  std::vector<double> windows(kRows, 0.025);

  model::FeatureMatrix out;
  out.frequency_hz = 3.3e9;
  out.resize(kRows);
  out.pids()[0] = kMachinePid;
  out.pids()[1] = 5;
  out.pids()[2] = 6;
  model::extract_features_rows(cur, prev, windows.data(), 4, out);

  for (std::size_t r = 0; r < kRows; ++r) {
    const model::FeatureVector row = out.row(r);
    for (hpc::EventId id : hpc::all_events()) {
      EXPECT_EQ(model::rate_of(row.rates, id), 0.0) << "row " << r;
    }
    EXPECT_EQ(row.smt_shared_cycles_per_sec, 0.0);
    EXPECT_EQ(row.utilization, 0.0) << "row " << r;
  }
}

TEST(FeatureBatch, RegressedCountersSaturateToZeroInsteadOfWrapping) {
  simcpu::CounterLanes prev, cur;
  prev.resize(1);
  cur.resize(1);
  for (std::size_t l = 0; l < simcpu::CounterLanes::kLanes; ++l) {
    prev.lane(l)[0] = 3'000'000;  // Pid reuse: new process restarts near zero.
    cur.lane(l)[0] = 50'000;
  }
  const double window = 1.0;
  model::FeatureMatrix out;
  out.frequency_hz = 3.3e9;
  out.resize(1);
  out.pids()[0] = 42;
  model::extract_features_rows(cur, prev, &window, 4, out);
  for (hpc::EventId id : hpc::all_events()) {
    EXPECT_EQ(model::rate_of(out.row(0).rates, id), 0.0)
        << "an unsigned wrap would read ~1.8e19 events/s";
  }
}

// --- HpcSensor: re-prime of one row mid-batch ---

class ScriptedBackend final : public hpc::CounterBackend {
 public:
  std::string name() const override { return "scripted"; }
  bool supports(hpc::EventId) const override { return true; }
  util::Result<hpc::EventValues> read(hpc::Target target) override {
    return util::Result<hpc::EventValues>(values[target.pid]);
  }
  std::map<std::int64_t, hpc::EventValues> values;
};

/// Row pids of every batch the sensor produced, and the last instruction
/// rate seen per pid.
struct BatchLog {
  std::vector<std::vector<std::int64_t>> batches;
  std::map<std::int64_t, double> rates;
};

TEST(FeatureBatch, RePrimeMidBatchDropsOnlyTheRegressedRow) {
  ScriptedBackend backend;
  constexpr std::int64_t kPidA = 7;
  constexpr std::int64_t kPidB = 8;
  HpcSensor sensor(backend, nullptr);
  const std::vector<std::int64_t> targets = {kPidA, kPidB};
  BatchLog seen;

  auto tick = [&](int second, std::uint64_t a, std::uint64_t b) {
    // Machine counters stay monotone throughout — only pid A regresses.
    backend.values[hpc::Target::kMachine][hpc::EventId::kInstructions] =
        static_cast<std::uint64_t>(second) * 10'000'000;
    backend.values[kPidA][hpc::EventId::kInstructions] = a;
    backend.values[kPidB][hpc::EventId::kInstructions] = b;
    const model::FeatureMatrix* rows = sensor.observe(seconds_to_ns(second), targets);
    if (rows == nullptr) return;
    seen.batches.emplace_back(rows->pids(), rows->pids() + rows->rows());
    for (std::size_t i = 0; i < rows->rows(); ++i) {
      seen.rates[rows->pid(i)] = rows->rate_lane(hpc::EventId::kInstructions)[i];
    }
  };

  tick(1, 1'000'000, 2'000'000);  // Primes all three rows.
  tick(2, 1'500'000, 2'600'000);  // Full batch: machine + A + B.
  ASSERT_EQ(seen.batches.size(), 1u);
  EXPECT_EQ(seen.batches[0],
            (std::vector<std::int64_t>{kMachinePid, kPidA, kPidB}));
  EXPECT_EQ(seen.rates[kPidA], 5e5);
  EXPECT_EQ(seen.rates[kPidB], 6e5);

  // Pid A's counters regress (process died, pid reused) while B and the
  // machine stay monotone: only A's row re-primes and drops out of the
  // batch — the compacted batch must carry the surviving rows' values.
  tick(3, 10'000, 3'300'000);
  ASSERT_EQ(seen.batches.size(), 2u);
  EXPECT_EQ(seen.batches[1], (std::vector<std::int64_t>{kMachinePid, kPidB}));
  EXPECT_EQ(seen.rates[kPidB], 7e5);

  // A's re-primed window completes one tick later, against the new baseline.
  tick(4, 250'000, 3'700'000);
  ASSERT_EQ(seen.batches.size(), 3u);
  EXPECT_EQ(seen.batches[2],
            (std::vector<std::int64_t>{kMachinePid, kPidA, kPidB}));
  EXPECT_EQ(seen.rates[kPidA], 240'000.0);
  EXPECT_EQ(seen.rates[kPidB], 4e5);
}

// --- Fleet rounds: heterogeneous hosts, uneven claims, threaded dispatch ---

std::string hex_double(double value) {
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

model::CpuPowerModel chunk_model() {
  std::vector<model::FrequencyFormula> formulas;
  for (const double hz : simcpu::i3_2120().frequencies_hz) {
    model::FrequencyFormula f;
    f.frequency_hz = hz;
    f.events = {hpc::EventId::kInstructions, hpc::EventId::kCacheMisses};
    f.coefficients = {2.2e-9 * hz / 3.3e9, 1.9e-7};
    formulas.push_back(std::move(f));
  }
  return model::CpuPowerModel(30.5, std::move(formulas));
}

simcpu::CpuSpec heterogeneous_spec(std::size_t index) {
  switch (index % 3) {
    case 0: return simcpu::i3_2120();        // 2 cores, SMT.
    case 1: return simcpu::quad_core();      // 4 cores.
    default: return simcpu::i3_2120_no_smt();  // 2 cores, no SMT.
  }
}

/// Forwards to a simulated host and counts advance() calls, so a test can
/// check that every host advances exactly once per round.
class CountingHost final : public os::MonitorableHost {
 public:
  explicit CountingHost(std::unique_ptr<os::System> system) : system_(std::move(system)) {}

  std::vector<os::Pid> pids() const override { return system_->pids(); }
  std::optional<os::ProcStat> proc_stat(os::Pid pid) const override {
    return system_->proc_stat(pid);
  }
  os::SystemStat system_stat() const override { return system_->system_stat(); }
  util::TimestampNs now_ns() const override { return system_->now_ns(); }
  const simcpu::CounterBlock& machine_counters() const override {
    return system_->machine_counters();
  }
  std::size_t hw_threads() const override { return system_->hw_threads(); }
  double total_energy_joules() const override { return system_->total_energy_joules(); }
  double package_energy_joules() const override { return system_->package_energy_joules(); }
  const os::IoTotals& io_totals() const override { return system_->io_totals(); }
  const periph::DiskModel* disk() const override { return system_->disk(); }
  const periph::NicModel* nic() const override { return system_->nic(); }
  void advance(util::DurationNs duration) override {
    advances.fetch_add(1, std::memory_order_relaxed);
    system_->advance(duration);
  }
  void gather_counter_lanes(std::span<const os::Pid> targets,
                            simcpu::CounterLanes& out) const override {
    system_->gather_counter_lanes(targets, out);
  }

  std::atomic<std::uint64_t> advances{0};

 private:
  std::unique_ptr<os::System> system_;
};

struct FleetShape {
  std::size_t hosts = 1;
  std::size_t hosts_per_chunk = 8;
  actors::ActorSystem::Mode mode = actors::ActorSystem::Mode::kManual;
  std::size_t workers = 1;
};

/// Runs `shape.hosts` heterogeneous hosts round by round and serializes
/// every host's per-formula series bit-exactly; with `with_fleet`, also the
/// fleet dimension (summed in arrival order, which threading permutes).
/// Every round must advance every host exactly once.
std::string run_chunked_fleet(const FleetShape& shape, bool with_fleet = true) {
  std::vector<std::unique_ptr<CountingHost>> hosts;
  for (std::size_t i = 0; i < shape.hosts; ++i) {
    auto host = std::make_unique<os::System>(heterogeneous_spec(i));
    host->spawn("app", std::make_unique<workloads::SteadyBehavior>(
                           workloads::cpu_stress(0.2 + 0.1 * (i % 4)), 0));
    host->spawn("mem", std::make_unique<workloads::SteadyBehavior>(
                           workloads::memory_stress(4e6 * (1 + i % 3), 0.8), 0));
    hosts.push_back(std::make_unique<CountingHost>(std::move(host)));
  }

  FleetMonitor::Options options;
  options.mode = shape.mode;
  options.workers = shape.workers;
  options.hosts_per_chunk = shape.hosts_per_chunk;
  FleetMonitor fleet(options);
  std::vector<MemoryReporter*> memory;
  for (std::size_t i = 0; i < shape.hosts; ++i) {
    PipelineSpec spec;
    spec.period = ms_to_ns(25);
    spec.model = chunk_model();
    spec.seed = 100 + i;
    const std::size_t index = fleet.add_host(*hosts[i], std::move(spec));
    memory.push_back(&fleet.add_memory_reporter(index));
    fleet.monitor_all(index);
  }
  auto& fleet_memory = fleet.add_fleet_reporter();
  std::uint64_t rounds = 0;
  fleet.run_for(ms_to_ns(300), [&](util::DurationNs) {
    ++rounds;
    for (std::size_t i = 0; i < shape.hosts; ++i) {
      EXPECT_EQ(hosts[i]->advances.load(), rounds) << "host " << i << " round " << rounds;
    }
  });
  EXPECT_EQ(rounds, 12u);
  fleet.finish();

  std::ostringstream out;
  for (std::size_t i = 0; i < shape.hosts; ++i) {
    for (const char* formula : {"powerapi-hpc", "powerspy"}) {
      for (const auto& row : memory[i]->series(formula)) {
        out << 'h' << i << ',' << formula << ',' << row.timestamp << ','
            << hex_double(row.watts) << '\n';
      }
    }
  }
  if (!with_fleet) return out.str();
  for (const auto& row : fleet_memory.group_series("powerapi-hpc", "(fleet)")) {
    out << "fleet," << row.timestamp << ',' << hex_double(row.watts) << '\n';
  }
  return out.str();
}

TEST(FeatureBatch, HeterogeneousCoreCountsInOneChunkMatchPerHostChunking) {
  // Three hosts with different core/SMT counts in one round must produce
  // exactly what they produce alone: each host's hw_threads flows through
  // its own batch extraction.
  EXPECT_EQ(run_chunked_fleet({3, 8}), run_chunked_fleet({3, 1}));
}

TEST(FeatureBatch, ChunkSizeNotDividingFleetIsLossless) {
  // In kManual the claim cap does not change the round loop: 5 hosts under
  // caps 2, 1, 5 and the degenerate 0 (clamped to 1) are bit-identical.
  const std::string by_two = run_chunked_fleet({5, 2});
  EXPECT_EQ(by_two, run_chunked_fleet({5, 1}));
  EXPECT_EQ(by_two, run_chunked_fleet({5, 5}));
  EXPECT_EQ(by_two, run_chunked_fleet({5, 0}));
}

TEST(FeatureBatch, ThreadedRoundsMatchManualPerHostSeries) {
  // Guided self-scheduling over every worker count and claim cap: each
  // host advances exactly once per round (checked inside the run), and its
  // series equals the kManual run bit for bit. Fleet-dimension rows are
  // left out: threaded arrival order permutes their summation.
  for (const std::size_t hosts : {1, 7, 32}) {
    const std::string manual = run_chunked_fleet({hosts, 8}, /*with_fleet=*/false);
    for (std::size_t workers = 1; workers <= 4; ++workers) {
      for (const std::size_t cap : {0, 1, 3, 8, 64}) {
        SCOPED_TRACE("hosts=" + std::to_string(hosts) + " workers=" +
                     std::to_string(workers) + " cap=" + std::to_string(cap));
        EXPECT_EQ(run_chunked_fleet({hosts, cap, actors::ActorSystem::Mode::kThreaded, workers},
                                    /*with_fleet=*/false),
                  manual);
      }
    }
  }
}

}  // namespace
}  // namespace powerapi::api
