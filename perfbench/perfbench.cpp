// The repository benchmark: one process drives the public FleetMonitor API
// through the paper's learning-then-monitoring loop and prints one JSON
// result line. See README.md in this directory for the workloads, the
// metrics and how they relate.
//
//   perfbench --workload <dense_manual|dense_threaded|rack_day> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//   perfbench --workload <name> --print-digest
//
// --trace 0 reports the end-to-end metrics of an untraced timed phase;
// --trace 1 reports the per-layer metrics of a traced run (timing from the
// TimedHost decorator and the benchmark's own wrappers; src/ is not
// instrumented further).
#include <sched.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "governor/governor.h"
#include "model/feature_matrix.h"
#include "model/model_registry.h"
#include "model/trainer.h"
#include "net/collector_server.h"
#include "net/telemetry_client.h"
#include "os/system.h"
#include "powerapi/fleet_monitor.h"
#include "timed_host.h"
#include "util/rng.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"
#include "workloads/zoo.h"

namespace perfbench {
namespace {

namespace pa = powerapi;
using pa::util::DurationNs;
using pa::util::TimestampNs;
using Mode = pa::actors::ActorSystem::Mode;

// ---------------------------------------------------------------------------
// Workloads

struct Config {
  std::string name;
  std::string fleet;  ///< Fleet family; workloads of one family share digests.
  std::size_t hosts = 0;
  DurationNs period = 0;
  Mode mode = Mode::kManual;
  std::size_t workers = 1;
  bool rack = false;
  std::size_t warm_rounds = 0;     ///< Before the quality window.
  std::size_t quality_rounds = 0;  ///< Error, energy and exact-count window.
  /// Timed rounds per statistics block; at least 1000, so the block's p99
  /// leaves 10 rounds beyond it.
  std::size_t stat_block_rounds = 1000;
  std::size_t trace_block_rounds = 0;  ///< Traced run: rounds per traced/untraced block.
};

Config config_for(const std::string& name) {
  Config c;
  c.name = name;
  if (name == "dense_manual" || name == "dense_threaded") {
    c.fleet = "dense";
    c.hosts = 32;
    c.period = pa::util::ms_to_ns(1);
    c.mode = name == "dense_manual" ? Mode::kManual : Mode::kThreaded;
    c.workers = name == "dense_manual" ? 1 : 3;
    c.warm_rounds = 500;
    c.quality_rounds = 2000;
    c.trace_block_rounds = 1000;
  } else if (name == "rack_day") {
    c.fleet = "rack_day";
    c.hosts = 8;
    c.period = pa::util::ms_to_ns(100);
    c.rack = true;
    c.warm_rounds = 100;
    c.quality_rounds = 2000;
    c.stat_block_rounds = 1200;  // Two compressed days: every block sees the same load mix.
    c.trace_block_rounds = 100;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return c;
}

/// Seed whose quality-window digest is committed in digests.txt.
constexpr std::uint64_t kCheckSeed = 20140101;
constexpr std::size_t kSetupRepetitions = 5;
constexpr std::size_t kMinBlocks = 5;  ///< Timed statistics blocks, at least.

// rack_day constants.
constexpr DurationNs kDayLength = pa::util::seconds_to_ns(60);  ///< One compressed day.
constexpr double kRackBudgetWatts = 340.0;  ///< Below the uncapped draw (~460 W).
constexpr std::size_t kGovernorEveryRounds = 10;                   ///< 1 s at 100 ms.
constexpr double kChurnPerRound = 0.02;  ///< Per host: web worker restart.

/// The Fig. 1 learning phase with the quick options `formula trained`
/// uses in scenarios (two duty-cycle levels, one second per grid cell).
pa::model::CpuPowerModel train_model() {
  pa::model::TrainerOptions options;
  options.grid.intensities = {0.5, 1.0};
  options.point_duration = pa::util::seconds_to_ns(1);
  pa::model::Trainer trainer(pa::simcpu::i3_2120(), pa::simcpu::GroundTruthParams{}, options);
  return trainer.train().model;
}

// ---------------------------------------------------------------------------
// Output digest

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t hash_row(std::uint64_t h, const pa::api::AggregatedPower& row) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &row.watts, sizeof bits);
  h = fnv(h, &row.timestamp, sizeof row.timestamp);
  h = fnv(h, &row.pid, sizeof row.pid);
  h = fnv(h, row.group.data(), row.group.size() + 1);  // Includes the NUL.
  h = fnv(h, row.formula.data(), row.formula.size() + 1);
  return fnv(h, &bits, sizeof bits);
}

// ---------------------------------------------------------------------------
// One benchmark fleet: simulated hosts behind TimedHost decorators, the
// FleetMonitor over them, and (rack_day) the governor, churn, obs drain and
// loopback wire driven between rounds.

/// Switches the benchmark flips between rounds; read by reporter actors.
struct Phase {
  std::atomic<bool> digest{true};
  std::atomic<bool> quality{false};
};

/// Per-host output ledger, written only by that host's callback reporter.
struct HostOut {
  std::uint64_t digest = kFnvOffset;
  std::uint64_t machine_rows = 0;  ///< powerapi-hpc machine rows, whole run.
  double error_pct_sum = 0.0;
  std::uint64_t error_rows = 0;
  std::deque<std::int64_t> sent_wall_ns;  ///< Wire FIFO (rack_day).
};

/// Consumes the fleet dimension so it has a subscriber.
class FleetRowSink final : public pa::actors::Actor {
 public:
  void receive(pa::actors::Envelope& envelope) override {
    if (envelope.payload.get<pa::api::AggregatedPower>() != nullptr) ++rows;
  }
  std::uint64_t rows = 0;
};

/// Collector side of the loopback wire: counts rows per agent and measures
/// delivery lag against the sending host's reporter stamps.
class WireSink final : public pa::net::CollectorSink {
 public:
  explicit WireSink(std::vector<HostOut>& outs) : outs_(&outs) {}

  void on_hello(pa::net::ConnId conn, std::string_view agent, std::uint8_t) override {
    host_of_[conn] = std::stoul(std::string(agent.substr(1)));
  }
  void on_aggregated(pa::net::ConnId conn, const pa::api::AggregatedPower&) override {
    ++received;
    const auto it = host_of_.find(conn);
    if (it == host_of_.end()) return;
    auto& fifo = (*outs_)[it->second].sent_wall_ns;
    if (fifo.empty()) return;
    if (collect_lag) lags_ns.push_back(wall_ns() - fifo.front());
    fifo.pop_front();
  }

  std::uint64_t received = 0;
  bool collect_lag = false;
  std::vector<std::int64_t> lags_ns;

 private:
  std::vector<HostOut>* outs_;
  std::map<pa::net::ConnId, std::size_t> host_of_;
};

struct GovernorTally {
  std::uint64_t ticks = 0;
  std::uint64_t tick_ns = 0;
};

class BenchFleet {
 public:
  BenchFleet(const Config& config, std::uint64_t seed, const pa::model::CpuPowerModel& model,
             Mode mode, Probes& probes)
      : config_(config), probes_(&probes), rng_(pa::util::Rng(seed).fork(7)) {
    LayerScope bench(Layer::kBench);
    outs_.resize(config.hosts);
    batch_pids_.resize(config.hosts);
    const pa::util::Rng base(seed);
    for (std::size_t i = 0; i < config.hosts; ++i) {
      systems_.push_back(std::make_unique<pa::os::System>(pa::simcpu::i3_2120()));
      hosts_.push_back(std::make_unique<TimedHost>(*systems_.back(), static_cast<int>(i),
                                                   config.period, probes));
      populate(i, base.fork(100 + i));
    }

    pa::api::FleetMonitor::Options options;
    options.mode = mode;
    options.workers = config.workers;
    options.hosts_per_chunk = 8;
    options.with_observability = config.rack;
    fleet_ = std::make_unique<pa::api::FleetMonitor>(options);

    auto registry = std::make_shared<pa::model::ModelRegistry>(model);
    for (std::size_t i = 0; i < config.hosts; ++i) {
      pa::api::PipelineSpec spec;
      spec.period = config.period;
      spec.seed = seed + i;
      if (config.rack) {
        // Per-host model: calibration swaps each host's own registry.
        spec.model = model;
        spec.with_powerspy = true;
        spec.with_calibration = true;
        // Tight enough that the governor's frequency moves trigger refits.
        spec.calibration.drift_threshold_watts = 0.5;
        spec.dimension = pa::api::AggregationDimension::kGroup;
      } else {
        spec.registry = registry;
        spec.with_powerspy = false;
        spec.dimension = pa::api::AggregationDimension::kTimestamp;
      }
      const std::size_t index = fleet_->add_host(*hosts_[i], std::move(spec));
      fleet_->monitor_all(index);
      fleet_->add_callback_reporter(
          index, [this, index](const pa::api::AggregatedPower& row) { on_row(index, row); });
      if (config.rack) {
        fleet_->pipeline(index).add_model_update_callback(
            [this](const pa::api::ModelUpdated&) { ++swaps_; });
      }
    }
    auto sink = std::make_unique<FleetRowSink>();
    fleet_sink_ = sink.get();
    fleet_->bus().subscribe("fleet/power:aggregated",
                            fleet_->actor_system().spawn("bench/fleet-sink", std::move(sink)));
    if (config.rack) wire_rack();
  }

  ~BenchFleet() {
    for (auto& client : clients_) client->stop(0);
    if (server_) server_->stop();
  }

  BenchFleet(const BenchFleet&) = delete;
  BenchFleet& operator=(const BenchFleet&) = delete;

  const Config& config() const noexcept { return config_; }
  Phase& phase() noexcept { return phase_; }
  pa::api::FleetMonitor& fleet() noexcept { return *fleet_; }
  std::vector<std::unique_ptr<TimedHost>>& hosts() noexcept { return hosts_; }
  const std::vector<HostOut>& outs() const noexcept { return outs_; }
  std::size_t rounds() const noexcept { return rounds_; }
  std::uint64_t swaps() const noexcept { return swaps_; }
  const GovernorTally& governor() const noexcept { return gov_tally_; }
  std::uint64_t governor_actuations() const noexcept {
    return governor_ != nullptr ? governor_->actuation_count() : 0;
  }
  std::uint64_t obs_spans() const noexcept { return obs_spans_; }
  double governed_fleet_watts() const noexcept {
    return governor_ != nullptr ? governor_->last_fleet_watts() : 0.0;
  }
  std::uint64_t obs_spans_dropped() const {
    return fleet_->observability() != nullptr ? fleet_->observability()->trace.dropped() : 0;
  }
  WireSink* wire_sink() noexcept { return wire_sink_.get(); }
  /// Moves the fleet-level and every host's recorded spans into `out`.
  void take_spans(std::vector<Span>& out) {
    out.insert(out.end(), spans_.begin(), spans_.end());
    spans_.clear();
    for (auto& host : hosts_) host->take_spans(out);
  }
  std::uint64_t fleet_rows() const noexcept { return fleet_sink_->rows; }

  /// Wire totals across every agent.
  pa::net::TelemetryClient::Stats wire_stats() const {
    pa::net::TelemetryClient::Stats total;
    for (const auto& client : clients_) {
      const auto s = client->stats();
      total.records_enqueued += s.records_enqueued;
      total.records_sent += s.records_sent;
      total.records_dropped += s.records_dropped;
      total.bytes_sent += s.bytes_sent;
    }
    return total;
  }

  /// One monitoring round: every host advances one period and its pipeline
  /// runs to quiescence (plus, on rack_day, the between-round control work).
  void round() {
    if (config_.rack) {
      fleet_->run_for(config_.period, [this](DurationNs) { between_rounds(); });
    } else {
      fleet_->run_for(config_.period);
    }
    ++rounds_;
  }

  /// Ground-truth energy (J) and retired instructions summed over hosts.
  std::pair<double, double> energy_and_instructions() const {
    double joules = 0.0;
    double instructions = 0.0;
    for (const auto& system : systems_) {
      joules += system->total_energy_joules();
      instructions += static_cast<double>(system->machine_counters().instructions);
    }
    return {joules, instructions};
  }

  /// Flushes every pipeline and, on rack_day, drains the wire.
  void finish() {
    fleet_->finish();
    if (!config_.rack) return;
    const std::int64_t deadline = wall_ns() + 5'000'000'000;
    const std::uint64_t expected = [&] {
      std::uint64_t n = 0;
      for (const auto& client : clients_) n += client->stats().records_enqueued;
      return n;
    }();
    while (wall_ns() < deadline) {
      pump_wire();
      const auto stats = wire_stats();
      if (wire_sink_->received + stats.records_dropped >= expected) break;
      server_->poll_once(1);
    }
  }

  std::uint64_t dead_letters() {
    return fleet_->actor_system().dead_letters() + fleet_->bus().dead_letter_count();
  }

 private:
  /// Seeds host `i`'s process mix.
  void populate(std::size_t i, pa::util::Rng rng) {
    pa::os::System& sys = *systems_[i];
    if (!config_.rack) {
      // Four steady mixed-stress processes: the pipeline, not the load,
      // dominates a dense 1 ms fleet.
      for (int p = 0; p < 4; ++p) {
        // Narrow bands: the seed varies the mix without moving the fleet's
        // average error or energy per instruction much.
        const double share = rng.uniform(0.38, 0.42);
        const double working_set = rng.uniform(3.5, 4.5) * 1024 * 1024;
        const double intensity = rng.uniform(0.78, 0.82);
        sys.spawn("mixed" + std::to_string(p),
                  std::make_unique<pa::workloads::SteadyBehavior>(
                      pa::workloads::mixed_stress(share, working_set, intensity), 0));
      }
      return;
    }
    spawn_web(sys, rng.fork(1));
    spawn_web(sys, rng.fork(2));
    {
      pa::workloads::LlmInferenceBehavior::Options llm;
      llm.mean_interarrival = pa::util::ms_to_ns(450);
      const pa::os::Pid pid =
          sys.spawn("llm", pa::workloads::make_llm_inference(llm, rng.fork(3)));
      sys.set_group(pid, "llm");
    }
    {
      pa::workloads::DiurnalBehavior::Options day;
      day.peak_profile = pa::workloads::mixed_stress(0.3, 4.0 * 1024 * 1024, 1.0);
      day.period = kDayLength;
      day.phase_offset = static_cast<DurationNs>(static_cast<double>(kDayLength) *
                                                 static_cast<double>(i) /
                                                 static_cast<double>(config_.hosts));
      const pa::os::Pid pid = sys.spawn("diurnal", pa::workloads::make_diurnal(day, rng.fork(4)));
      sys.set_group(pid, "diurnal");
    }
    {
      auto scan = std::make_unique<pa::workloads::SteadyBehavior>(
          pa::workloads::memory_stress(24.0 * 1024 * 1024, 0.75),
          0);
      const pa::os::Pid pid = sys.spawn(
          "scan", std::make_unique<pa::workloads::JitterBehavior>(std::move(scan), rng.fork(5)));
      sys.set_group(pid, "scan");
    }
    spawn_batch(i, rng.fork(6));
  }

  void spawn_web(pa::os::System& sys, pa::util::Rng rng) {
    auto web = std::make_unique<pa::workloads::BurstyBehavior>(
        pa::workloads::mixed_stress(0.45, 12.0 * 1024 * 1024, 0.85), pa::util::ms_to_ns(80),
        pa::util::ms_to_ns(140), 0, rng.fork(1));
    sys.set_group(sys.spawn("web", std::move(web)), "web");
  }

  void spawn_batch(std::size_t host, pa::util::Rng rng) {
    // Batch jobs run to completion (3-15 simulated seconds) and exit.
    auto job = std::make_unique<pa::workloads::SteadyBehavior>(
        pa::workloads::cpu_stress(0.8), pa::util::ms_to_ns(rng.uniform_int(3000, 15000)));
    pa::os::System& sys = *systems_[host];
    batch_pids_[host] = sys.spawn("batch", std::move(job));
    sys.set_group(batch_pids_[host], "batch");
  }

  void on_row(std::size_t index, const pa::api::AggregatedPower& row) {
    LayerScope bench(Layer::kBench);
    const std::int64_t now = wall_ns();
    hosts_[index]->stamp_report(now);
    HostOut& out = outs_[index];
    if (phase_.digest.load(std::memory_order_relaxed)) out.digest = hash_row(out.digest, row);
    if (config_.rack) out.sent_wall_ns.push_back(now);
    const bool machine = row.pid == pa::api::kMachinePid &&
                         (config_.rack ? row.group == "(machine)" : row.group.empty());
    if (!machine || row.formula != "powerapi-hpc") return;
    ++out.machine_rows;
    if (!phase_.quality.load(std::memory_order_relaxed)) return;
    double end_j = 0.0;
    double start_j = 0.0;
    if (!hosts_[index]->truth_energy(row.timestamp, end_j) ||
        !hosts_[index]->truth_energy(row.timestamp - config_.period, start_j)) {
      return;
    }
    const double truth_w = (end_j - start_j) / pa::util::ns_to_seconds(config_.period);
    if (truth_w <= 0.0) return;
    out.error_pct_sum += std::fabs(row.watts - truth_w) / truth_w * 100.0;
    ++out.error_rows;
  }

  void wire_rack() {
    pa::governor::GovernorOptions options;
    options.budget_watts = kRackBudgetWatts;
    options.policy = pa::governor::Policy::kPaceToDeadline;
    options.hysteresis_watts = 1.5;
    options.cooldown_ns = pa::util::seconds_to_ns(2);
    options.obs = fleet_->observability();
    std::vector<pa::governor::HostControl> controls;
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      pa::governor::HostControl control =
          pa::governor::control_for("h" + std::to_string(i), *systems_[i]);
      // Actuations show on the benchmark's trace timeline.
      control.set_frequency = [this, inner = control.set_frequency](double hz) {
        const std::int64_t start = wall_ns();
        const double applied = inner(hz);
        record_span("actuate_frequency", start);
        return applied;
      };
      control.set_parked = [this, inner = control.set_parked](std::size_t cores) {
        const std::int64_t start = wall_ns();
        const std::size_t applied = inner(cores);
        record_span("actuate_parking", start);
        return applied;
      };
      controls.push_back(std::move(control));
    }
    auto governor = std::make_unique<pa::governor::GovernorActor>(
        fleet_->bus(), std::move(options), std::move(controls));
    governor_ = governor.get();
    governor_ref_ = fleet_->actor_system().spawn("bench/governor", std::move(governor));
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      pa::governor::GovernorActor::spawn_sense_relay(
          fleet_->actor_system(), fleet_->bus(), fleet_->pipeline(i).aggregated_topic(),
          governor_ref_, i, "bench/sense-h" + std::to_string(i));
    }

    wire_sink_ = std::make_unique<WireSink>(outs_);
    server_ = std::make_unique<pa::net::CollectorServer>(pa::net::CollectorServerOptions{},
                                                          *wire_sink_);
    if (!server_->listening()) throw std::runtime_error("collector: " + server_->error());
    for (std::size_t i = 0; i < hosts_.size(); ++i) {
      pa::net::TelemetryClientOptions options;
      options.port = server_->port();
      options.agent_id = "h" + std::to_string(i);
      clients_.push_back(std::make_unique<pa::net::TelemetryClient>(options));
      fleet_->add_remote_reporter(i, *clients_.back());
    }
    const std::int64_t deadline = wall_ns() + 5'000'000'000;
    while (wall_ns() < deadline) {
      pump_wire();
      bool all = true;
      for (const auto& client : clients_) all = all && client->connected();
      if (all && server_->connection_count() == clients_.size()) return;
      server_->poll_once(1);
    }
    throw std::runtime_error("telemetry clients did not connect over loopback");
  }

  /// rack_day's between-round control work, on the settled fleet.
  void between_rounds() {
    if ((rounds_ + 1) % kGovernorEveryRounds == 0) {
      const std::int64_t start = wall_ns();
      const TimestampNs now = hosts_.front()->system().now_ns();
      fleet_->actor_system().tell(governor_ref_,
                                  pa::actors::Payload(pa::governor::GovernorTick{now}));
      fleet_->actor_system().drain();
      gov_tally_.tick_ns += static_cast<std::uint64_t>(wall_ns() - start);
      ++gov_tally_.ticks;
      record_span("governor_tick", start);
    }
    {
      // Process churn: web workers restart, batch jobs come and go.
      LayerScope bench(Layer::kBench);
      for (std::size_t i = 0; i < systems_.size(); ++i) {
        pa::os::System& sys = *systems_[i];
        if (rng_.bernoulli(kChurnPerRound)) {
          std::vector<pa::os::Pid> web;
          for (const pa::os::Pid pid : sys.pids()) {
            const auto stat = sys.proc_stat(pid);
            if (stat && stat->group == "web") web.push_back(pid);
          }
          if (!web.empty()) {
            sys.kill(web[static_cast<std::size_t>(
                rng_.uniform_int(0, static_cast<std::int64_t>(web.size()) - 1))]);
          }
          spawn_web(sys, rng_.fork(rounds_ * 64 + i));
        }
        // A finished batch job is followed by the next one.
        if (!sys.alive(batch_pids_[i])) spawn_batch(i, rng_.fork(rounds_ * 64 + 32 + i));
      }
      // Drain the program's stage spans as an exporter would, so the
      // bounded trace collector never fills and drops.
      obs_drained_.clear();
      obs_spans_ += fleet_->observability()->trace.drain(obs_drained_);
    }
    pump_wire();
  }

  /// Fleet-level span on the driving thread (rack_day runs kManual).
  void record_span(const char* name, std::int64_t start) {
    if (!probes_->spans.load(std::memory_order_relaxed)) return;
    LayerScope bench(Layer::kBench);
    spans_.push_back({name, -1, start, wall_ns() - start});
  }

  /// One non-blocking step of every agent and the collector. Batching here
  /// follows wall-clock deadlines, so its allocations stay out of the
  /// program's exact counts.
  void pump_wire() {
    LayerScope bench(Layer::kBench);
    for (auto& client : clients_) client->poll_once(0);
    server_->poll_once(0);
  }

  Config config_;
  const Probes* probes_;
  pa::util::Rng rng_;
  Phase phase_;
  std::vector<std::unique_ptr<pa::os::System>> systems_;
  std::vector<std::unique_ptr<TimedHost>> hosts_;
  std::vector<HostOut> outs_;
  std::vector<pa::os::Pid> batch_pids_;  ///< rack_day: each host's current batch job.
  std::unique_ptr<WireSink> wire_sink_;
  std::unique_ptr<pa::net::CollectorServer> server_;
  std::vector<std::unique_ptr<pa::net::TelemetryClient>> clients_;
  std::unique_ptr<pa::api::FleetMonitor> fleet_;
  FleetRowSink* fleet_sink_ = nullptr;  ///< Owned by the actor system.
  pa::governor::GovernorActor* governor_ = nullptr;
  pa::actors::ActorRef governor_ref_;
  GovernorTally gov_tally_;
  std::uint64_t swaps_ = 0;
  std::uint64_t obs_spans_ = 0;
  std::vector<pa::obs::TraceCollector::Span> obs_drained_;
  std::vector<Span> spans_;
  std::size_t rounds_ = 0;
};

// ---------------------------------------------------------------------------
// Measurement helpers

double cpu_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
double process_cpu_s() { return cpu_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_s(CLOCK_THREAD_CPUTIME_ID); }

/// Moves the calling thread to the next allowed CPU at every timed block.
/// A single-threaded run otherwise stays on one CPU for its whole length,
/// and on a shared machine one CPU can be contended for minutes; rotating
/// makes every run sample all of them. Restores the original mask.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    CPU_ZERO(&original_);
    if (!enabled || sched_getaffinity(0, sizeof original_, &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof original_, &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin_for_block(std::size_t block) const {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[block % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
};

/// This process image's resident high-water mark (VmHWM). Unlike
/// getrusage's ru_maxrss it does not inherit the launching process's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
    std::getline(status, key);
  }
  return 0.0;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t fleet_digest(const BenchFleet& fleet) {
  std::uint64_t h = kFnvOffset;
  for (const HostOut& out : fleet.outs()) h = fnv(h, &out.digest, sizeof out.digest);
  return h;
}

/// The exact, run-length-independent outputs of the quality window.
struct Quality {
  double mape_pct = 0.0;
  double j_per_ginstr = 0.0;
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> host_digests;
  // Exact counters over the window (counting runs only).
  std::uint64_t messages = 0;
  std::uint64_t os_calls = 0;
  std::array<std::uint64_t, kLayerCount> allocs{};
  std::array<std::uint64_t, kLayerCount> alloc_bytes{};
  std::uint64_t host_ticks = 0;
};

/// Runs warm-up then the quality window; with `count` on, also tallies
/// messages, os calls and allocations over the window.
Quality run_quality(BenchFleet& bench, Probes& probes, bool count) {
  const Config& c = bench.config();
  for (std::size_t r = 0; r < c.warm_rounds; ++r) bench.round();
  const auto [j0, i0] = bench.energy_and_instructions();
  const std::uint64_t msgs0 = bench.fleet().actor_system().messages_processed();
  std::uint64_t calls0 = 0;
  for (const auto& host : bench.hosts()) calls0 += host->gather_calls();
  if (count) {
    probes.timing.store(true);
    set_alloc_counting(true);
  }
  const AllocTally a0 = alloc_tally();
  bench.phase().quality.store(true);
  for (std::size_t r = 0; r < c.quality_rounds; ++r) bench.round();
  bench.phase().quality.store(false);
  bench.phase().digest.store(false);
  const AllocTally a1 = alloc_tally();
  set_alloc_counting(false);
  probes.timing.store(false);
  const auto [j1, i1] = bench.energy_and_instructions();

  Quality q;
  double err = 0.0;
  std::uint64_t rows = 0;
  for (const HostOut& out : bench.outs()) {
    err += out.error_pct_sum;
    rows += out.error_rows;
    q.host_digests.push_back(out.digest);
  }
  q.mape_pct = rows > 0 ? err / static_cast<double>(rows) : 0.0;
  q.j_per_ginstr = (j1 - j0) / (i1 - i0) * 1e9;
  q.digest = fleet_digest(bench);
  q.host_ticks = c.quality_rounds * c.hosts;
  if (count) {
    q.messages = bench.fleet().actor_system().messages_processed() - msgs0;
    for (const auto& host : bench.hosts()) q.os_calls += host->gather_calls();
    q.os_calls -= calls0;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      q.allocs[l] = a1.allocs[l] - a0.allocs[l];
      q.alloc_bytes[l] = a1.bytes[l] - a0.bytes[l];
    }
  }
  return q;
}

std::map<std::string, std::uint64_t> load_digests(const std::string& path) {
  std::map<std::string, std::uint64_t> digests;
  std::ifstream in(path);
  std::string fleet;
  std::string hex;
  while (in >> fleet >> hex) {
    if (fleet.empty() || fleet[0] == '#') {
      std::string rest;
      std::getline(in, rest);
      continue;
    }
    digests[fleet] = std::stoull(hex, nullptr, 16);
  }
  return digests;
}

// ---------------------------------------------------------------------------
// Kernel replays: the model layer's batch kernels timed on counter lanes
// captured from the traced run.

struct KernelTimes {
  double features_ns_per_row = 0.0;
  double sweep_ns_per_row = 0.0;
};

KernelTimes replay_kernels(BenchFleet& bench, const pa::model::CpuPowerModel& model) {
  struct Pair {
    const pa::simcpu::CounterLanes* prev;
    const pa::simcpu::CounterLanes* cur;
  };
  std::vector<Pair> pairs;
  std::size_t rows = 0;
  for (const auto& host : bench.hosts()) {
    const auto& lanes = host->captured_lanes();
    for (std::size_t i = 1; i < lanes.size(); ++i) {
      if (lanes[i].rows() != lanes[i - 1].rows() || lanes[i].rows() == 0) continue;
      pairs.push_back({&lanes[i - 1], &lanes[i]});
      rows += lanes[i].rows();
    }
  }
  KernelTimes times;
  if (pairs.empty()) return times;
  const double hz = pa::simcpu::i3_2120().frequencies_hz.back();
  const std::size_t hw = pa::simcpu::i3_2120().hw_threads();
  std::vector<pa::model::FeatureMatrix> features(pairs.size());
  std::vector<std::vector<double>> windows(pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    const std::size_t n = pairs[p].cur->rows();
    features[p].resize(n);
    features[p].frequency_hz = hz;
    for (std::size_t r = 0; r < n; ++r) {
      features[p].pids()[r] = r == 0 ? pa::api::kMachinePid : static_cast<std::int64_t>(r);
    }
    windows[p].assign(n, pa::util::ns_to_seconds(bench.config().period));
  }
  std::vector<double> watts(64);
  std::vector<double> feature_ns;
  std::vector<double> sweep_ns;
  // Enough repetitions for ~50 ms per sample; median of 7 samples.
  const std::size_t reps = std::max<std::size_t>(1, 2'000'000 / rows);
  double sink = 0.0;
  for (int sample = 0; sample < 7; ++sample) {
    std::int64_t start = wall_ns();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::size_t p = 0; p < pairs.size(); ++p) {
        pa::model::extract_features_rows(*pairs[p].cur, *pairs[p].prev, windows[p].data(), hw,
                                         features[p]);
      }
    }
    feature_ns.push_back(static_cast<double>(wall_ns() - start) /
                         static_cast<double>(reps * rows));
    start = wall_ns();
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (auto& fm : features) {
        if (watts.size() < fm.rows()) watts.resize(fm.rows());
        model.estimate_activity_rows(fm, std::span<double>(watts.data(), fm.rows()));
        sink += watts[0];
      }
    }
    sweep_ns.push_back(static_cast<double>(wall_ns() - start) /
                       static_cast<double>(reps * rows));
  }
  if (std::isnan(sink)) std::fprintf(stderr, "perfbench: kernel replay produced NaN\n");
  times.features_ns_per_row = percentile(feature_ns, 0.5);
  times.sweep_ns_per_row = percentile(sweep_ns, 0.5);
  return times;
}

void write_chrome_trace(const std::string& path, std::vector<Span> spans) {
  std::ofstream out(path);
  if (!out) return;
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.start_ns < b.start_ns; });
  const std::int64_t base = spans.empty() ? 0 : spans.front().start_ns;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    if (!first) out << ',';
    first = false;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}",
                  s.name, s.host + 1, static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3);
    out << buf;
  }
  out << "]}\n";
}

// ---------------------------------------------------------------------------
// Result line

class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void print(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0,
                    metrics_[i].unit.c_str());
      line += buf;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Output checks shared by both run kinds.
struct Checks {
  bool ok = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t missed = 0;
  std::uint64_t dead_letters = 0;
  void fail(const std::string& why) {
    ok = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
  }
};

/// Every host must have reported one powerapi-hpc machine row per window;
/// on rack_day every row handed to the wire must reach the collector.
void check_delivery(BenchFleet& bench, Checks& checks) {
  const Config& c = bench.config();
  // The first tick only primes the sensors' sampling windows.
  const std::uint64_t windows = bench.rounds() - 1;
  const std::uint64_t expected_rows = windows * c.hosts;
  std::uint64_t got = 0;
  for (const HostOut& out : bench.outs()) got += std::min<std::uint64_t>(out.machine_rows, windows);
  std::uint64_t missed = expected_rows - got;
  std::uint64_t attempted = expected_rows;
  if (c.rack) {
    const auto stats = bench.wire_stats();
    attempted += stats.records_enqueued;
    const std::uint64_t received = bench.wire_sink()->received;
    missed += stats.records_enqueued > received ? stats.records_enqueued - received : 0;
  }
  checks.attempted += attempted;
  checks.missed += missed;
  checks.dead_letters += bench.dead_letters();
  checks.failed += missed + bench.dead_letters();
  if (missed > 0) checks.fail(std::to_string(missed) + " expected reports never arrived");
  if (bench.dead_letters() > 0) {
    checks.fail(std::to_string(bench.dead_letters()) + " dead letters");
  }
  // The fleet dimension sums the hosts' timestamp-dimension machine rows.
  if (!c.rack && bench.fleet_rows() == 0) checks.fail("fleet dimension produced no rows");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
  std::string digests = "perfbench/digests.txt";
  bool print_digest = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = std::stoi(value());
    } else if (flag == "--trace-out") {
      a.trace_out = value();
    } else if (flag == "--digests") {
      a.digests = value();
    } else if (flag == "--print-digest") {
      a.print_digest = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

/// Output checks: the check seed's quality-window digest must equal the
/// committed one, and a threaded fleet's per-host series must equal a
/// kManual replay of the same seed (`seeded` is the threaded fleet's).
void check_outputs(const Args& args, const Config& c, const pa::model::CpuPowerModel& model,
                   Probes& probes, Checks& checks, const Quality* seeded) {
  {
    BenchFleet check(c, kCheckSeed, model, c.mode, probes);
    const Quality q = run_quality(check, probes, false);
    check.finish();
    const auto digests = load_digests(args.digests);
    const auto it = digests.find(c.fleet);
    if (it == digests.end()) {
      checks.fail("no committed digest for " + c.fleet + " in " + args.digests);
    } else if (it->second != q.digest) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "digest %016" PRIx64 " != committed %016" PRIx64,
                    q.digest, it->second);
      checks.fail(buf);
    }
  }
  if (c.mode == Mode::kThreaded && seeded != nullptr) {
    BenchFleet manual(c, args.seed, model, Mode::kManual, probes);
    const Quality q = run_quality(manual, probes, false);
    manual.finish();
    if (q.host_digests != seeded->host_digests) {
      checks.fail("threaded per-host digests differ from kManual");
    }
  }
}

// ---------------------------------------------------------------------------
// The untraced run: end-to-end metrics.

int run_untraced(const Args& args, const Config& c) {
  Probes probes;
  Result result;
  Checks checks;

  // Set-up, several times: the learning phase plus the fleet build.
  std::vector<double> setup_s;
  pa::model::CpuPowerModel model;
  std::unique_ptr<BenchFleet> bench;
  for (std::size_t i = 0; i < kSetupRepetitions; ++i) {
    bench.reset();
    const std::int64_t start = wall_ns();
    model = train_model();
    bench = std::make_unique<BenchFleet>(c, args.seed, model, c.mode, probes);
    setup_s.push_back(static_cast<double>(wall_ns() - start) * 1e-9);
  }

  const Quality quality = run_quality(*bench, probes, /*count=*/false);

  // Timed phase, in blocks of c.stat_block_rounds rounds. Each metric is the
  // slower-quartile block figure (the one three blocks in four meet or
  // beat): on a shared machine that alternates between a fast and a slow
  // regime, the run-to-run variation is mostly the share of time spent
  // fast, which the slower quartile ignores.
  std::vector<double> block_rate;    // Host-s simulated per wall-s.
  std::vector<double> block_cpu;     // Process CPU ms per host-s.
  std::vector<double> block_p50;
  std::vector<double> block_p99;
  std::vector<double> round_us(c.stat_block_rounds);
  const double block_host_s = static_cast<double>(c.stat_block_rounds * c.hosts) *
                              pa::util::ns_to_seconds(c.period);
  {
    // kManual runs on one thread; threaded dispatch already spans every CPU.
    const CpuRotation rotation(c.mode == Mode::kManual);
    const std::int64_t start = wall_ns();
    const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
    std::int64_t now = start;
    while (now - start < budget || block_rate.size() < kMinBlocks) {
      rotation.pin_for_block(block_rate.size());
      const double cpu0 = process_cpu_s();
      const std::int64_t block_start = now;
      for (double& us : round_us) {
        const std::int64_t t0 = now;
        bench->round();
        now = wall_ns();
        us = static_cast<double>(now - t0) * 1e-3;
      }
      block_rate.push_back(block_host_s / (static_cast<double>(now - block_start) * 1e-9));
      block_cpu.push_back((process_cpu_s() - cpu0) * 1e3 / block_host_s);
      block_p50.push_back(percentile(round_us, 0.50));
      block_p99.push_back(percentile(round_us, 0.99));
    }
  }
  bench->finish();
  check_delivery(*bench, checks);

  const double governed_watts = bench->governed_fleet_watts();
  const std::uint64_t attempted = checks.attempted;
  const double delivered_pct =
      100.0 * (1.0 - static_cast<double>(checks.missed) / static_cast<double>(attempted));
  bench.reset();

  check_outputs(args, c, model, probes, checks, &quality);

  result.metric("host_sim_s_per_s", percentile(block_rate, 0.25), "host-s/s");
  result.metric("round_us_p50", percentile(block_p50, 0.75), "us");
  result.metric("round_us_p99", percentile(block_p99, 0.75), "us");
  result.metric("cpu_ms_per_host_sim_s", percentile(block_cpu, 0.75), "ms/host-s");
  result.metric("setup_s", percentile(setup_s, 0.75), "s");
  result.metric("peak_rss_mb", peak_rss_mb(), "MB");
  result.metric("estimate_mape_pct", quality.mape_pct, "%");
  result.metric("sim_j_per_ginstr", quality.j_per_ginstr, "J/Ginstr");
  result.metric("delivered_reports_pct", delivered_pct, "%");
  std::fprintf(stderr,
               "perfbench: %s seed=%" PRIu64 " rounds=%zu digest=%016" PRIx64
               " governed_fleet_watts=%.1f\n",
               c.name.c_str(), args.seed, block_rate.size() * c.stat_block_rounds, quality.digest,
               governed_watts);
  result.print(checks.ok, attempted, checks.failed);
  return 0;
}

// ---------------------------------------------------------------------------
// The traced run: per-layer metrics.

int run_traced(const Args& args, const Config& c) {
  Probes probes;
  Result result;
  Checks checks;
  const pa::model::CpuPowerModel model = train_model();

  // The output check runs first: it also settles every one-time lazy
  // initialisation, which would otherwise land in the first counted window.
  check_outputs(args, c, model, probes, checks, nullptr);

  // Exact counters over the quality window, on two fresh fleets of the same
  // seed: every count must repeat exactly, and the second fleet (always
  // kManual) must reproduce the first's per-host series.
  auto bench = std::make_unique<BenchFleet>(c, args.seed, model, c.mode, probes);
  const Quality q = run_quality(*bench, probes, /*count=*/true);
  const std::uint64_t swaps_q = bench->swaps();
  const std::uint64_t actuations_q = bench->governor_actuations();
  const std::uint64_t obs_spans_q = bench->obs_spans();
  {
    BenchFleet again(c, args.seed, model, Mode::kManual, probes);
    const Quality r = run_quality(again, probes, true);
    again.finish();
    if (r.host_digests != q.host_digests) checks.fail("per-host digests differ between runs");
    const bool same = r.messages == q.messages && r.os_calls == q.os_calls &&
                      r.allocs[0] == q.allocs[0] && r.allocs[1] == q.allocs[1] &&
                      r.alloc_bytes[0] == q.alloc_bytes[0] &&
                      r.alloc_bytes[1] == q.alloc_bytes[1] && again.swaps() == swaps_q &&
                      again.governor_actuations() == actuations_q &&
                      again.obs_spans() == obs_spans_q;
    if (c.mode == Mode::kManual && !same) {
      std::fprintf(stderr,
                   "perfbench: run 1 vs 2: msgs %" PRIu64 "/%" PRIu64 " calls %" PRIu64
                   "/%" PRIu64 " allocs %" PRIu64 "/%" PRIu64 " os allocs %" PRIu64 "/%" PRIu64
                   " bytes %" PRIu64 "/%" PRIu64 " swaps %" PRIu64 "/%" PRIu64
                   " actuations %" PRIu64 "/%" PRIu64 " spans %" PRIu64 "/%" PRIu64 "\n",
                   q.messages, r.messages, q.os_calls, r.os_calls, q.allocs[0], r.allocs[0],
                   q.allocs[1], r.allocs[1], q.alloc_bytes[0], r.alloc_bytes[0], swaps_q,
                   again.swaps(), actuations_q, again.governor_actuations(), obs_spans_q,
                   again.obs_spans());
      checks.fail("exact counters differ between two runs of one seed");
    }
  }
  const auto ht = static_cast<double>(q.host_ticks);

  // Timed phase: alternating untraced and traced blocks of rounds.
  std::vector<Span> bench_spans;
  double untraced_wall = 0.0;
  double traced_wall = 0.0;
  std::size_t untraced_rounds = 0;
  std::size_t traced_rounds = 0;
  double lead_ns = 0.0;
  double tail_ns = 0.0;
  double traced_cpu_s = 0.0;     // Whole process, traced blocks.
  double traced_main_cpu_s = 0.0;  // The driving thread alone.
  std::uint64_t advance0 = 0;
  std::uint64_t gather0 = 0;
  for (const auto& host : bench->hosts()) {
    advance0 += host->advance_ns();
    gather0 += host->gather_ns();
  }
  const std::uint64_t gov_ns0 = bench->governor().tick_ns;
  const std::uint64_t wire_bytes0 = bench->wire_stats().bytes_sent;
  const std::uint64_t wire_sent0 = bench->wire_stats().records_sent;
  if (WireSink* sink = bench->wire_sink()) sink->collect_lag = true;
  const std::size_t span_rounds = 200;
  const auto budget = static_cast<std::int64_t>(args.seconds * 1e9);
  const std::int64_t start = wall_ns();
  bool traced = false;
  while (wall_ns() - start < budget || traced_rounds == 0) {
    probes.timing.store(traced);
    const double cpu0 = process_cpu_s();
    const double main_cpu0 = thread_cpu_s();
    for (std::size_t r = 0; r < c.trace_block_rounds; ++r) {
      probes.spans.store(traced && traced_rounds < span_rounds);
      probes.capture.store(traced && traced_rounds < span_rounds);
      const std::int64_t t0 = wall_ns();
      bench->round();
      const std::int64_t t1 = wall_ns();
      if (!traced) {
        untraced_wall += static_cast<double>(t1 - t0);
        ++untraced_rounds;
        continue;
      }
      traced_wall += static_cast<double>(t1 - t0);
      ++traced_rounds;
      std::int64_t first_advance = t1;
      std::int64_t last_report = t0;
      for (const auto& host : bench->hosts()) {
        first_advance = std::min(first_advance, host->advance_start_ns());
        last_report = std::max(last_report, host->report_ns());
      }
      lead_ns += static_cast<double>(first_advance - t0);
      tail_ns += static_cast<double>(t1 - last_report);
      if (probes.spans.load()) {
        LayerScope scope(Layer::kBench);
        bench_spans.push_back({"round", -1, t0, t1 - t0});
      }
    }
    if (traced) {
      traced_cpu_s += process_cpu_s() - cpu0;
      traced_main_cpu_s += thread_cpu_s() - main_cpu0;
    }
    traced = !traced;
  }
  probes.timing.store(false);
  probes.spans.store(false);
  probes.capture.store(false);
  std::uint64_t advance_ns = 0;
  std::uint64_t gather_ns = 0;
  for (const auto& host : bench->hosts()) {
    advance_ns += host->advance_ns();
    gather_ns += host->gather_ns();
  }
  bench->take_spans(bench_spans);
  advance_ns -= advance0;
  gather_ns -= gather0;
  // Governor ticks fall in traced and untraced blocks alike; charge the
  // traced share by round count.
  const double gov_ns = static_cast<double>(bench->governor().tick_ns - gov_ns0) *
                        static_cast<double>(traced_rounds) /
                        static_cast<double>(traced_rounds + untraced_rounds);
  const double traced_ticks = static_cast<double>(traced_rounds * c.hosts);
  // Everything the process spent CPU on in traced rounds that is not the
  // os layer or the governor: sensors, formulas, aggregators, reporters and
  // actor hops (plus, threaded, the dispatcher's own spinning; rack_day,
  // the between-round churn, trace drain and wire pump). In kManual the
  // process is one busy thread, so this equals round wall time minus
  // advance, gather and governor time.
  const double chain_self_ns =
      traced_cpu_s * 1e9 - static_cast<double>(advance_ns + gather_ns) - gov_ns;
  // Threaded: the workers' CPU share; kManual: the driving thread's.
  const double worker_cpu_s =
      c.mode == Mode::kThreaded ? traced_cpu_s - traced_main_cpu_s : traced_cpu_s;
  const double worker_busy_pct =
      100.0 * worker_cpu_s * 1e9 / (traced_wall * static_cast<double>(c.workers));
  const double rate_untraced = static_cast<double>(untraced_rounds) / untraced_wall;
  const double rate_traced = static_cast<double>(traced_rounds) / traced_wall;

  const KernelTimes kernels = replay_kernels(*bench, model);
  const auto wire = bench->wire_stats();
  std::vector<double> lags_us;
  if (WireSink* sink = bench->wire_sink()) {
    for (const std::int64_t lag : sink->lags_ns) lags_us.push_back(static_cast<double>(lag) * 1e-3);
  }
  bench->finish();
  check_delivery(*bench, checks);

  result.metric("os.advance_us_per_host_tick", static_cast<double>(advance_ns) * 1e-3 / traced_ticks,
                "us");
  result.metric("os.gather_us_per_host_tick", static_cast<double>(gather_ns) * 1e-3 / traced_ticks,
                "us");
  result.metric("os.calls_per_host_tick", static_cast<double>(q.os_calls) / ht, "count");
  result.metric("os.allocs_per_host_tick", static_cast<double>(q.allocs[1]) / ht, "count");
  result.metric("powerapi.chain_self_us_per_host_tick", chain_self_ns * 1e-3 / traced_ticks, "us");
  result.metric("powerapi.allocs_per_host_tick", static_cast<double>(q.allocs[0]) / ht, "count");
  result.metric("powerapi.alloc_bytes_per_host_tick", static_cast<double>(q.alloc_bytes[0]) / ht,
                "B");
  result.metric("powerapi.calibration_swaps", static_cast<double>(swaps_q), "count");
  result.metric("actors.msgs_per_host_tick", static_cast<double>(q.messages) / ht, "count");
  result.metric("actors.dead_letters", static_cast<double>(checks.dead_letters), "count");
  result.metric("actors.dispatch_lead_us_per_round",
                lead_ns * 1e-3 / static_cast<double>(traced_rounds), "us");
  result.metric("actors.barrier_tail_us_per_round",
                tail_ns * 1e-3 / static_cast<double>(traced_rounds), "us");
  result.metric("actors.worker_busy_pct", worker_busy_pct, "%");
  result.metric("model.features_ns_per_row", kernels.features_ns_per_row, "ns");
  result.metric("model.sweep_ns_per_row", kernels.sweep_ns_per_row, "ns");
  result.metric("governor.tick_us",
                bench->governor().ticks > 0
                    ? static_cast<double>(bench->governor().tick_ns) * 1e-3 /
                          static_cast<double>(bench->governor().ticks)
                    : 0.0,
                "us");
  result.metric("governor.actuations", static_cast<double>(actuations_q), "count");
  result.metric("obs.spans_per_host_tick", static_cast<double>(obs_spans_q) / ht, "count");
  result.metric("obs.spans_dropped", static_cast<double>(bench->obs_spans_dropped()), "count");
  result.metric("net.bytes_per_record",
                wire.records_sent > wire_sent0
                    ? static_cast<double>(wire.bytes_sent - wire_bytes0) /
                          static_cast<double>(wire.records_sent - wire_sent0)
                    : 0.0,
                "B");
  result.metric("net.records_dropped", static_cast<double>(wire.records_dropped), "count");
  result.metric("net.delivery_lag_us_p50", percentile(lags_us, 0.5), "us");
  result.metric("missed_reports_pct",
                100.0 * static_cast<double>(checks.missed) / static_cast<double>(checks.attempted),
                "%");
  result.metric("bench.trace_overhead_pct", 100.0 * (rate_untraced - rate_traced) / rate_untraced,
                "%");
  if (!args.trace_out.empty()) write_chrome_trace(args.trace_out, std::move(bench_spans));
  result.print(checks.ok, checks.attempted, checks.failed);
  return 0;
}

int print_digest(const Config& c) {
  Probes probes;
  const pa::model::CpuPowerModel model = train_model();
  BenchFleet bench(c, kCheckSeed, model, c.mode, probes);
  const Quality q = run_quality(bench, probes, false);
  bench.finish();
  std::printf("%s %016" PRIx64 "\n", c.fleet.c_str(), q.digest);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse(argc, argv);
    const perfbench::Config config = perfbench::config_for(args.workload);
    if (args.print_digest) return perfbench::print_digest(config);
    return args.trace != 0 ? perfbench::run_traced(args, config)
                           : perfbench::run_untraced(args, config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
