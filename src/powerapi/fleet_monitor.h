// FleetMonitor: one actor system monitoring N hosts concurrently.
//
// Each host gets its own pipeline under topic namespace "h<i>/". A round
// advances every host by one step and runs each host's stage chain over the
// ticks that fell due, then settles the actor system so every aggregated
// row has reached its reporters. In kManual a round is a plain loop over
// the hosts in host order; a host's series is bit-for-bit the same as a
// standalone kManual PowerMeter over an identically constructed host. In
// kThreaded one round-driver actor per worker claims hosts from a shared
// cursor (guided self-scheduling: min(hosts_per_chunk, ⌈remaining / 2·
// workers⌉) hosts per claim) and runs them; a host is touched by exactly
// one driver per round, and its chain is the same straight-line code as in
// kManual, so threaded per-host series equal manual by construction —
// unless hosts calibrate against one shared registry: a calibrator reads
// the live registry, so it can see a swap another host made earlier in
// the same round, and under kThreaded that depends on the claim order.
//
// The fleet dimension: a FleetAggregator subscribes to every host's
// "h<i>/power:aggregated" topic and re-publishes per-formula machine-power
// sums across hosts on "fleet/power:aggregated" once all hosts have
// reported a timestamp.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "actors/actor_system.h"
#include "actors/event_bus.h"
#include "obs/observability.h"
#include "powerapi/pipeline.h"
#include "powerapi/reporters.h"

namespace powerapi::api {

class FleetMonitor {
 public:
  struct Options {
    actors::ActorSystem::Mode mode = actors::ActorSystem::Mode::kThreaded;
    std::size_t workers = 4;        ///< Threaded mode only.
    bool fleet_aggregation = true;  ///< Spawn the fleet-dimension aggregator.
    /// Own an obs::Observability bundle and wire it through the actor
    /// system, the event bus and every host pipeline: metrics, stage spans
    /// and the monitor's own CPU/power accounting, exportable via
    /// add_metrics_reporter() and write_chrome_trace().
    bool with_observability = false;
    /// Threaded mode: the most hosts a round driver claims at once (hosts
    /// per dispatcher steal). Claims shrink toward the end of a round so a
    /// late-waking worker cannot strand a whole chunk. 0 is clamped to 1.
    std::size_t hosts_per_chunk = 8;
  };

  FleetMonitor() : FleetMonitor(Options{}) {}
  explicit FleetMonitor(Options options);
  ~FleetMonitor();

  FleetMonitor(const FleetMonitor&) = delete;
  FleetMonitor& operator=(const FleetMonitor&) = delete;

  /// Adds a host under namespace "h<index>/" and returns its index. The
  /// host must outlive the monitor. Add all hosts before the first
  /// run_for().
  std::size_t add_host(os::MonitorableHost& host, PipelineSpec spec);

  /// The host's pipeline: retarget monitoring, attach reporters, etc.
  Pipeline& pipeline(std::size_t host) { return *entries_[host]->pipeline; }

  // Per-host conveniences (mirroring PowerMeter's surface).
  void monitor(std::size_t host, std::vector<std::int64_t> pids);
  void monitor_all(std::size_t host);
  MemoryReporter& add_memory_reporter(std::size_t host);
  void add_callback_reporter(std::size_t host, CallbackReporter::Callback callback);

  /// Reporter over the fleet dimension: rows carry group "(fleet)" and the
  /// per-formula machine power summed across hosts.
  MemoryReporter& add_fleet_reporter();

  /// Forwards one host's aggregated rows to a caller-owned telemetry
  /// client (a distributed agent shipping its output to a collector).
  void add_remote_reporter(std::size_t host, net::TelemetryClient& client);
  /// Forwards the fleet dimension's "(fleet)" rows to the client.
  void add_fleet_remote_reporter(net::TelemetryClient& client);

  /// The fleet's observability bundle; null unless Options.with_observability.
  obs::Observability* observability() noexcept { return obs_.get(); }
  /// Snapshots the whole fleet's metrics to `out` every N ticks of host 0.
  /// Requires with_observability and at least one host.
  void add_metrics_reporter(std::ostream& out,
                            MetricsReporter::Format format = MetricsReporter::Format::kText,
                            std::uint64_t every_n_ticks = 1);
  /// Writes the recorded message-flow trace as Chrome trace_event JSON
  /// (open in chrome://tracing or Perfetto). Requires with_observability.
  void write_chrome_trace(std::ostream& out) const;

  /// Advances every host by `duration` in rounds of the smallest pipeline
  /// period, running due ticks per host per round. Hosts advance and their
  /// chains run concurrently in threaded mode.
  void run_for(util::DurationNs duration);

  /// Like run_for, but invokes `on_chunk(advanced_ns)` after every round has
  /// settled — the fleet is quiescent, so the callback may safely mutate
  /// hosts (the governor's actuation channel) or inject messages; anything
  /// it sends is processed before the next round advances. Deterministic in
  /// kManual: round boundaries depend only on pipeline periods.
  void run_for(util::DurationNs duration,
               const std::function<void(util::DurationNs advanced_ns)>& on_chunk);

  /// Flushes every pipeline's pending aggregation groups, then the fleet
  /// aggregator's; call once after the last run_for.
  void finish();

  std::size_t host_count() const noexcept { return entries_.size(); }
  actors::ActorSystem& actor_system() noexcept { return actors_; }
  actors::EventBus& bus() noexcept { return bus_; }

 private:
  struct HostEntry {
    os::MonitorableHost* host = nullptr;
    std::unique_ptr<Pipeline> pipeline;
    /// The registry snapshot pinned for the current round.
    std::shared_ptr<const model::ModelRegistry::Snapshot> model;

    /// This host's part of a round, the same code in both dispatch modes.
    void step(util::DurationNs step) {
      host->advance(step);
      pipeline->run_due_ticks(model.get());
    }
  };
  struct Round;
  class RoundDriver;

  /// Blocks/drains until the system is quiescent (mode-appropriate).
  void settle();
  /// Advances every host by `step` and runs their due ticks (one round).
  void run_round(util::DurationNs step);

  Options options_;
  /// Declared before actors_/bus_: both unregister from it on destruction.
  std::unique_ptr<obs::Observability> obs_;
  actors::ActorSystem actors_;
  actors::EventBus bus_;
  actors::EventBus::TopicId fleet_topic_;
  std::vector<std::unique_ptr<HostEntry>> entries_;
  std::shared_ptr<std::size_t> host_count_;  ///< Read by the FleetAggregator.
  actors::ActorRef fleet_aggregator_;
  std::unique_ptr<Round> round_;  ///< Threaded mode: the round drivers' claim cursor.
  std::vector<actors::ActorRef> round_drivers_;
  bool finished_ = false;
};

}  // namespace powerapi::api
