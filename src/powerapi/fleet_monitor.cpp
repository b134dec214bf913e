#include "powerapi/fleet_monitor.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "powerapi/remote_reporter.h"

namespace powerapi::api {

/// One threaded round: the step every host advances by, and the cursor
/// the round drivers claim hosts from.
struct FleetMonitor::Round {
  std::vector<HostEntry*> hosts;     ///< Host order.
  util::DurationNs step = 0;
  std::size_t max_claim = 1;         ///< Options.hosts_per_chunk, at least 1.
  std::size_t drivers = 1;
  std::atomic<std::size_t> next{0};  ///< First unclaimed host.

  /// Guided self-scheduling: claims min(max_claim, ⌈remaining / 2·drivers⌉)
  /// hosts; returns false once every host is claimed.
  bool claim(std::size_t& begin, std::size_t& end) {
    begin = next.load(std::memory_order_relaxed);
    std::size_t count = 0;
    do {
      if (begin >= hosts.size()) return false;
      const std::size_t remaining = hosts.size() - begin;
      count = std::min(max_claim, (remaining + 2 * drivers - 1) / (2 * drivers));
    } while (!next.compare_exchange_weak(begin, begin + count, std::memory_order_acq_rel,
                                         std::memory_order_relaxed));
    end = begin + count;
    return true;
  }
};

/// Threaded mode: on every RunRound, claims hosts from the round's cursor
/// until none are left. One driver per worker; a host is advanced by exactly
/// one driver per round.
class FleetMonitor::RoundDriver final : public actors::Actor {
 public:
  struct RunRound {};

  explicit RoundDriver(Round* round) : round_(round) {}

  void receive(actors::Envelope& envelope) override {
    if (envelope.payload.get<RunRound>() == nullptr) return;
    std::size_t begin = 0;
    std::size_t end = 0;
    while (round_->claim(begin, end)) {
      for (std::size_t i = begin; i < end; ++i) round_->hosts[i]->step(round_->step);
    }
  }

 private:
  Round* round_;
};

FleetMonitor::FleetMonitor(Options options)
    : options_(options),
      obs_(options.with_observability ? std::make_unique<obs::Observability>()
                                      : nullptr),
      actors_(options.mode, options.workers, obs_.get()),
      bus_(actors_),
      fleet_topic_(bus_.intern("fleet/power:aggregated")),
      host_count_(std::make_shared<std::size_t>(0)) {
  if (obs_ != nullptr) bus_.set_observability(obs_.get());
  if (options_.fleet_aggregation) {
    fleet_aggregator_ = actors_.spawn_as<FleetAggregator>("fleet-aggregator", bus_,
                                                          fleet_topic_, host_count_);
  }
}

FleetMonitor::~FleetMonitor() {
  finish();
  actors_.shutdown();
  if (actors_.mode() == actors::ActorSystem::Mode::kManual) actors_.drain();
}

std::size_t FleetMonitor::add_host(os::MonitorableHost& host, PipelineSpec spec) {
  const std::size_t index = entries_.size();
  auto entry = std::make_unique<HostEntry>();
  entry->host = &host;
  // The fleet's bundle observes every host pipeline unless the spec brought
  // its own.
  if (obs_ != nullptr && spec.observability == nullptr) {
    spec.observability = obs_.get();
  }
  PipelineBuilder builder(actors_, bus_);
  entry->pipeline = builder.build(host, std::move(spec), "h" + std::to_string(index) + "/");
  if (options_.fleet_aggregation) {
    bus_.subscribe(entry->pipeline->aggregated_topic(), fleet_aggregator_);
  }
  entries_.push_back(std::move(entry));
  *host_count_ = entries_.size();
  return index;
}

void FleetMonitor::monitor(std::size_t host, std::vector<std::int64_t> pids) {
  entries_[host]->pipeline->monitor(std::move(pids));
}

void FleetMonitor::monitor_all(std::size_t host) {
  entries_[host]->pipeline->monitor_all();
}

MemoryReporter& FleetMonitor::add_memory_reporter(std::size_t host) {
  return entries_[host]->pipeline->add_memory_reporter();
}

void FleetMonitor::add_callback_reporter(std::size_t host,
                                         CallbackReporter::Callback callback) {
  entries_[host]->pipeline->add_callback_reporter(std::move(callback));
}

void FleetMonitor::add_remote_reporter(std::size_t host,
                                       net::TelemetryClient& client) {
  entries_[host]->pipeline->add_remote_reporter(client);
}

void FleetMonitor::add_fleet_remote_reporter(net::TelemetryClient& client) {
  if (!options_.fleet_aggregation) {
    throw std::logic_error("FleetMonitor: fleet_aggregation disabled in Options");
  }
  const auto reporter =
      actors_.spawn_as<RemoteReporter>("fleet/reporter-remote", client);
  bus_.subscribe(fleet_topic_, reporter);
}

MemoryReporter& FleetMonitor::add_fleet_reporter() {
  if (!options_.fleet_aggregation) {
    throw std::logic_error("FleetMonitor: fleet_aggregation disabled in Options");
  }
  auto owned = std::make_unique<MemoryReporter>();
  MemoryReporter& ref = *owned;
  const auto reporter = actors_.spawn("fleet/reporter-memory", std::move(owned));
  bus_.subscribe(fleet_topic_, reporter);
  return ref;
}

void FleetMonitor::add_metrics_reporter(std::ostream& out,
                                        MetricsReporter::Format format,
                                        std::uint64_t every_n_ticks) {
  if (obs_ == nullptr) {
    throw std::logic_error(
        "FleetMonitor::add_metrics_reporter: requires Options.with_observability");
  }
  if (entries_.empty()) {
    throw std::logic_error(
        "FleetMonitor::add_metrics_reporter: add a host first (the reporter "
        "snapshots on host 0's ticks)");
  }
  entries_.front()->pipeline->add_metrics_reporter(out, format, every_n_ticks);
}

void FleetMonitor::write_chrome_trace(std::ostream& out) const {
  if (obs_ == nullptr) {
    throw std::logic_error(
        "FleetMonitor::write_chrome_trace: requires Options.with_observability");
  }
  obs_->trace.write_chrome_trace(out);
}

void FleetMonitor::settle() {
  if (actors_.mode() == actors::ActorSystem::Mode::kThreaded) {
    actors_.await_idle();
  } else {
    actors_.drain();
  }
}

void FleetMonitor::run_round(util::DurationNs step) {
  // Pin every host's model first: a calibration swap during this round
  // reaches every host's regression formula from the next round on.
  for (const auto& entry : entries_) {
    const auto& registry = entry->pipeline->registry();
    if (registry != nullptr) entry->model = registry->current();
  }
  if (actors_.mode() == actors::ActorSystem::Mode::kManual) {
    // Each host's rows reach its reporters before the next host runs, so
    // mailboxes hold at most one host's output.
    for (const auto& entry : entries_) {
      entry->step(step);
      actors_.drain();
    }
  } else {
    if (round_ == nullptr) {
      round_ = std::make_unique<Round>();
      round_->drivers = std::max<std::size_t>(options_.workers, 1);
      round_->max_claim = std::max<std::size_t>(options_.hosts_per_chunk, 1);
      for (std::size_t i = 0; i < round_->drivers; ++i) {
        round_drivers_.push_back(actors_.spawn_as<RoundDriver>(
            "fleet/round-driver/" + std::to_string(i), round_.get()));
      }
    }
    round_->hosts.clear();
    for (const auto& entry : entries_) round_->hosts.push_back(entry.get());
    round_->step = step;
    round_->next.store(0, std::memory_order_relaxed);
    // A fleet smaller than the pool wakes only as many drivers as it has
    // hosts: the others would find nothing to claim.
    const std::size_t wake = std::min(round_drivers_.size(), entries_.size());
    for (std::size_t i = 0; i < wake; ++i) {
      actors_.tell(round_drivers_[i], actors::Payload(RoundDriver::RunRound{}));
    }
  }
  settle();  // Barrier: every host advanced, every aggregated row delivered.
}

void FleetMonitor::run_for(util::DurationNs duration) {
  run_for(duration, {});
}

void FleetMonitor::run_for(
    util::DurationNs duration,
    const std::function<void(util::DurationNs advanced_ns)>& on_chunk) {
  if (finished_) throw std::logic_error("FleetMonitor::run_for after finish()");
  if (entries_.empty() || duration <= 0) return;
  // Rounds of the smallest monitoring period, so no host's ticks coalesce
  // beyond what its own PowerMeter-equivalent run would produce.
  util::DurationNs period = entries_.front()->pipeline->ticker().period();
  for (const auto& entry : entries_) {
    period = std::min(period, entry->pipeline->ticker().period());
  }
  util::DurationNs advanced = 0;
  while (advanced < duration) {
    const util::DurationNs step = std::min(period, duration - advanced);
    run_round(step);
    advanced += step;
    if (on_chunk) {
      // The fleet is quiescent here: callbacks may actuate hosts or tell
      // actors; settle again so their effects land before the next chunk.
      on_chunk(advanced);
      settle();
    }
  }
}

void FleetMonitor::finish() {
  if (finished_) return;
  finished_ = true;
  settle();
  // Host aggregators flush first (their pending groups feed the fleet
  // dimension), then the fleet aggregator flushes its partial buckets.
  for (const auto& entry : entries_) entry->pipeline->finish();
  settle();
  if (options_.fleet_aggregation) actors_.stop(fleet_aggregator_);
  settle();
}

}  // namespace powerapi::api
