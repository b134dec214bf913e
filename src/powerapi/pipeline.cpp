#include "powerapi/pipeline.h"

#include <stdexcept>
#include <utility>

#include "powerapi/remote_reporter.h"

namespace powerapi::api {

Pipeline::Pipeline(actors::ActorSystem& actors, actors::EventBus& bus,
                   os::MonitorableHost& host, PipelineSpec spec, std::string ns)
    : actors_(&actors),
      bus_(&bus),
      host_(&host),
      ns_(std::move(ns)),
      registry_(std::move(spec.registry)),
      ticker_(host.now_ns(), spec.period),
      tick_topic_(bus.intern(ns_ + "tick")),
      aggregated_topic_(bus.intern(ns_ + "power:aggregated")),
      with_calibration_(spec.with_calibration),
      obs_(spec.observability) {
  if (obs_ != nullptr) {
    tick_counter_ = &obs_->metrics.counter("pipeline.ticks");
    tick_name_ = obs_->trace.intern(ns_ + "tick");
  }
  if (with_calibration_) calibration_topic_ = bus.intern(ns_ + "calibration:updated");

  // A private registry wraps the spec's model unless the caller shares one
  // (a fleet passing the same registry to every host). Calibration from a
  // cold start gets an idle-only version 1 to improve on.
  if (registry_ == nullptr && (!spec.model.empty() || spec.with_calibration)) {
    registry_ = std::make_shared<model::ModelRegistry>(std::move(spec.model));
  }
  chain_ = std::make_unique<StageChain>(
      host, spec, ns_, registry_,
      [bus = bus_, topic = aggregated_topic_](AggregatedPower&& row) {
        bus->publish(topic, std::move(row));
      });
}

void Pipeline::monitor(std::vector<std::int64_t> pids) { chain_->monitor(std::move(pids)); }

void Pipeline::monitor_all() { chain_->monitor_all(); }

std::uint64_t Pipeline::run_due_ticks(const model::ModelRegistry::Snapshot* model) {
  const util::TimestampNs now = host_->now_ns();
  const std::uint64_t due = ticker_.due(now);
  if (due == 0) return 0;
  std::shared_ptr<const model::ModelRegistry::Snapshot> current;
  if (model == nullptr && registry_ != nullptr) {
    current = registry_->current();
    model = current.get();
  }
  const bool observed = obs_ != nullptr && obs_->enabled();
  const bool tick_subscribed = bus_->subscriber_count(tick_topic_) > 0;
  for (std::uint64_t i = 0; i < due; ++i) {
    MonitorTick tick{now};
    if (observed) {
      tick.seq = ++next_seq_;
      tick.wall_ns = obs::wall_now_ns();
      tick_counter_->add();
      obs_->trace.instant(tick_name_, tick.wall_ns, tick.seq);
    }
    if (tick_subscribed) bus_->publish(tick_topic_, tick);
    const auto update = chain_->run(tick, model);
    if (update && bus_->subscriber_count(calibration_topic_) > 0) {
      bus_->publish(calibration_topic_, *update);
    }
  }
  return due;
}

void Pipeline::add_estimator(
    std::shared_ptr<const baselines::MachinePowerEstimator> estimator) {
  chain_->add_estimator(std::move(estimator));
}

void Pipeline::add_console_reporter(std::ostream& out) {
  const auto reporter = actors_->spawn_as<ConsoleReporter>(ns_ + "reporter-console", out);
  bus_->subscribe(aggregated_topic_, reporter);
}

void Pipeline::add_csv_reporter(std::ostream& out) {
  const auto reporter = actors_->spawn_as<CsvReporter>(ns_ + "reporter-csv", out);
  bus_->subscribe(aggregated_topic_, reporter);
}

void Pipeline::add_callback_reporter(CallbackReporter::Callback callback) {
  const auto reporter = actors_->spawn_as<CallbackReporter>(ns_ + "reporter-callback",
                                                            std::move(callback));
  bus_->subscribe(aggregated_topic_, reporter);
}

void Pipeline::add_model_update_callback(ModelUpdateCallback::Callback callback) {
  if (!with_calibration_) {
    throw std::logic_error(
        "Pipeline::add_model_update_callback: built without with_calibration");
  }
  const auto listener = actors_->spawn_as<ModelUpdateCallback>(
      ns_ + "calibration-listener", std::move(callback));
  bus_->subscribe(calibration_topic_, listener);
}

void Pipeline::add_metrics_reporter(std::ostream& out, MetricsReporter::Format format,
                                    std::uint64_t every_n_ticks) {
  if (obs_ == nullptr) {
    throw std::logic_error(
        "Pipeline::add_metrics_reporter: built without spec.observability");
  }
  MetricsReporter::Options options;
  options.out = &out;
  options.format = format;
  options.every_n_ticks = every_n_ticks;
  const auto reporter =
      actors_->spawn_as<MetricsReporter>(ns_ + "reporter-metrics", *obs_, options);
  bus_->subscribe(tick_topic_, reporter);
}

void Pipeline::add_remote_reporter(net::TelemetryClient& client) {
  const auto reporter =
      actors_->spawn_as<RemoteReporter>(ns_ + "reporter-remote", client);
  bus_->subscribe(aggregated_topic_, reporter);
}

MemoryReporter& Pipeline::add_memory_reporter() {
  auto owned = std::make_unique<MemoryReporter>();
  MemoryReporter& ref = *owned;
  const auto reporter = actors_->spawn(ns_ + "reporter-memory", std::move(owned));
  bus_->subscribe(aggregated_topic_, reporter);
  return ref;
}

void Pipeline::finish() {
  if (finished_) return;
  finished_ = true;
  chain_->flush();
}

}  // namespace powerapi::api
