// Declarative monitoring-pipeline assembly.
//
// The paper's toolkit is composable middleware: Sensor → Formula →
// Aggregator → Reporter. PipelineSpec (stage_chain.h) is the declarative
// description of one host's graph (which sensors, which formulas, how to
// aggregate); PipelineBuilder compiles it over any os::MonitorableHost into
// a Pipeline — the runtime handle that runs ticks through the host's
// StageChain, retargets monitoring and attaches reporters.
//
// Topic namespaces make the graph multi-host capable: a standalone
// PowerMeter builds under the empty namespace ("power:aggregated"), a
// FleetMonitor builds host i under "h<i>/" ("h3/power:aggregated"), so N
// independent pipelines share one actor system and one bus without
// crosstalk. All topics are interned once at build time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "actors/actor_system.h"
#include "actors/event_bus.h"
#include "actors/timers.h"
#include "baselines/estimator.h"
#include "model/model_registry.h"
#include "obs/observability.h"
#include "os/monitorable_host.h"
#include "powerapi/calibration.h"
#include "powerapi/messages.h"
#include "powerapi/obs_reporter.h"
#include "powerapi/reporters.h"
#include "powerapi/stage_chain.h"
#include "util/units.h"

namespace powerapi::net {
class TelemetryClient;
}  // namespace powerapi::net

namespace powerapi::api {

/// One assembled pipeline over one host: the handle PowerMeter and
/// FleetMonitor drive. Owns the host's StageChain and the tick schedule;
/// the reporter actors live in the shared ActorSystem.
class Pipeline {
 public:
  Pipeline(actors::ActorSystem& actors, actors::EventBus& bus,
           os::MonitorableHost& host, PipelineSpec spec, std::string ns);

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  // --- Targets ---
  /// Monitors the given pids (plus, always, the machine scope).
  void monitor(std::vector<std::int64_t> pids);
  /// Monitors every live process, tracked dynamically.
  void monitor_all();

  // --- Driving ---
  /// Runs one tick through the stage chain per period elapsed on the host
  /// clock since the last call (catch-up semantics). Returns the number of
  /// ticks. The regression formula reads `model`, a registry snapshot the
  /// caller holds (a fleet pins one per host per round); null reads the
  /// registry's current snapshot at the start of the call. A MonitorTick
  /// is published on the bus only when something subscribes to the tick
  /// topic (a metrics reporter).
  std::uint64_t run_due_ticks(const model::ModelRegistry::Snapshot* model = nullptr);

  // --- Attachments (before the first tick, ideally) ---
  void add_estimator(std::shared_ptr<const baselines::MachinePowerEstimator> estimator);
  void add_console_reporter(std::ostream& out);
  void add_csv_reporter(std::ostream& out);
  void add_callback_reporter(CallbackReporter::Callback callback);
  MemoryReporter& add_memory_reporter();
  /// Invokes `callback` after every calibration swap (ModelUpdated).
  /// Throws if the pipeline was built without with_calibration.
  void add_model_update_callback(ModelUpdateCallback::Callback callback);
  /// Writes a metrics-registry snapshot to `out` every `every_n_ticks`
  /// ticks (plus a final one at shutdown). `out` must outlive the actor
  /// system: the final flush runs when the reporter actor stops. Throws if
  /// the pipeline was built without spec.observability.
  void add_metrics_reporter(std::ostream& out,
                            MetricsReporter::Format format = MetricsReporter::Format::kText,
                            std::uint64_t every_n_ticks = 1);
  /// Forwards every aggregated row to a caller-owned telemetry client —
  /// this pipeline's output becomes visible to a remote CollectorServer.
  /// The client must outlive the actor system.
  void add_remote_reporter(net::TelemetryClient& client);

  // --- Lifecycle ---
  /// Flushes the aggregator's pending groups onto the bus; idempotent. The
  /// caller still drains / awaits the actor system.
  void finish();

  const std::string& topic_namespace() const noexcept { return ns_; }
  actors::EventBus::TopicId tick_topic() const noexcept { return tick_topic_; }
  actors::EventBus::TopicId aggregated_topic() const noexcept {
    return aggregated_topic_;
  }
  /// "calibration:updated" topic; only valid with with_calibration.
  actors::EventBus::TopicId calibration_topic() const noexcept {
    return calibration_topic_;
  }
  /// The registry the regression formula reads through; null when the
  /// pipeline was built with neither a model nor a registry.
  const std::shared_ptr<model::ModelRegistry>& registry() const noexcept {
    return registry_;
  }
  os::MonitorableHost& host() noexcept { return *host_; }
  const actors::Ticker& ticker() const noexcept { return ticker_; }
  obs::Observability* observability() const noexcept { return obs_; }

 private:
  actors::ActorSystem* actors_;
  actors::EventBus* bus_;
  os::MonitorableHost* host_;
  std::string ns_;
  std::shared_ptr<model::ModelRegistry> registry_;
  actors::Ticker ticker_;
  actors::EventBus::TopicId tick_topic_;
  actors::EventBus::TopicId aggregated_topic_;
  actors::EventBus::TopicId calibration_topic_{};
  bool with_calibration_ = false;
  bool finished_ = false;

  // Observability (null / 0 when the spec carried no bundle).
  obs::Observability* obs_ = nullptr;
  std::uint64_t next_seq_ = 0;
  obs::Counter* tick_counter_ = nullptr;
  obs::TraceCollector::NameId tick_name_ = 0;

  std::unique_ptr<StageChain> chain_;
};

/// Assembles Pipelines over a shared actor system + bus. One builder can
/// build many pipelines (FleetMonitor builds one per host).
class PipelineBuilder {
 public:
  PipelineBuilder(actors::ActorSystem& actors, actors::EventBus& bus)
      : actors_(&actors), bus_(&bus) {}

  /// Builds `spec` over `host` under topic namespace `ns` ("" for a
  /// standalone pipeline, "h3/" inside a fleet).
  std::unique_ptr<Pipeline> build(os::MonitorableHost& host, PipelineSpec spec,
                                  std::string ns = {}) {
    return std::make_unique<Pipeline>(*actors_, *bus_, host, std::move(spec),
                                      std::move(ns));
  }

 private:
  actors::ActorSystem* actors_;
  actors::EventBus* bus_;
};

}  // namespace powerapi::api
