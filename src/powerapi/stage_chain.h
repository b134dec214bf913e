// StageChain: one host's sensor → formula → calibration → aggregator
// pipeline as straight-line code.
//
// The paper's toolkit (Figure 2) draws Sensors, Formulas and Aggregators as
// actors. Inside one host those stages form a static chain: every tick runs
// the same stages in the same order, and each stage's output feeds only the
// next stage of the same host. PipelineBuilder therefore compiles a
// PipelineSpec into a StageChain of plain objects and runs it per tick with
// plain calls; buffers are reused across ticks because nothing queues
// between stages. Actors stay at the edges, where fan-out or concurrency is
// real: AggregatedPower rows (reporters, the fleet dimension, remote and
// governor relays) and ModelUpdated swaps cross the event bus.
//
// Per tick, in order:
//   sensor-hpc        HPC window + feature extraction (one FeatureMatrix)
//   sensor-powerspy → formula-powerspy   wall meter, pass-through watts
//   sensor-rapl     → formula-rapl       package meter, pass-through watts
//   sensor-io       → formula-io         IO rates → datasheet watts
//   formula-hpc       the paper's regression over the feature rows
//   formula-<name>    baseline estimators, machine row only
//   calibration       pairs machine features with meter watts, may swap
//   aggregator        absorbs the formulas' rows in the order above
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/estimator.h"
#include "hpc/backend.h"
#include "model/model_registry.h"
#include "model/power_model.h"
#include "obs/observability.h"
#include "os/monitorable_host.h"
#include "powerapi/aggregators.h"
#include "powerapi/calibration.h"
#include "powerapi/messages.h"
#include "powerapi/sensors.h"
#include "powerapi/stage_obs.h"
#include "powermeter/powerspy.h"
#include "util/units.h"

namespace powerapi::api {

/// Declarative description of one host's monitoring pipeline.
struct PipelineSpec {
  util::DurationNs period = util::ms_to_ns(250);  ///< Monitoring period.
  bool with_powerspy = true;   ///< Reference wall meter ("powerspy" series).
  bool with_rapl = false;      ///< Emulated RAPL package meter ("rapl").
  /// IO sensor + datasheet formula ("io-datasheet" series); only emits on
  /// hosts built with peripherals.
  bool with_io = false;
  AggregationDimension dimension = AggregationDimension::kTimestamp;
  std::uint64_t seed = 7;      ///< Seeds the meter noise stream.
  /// The paper's regression formula; empty → no "powerapi-hpc" series
  /// (unless `registry` is set, which wins).
  model::CpuPowerModel model;
  /// Shared model registry. When set, this pipeline's regression formula
  /// reads through it (and `model` is ignored) — a fleet passes the SAME
  /// registry to every host's spec so all hosts share one immutable model
  /// snapshot instead of owning per-host copies. When null, the pipeline
  /// wraps `model` in a private registry.
  std::shared_ptr<model::ModelRegistry> registry;
  /// Online calibration: pair hpc features with meter ground truth, refit
  /// on drift and hot-swap the registry. Requires a registry (or `model`)
  /// plus a ground-truth meter (powerspy preferred, else rapl).
  bool with_calibration = false;
  CalibrationOptions calibration;  ///< Tuning for with_calibration.
  /// Baseline formulas fed by the hpc sensor (cpu-load, Bertran, HAPPY).
  std::vector<std::shared_ptr<const baselines::MachinePowerEstimator>> estimators;
  /// Self-observability bundle (non-owning; must outlive the pipeline).
  /// When set, ticks carry sequence ids, every stage records spans and
  /// throughput counters, and add_metrics_reporter() becomes available.
  obs::Observability* observability = nullptr;
};

class StageChain {
 public:
  /// Builds the stages `spec` asks for over `host`; span names carry the
  /// topic namespace `ns`. `registry` (may be null: no regression formula)
  /// is the one the pipeline resolved from the spec. Aggregated rows leave
  /// through `sink`.
  StageChain(os::MonitorableHost& host, PipelineSpec& spec, const std::string& ns,
             std::shared_ptr<model::ModelRegistry> registry, Aggregator::Sink sink);

  /// Monitors the given pids (plus, always, the machine scope).
  void monitor(std::vector<std::int64_t> pids);
  /// Monitors every live process, tracked dynamically.
  void monitor_all() { all_targets_ = true; }
  /// Appends a baseline formula fed by the hpc features' machine row.
  void add_estimator(std::shared_ptr<const baselines::MachinePowerEstimator> estimator);

  /// Runs one tick through every stage. `model` is the registry snapshot
  /// the regression formula uses (pinned by the caller; null without a
  /// registry). Returns the ModelUpdated when calibration swapped.
  std::optional<ModelUpdated> run(const MonitorTick& tick,
                                  const model::ModelRegistry::Snapshot* model);

  /// Emits the aggregator's pending groups (end of monitoring).
  void flush() { aggregator_.flush(); }

 private:
  struct Estimator {
    std::shared_ptr<const baselines::MachinePowerEstimator> estimator;
    Aggregator::FormulaId id = 0;
    StageObs stage;
    std::optional<double> watts;  ///< This tick's machine estimate.
  };

  /// A direct meter's pass-through formula: measured watts are the estimate.
  struct Meter {
    Aggregator::FormulaId id = 0;
    StageObs sensor;
    StageObs formula;
    std::optional<double> watts;  ///< This tick's reading.
  };

  os::MonitorableHost* host_;
  std::string ns_;
  obs::Observability* obs_;
  std::unique_ptr<hpc::CounterBackend> backend_;
  bool all_targets_ = false;
  std::vector<std::int64_t> targets_;

  HpcSensor hpc_;
  StageObs hpc_sensor_stage_;
  std::unique_ptr<powermeter::PowerSpy> powerspy_;
  Meter powerspy_meter_;
  std::optional<RaplSensor> rapl_;
  Meter rapl_meter_;
  std::optional<IoSensor> io_;
  Aggregator::FormulaId io_id_ = 0;
  StageObs io_sensor_stage_;
  StageObs io_formula_stage_;
  std::optional<double> io_watts_;
  bool with_regression_ = false;
  Aggregator::FormulaId hpc_id_ = 0;
  StageObs hpc_formula_stage_;
  std::vector<double> hpc_watts_;
  std::vector<Estimator> estimators_;
  std::optional<Calibrator> calibrator_;
  const Meter* truth_ = nullptr;  ///< Calibration ground truth.
  Aggregator aggregator_;
  StageObs aggregator_stage_;
};

}  // namespace powerapi::api
