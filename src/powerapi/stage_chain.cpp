#include "powerapi/stage_chain.h"

#include <stdexcept>
#include <utility>

#include "hpc/sim_backend.h"
#include "periph/disk.h"
#include "periph/nic.h"
#include "powerapi/formulas.h"
#include "util/rng.h"

namespace powerapi::api {

namespace {

constexpr std::string_view kSensorReports = "pipeline.sensor_reports";
constexpr std::string_view kEstimates = "pipeline.estimates";

}  // namespace

StageChain::StageChain(os::MonitorableHost& host, PipelineSpec& spec, const std::string& ns,
                       std::shared_ptr<model::ModelRegistry> registry, Aggregator::Sink sink)
    : host_(&host),
      ns_(ns),
      obs_(spec.observability),
      backend_(std::make_unique<hpc::SimBackend>(host)),
      hpc_(*backend_, &host),
      aggregator_(
          spec.dimension,
          [h = &host](std::int64_t pid) {
            const auto stat = h->proc_stat(pid);
            return stat ? stat->group : std::string();
          },
          std::move(sink), spec.observability) {
  util::Rng rng(spec.seed);
  hpc_sensor_stage_.attach(obs_, kSensorReports, ns_ + "sensor-hpc");
  aggregator_stage_.attach(obs_, {}, ns_ + "aggregator");

  // Formulas are interned in the order the aggregator absorbs them: the
  // meters, the io datasheet, the regression, then the baselines.
  if (spec.with_powerspy) {
    powerspy_ = std::make_unique<powermeter::PowerSpy>(
        [h = host_] { return h->total_energy_joules(); }, [h = host_] { return h->now_ns(); },
        rng.fork(1));
    powerspy_meter_.id = aggregator_.intern("powerspy");
    powerspy_meter_.sensor.attach(obs_, kSensorReports, ns_ + "sensor-powerspy");
    powerspy_meter_.formula.attach(obs_, kEstimates, ns_ + "formula-powerspy");
  }
  if (spec.with_rapl) {
    rapl_.emplace(std::make_shared<powermeter::RaplMsr>(
        [h = host_] { return h->package_energy_joules(); }, [h = host_] { return h->now_ns(); }));
    rapl_meter_.id = aggregator_.intern("rapl");
    rapl_meter_.sensor.attach(obs_, kSensorReports, ns_ + "sensor-rapl");
    rapl_meter_.formula.attach(obs_, kEstimates, ns_ + "formula-rapl");
  }
  if (spec.with_io && host_->disk() != nullptr) {
    io_.emplace(*host_);
    io_id_ = aggregator_.intern("io-datasheet");
    io_sensor_stage_.attach(obs_, kSensorReports, ns_ + "sensor-io");
    io_formula_stage_.attach(obs_, kEstimates, ns_ + "formula-io");
  }
  if (registry != nullptr) {
    with_regression_ = true;
    hpc_id_ = aggregator_.intern("powerapi-hpc");
    hpc_formula_stage_.attach(obs_, kEstimates, ns_ + "formula-hpc");
  }
  for (auto& estimator : spec.estimators) add_estimator(std::move(estimator));

  if (spec.with_calibration) {
    // PowerSpy is the wall-power reference the paper trains against;
    // RAPL (package scope) is the fallback ground truth.
    if (powerspy_) {
      truth_ = &powerspy_meter_;
    } else if (rapl_) {
      truth_ = &rapl_meter_;
    } else {
      throw std::invalid_argument(
          "Pipeline: with_calibration requires with_powerspy or with_rapl");
    }
    calibrator_.emplace(std::move(registry), std::move(spec.calibration));
  }
}

void StageChain::monitor(std::vector<std::int64_t> pids) {
  all_targets_ = false;
  targets_ = std::move(pids);
}

void StageChain::add_estimator(
    std::shared_ptr<const baselines::MachinePowerEstimator> estimator) {
  if (!estimator) throw std::invalid_argument("Pipeline::add_estimator: null estimator");
  Estimator& slot = estimators_.emplace_back();
  const std::string name = estimator->name();
  slot.id = aggregator_.intern(name);
  slot.stage.attach(obs_, kEstimates, ns_ + "formula-" + name);
  slot.estimator = std::move(estimator);
}

std::optional<ModelUpdated> StageChain::run(const MonitorTick& tick,
                                            const model::ModelRegistry::Snapshot* model) {
  const util::TimestampNs now = tick.timestamp;

  // --- Sensors and formulas ---
  const model::FeatureMatrix* features = nullptr;
  {
    const auto span = hpc_sensor_stage_.span(tick.seq);
    if (all_targets_) targets_ = host_->pids();
    features = hpc_.observe(now, targets_);
    if (features != nullptr) hpc_sensor_stage_.count(features->rows());
  }
  const auto read_meter = [&](Meter& meter, auto&& read) {
    {
      const auto span = meter.sensor.span(tick.seq);
      meter.watts = read();
      if (!meter.watts) return;
      meter.sensor.count();
    }
    const auto span = meter.formula.span(tick.seq);
    meter.formula.count();
  };
  if (powerspy_) {
    read_meter(powerspy_meter_, [&]() -> std::optional<double> {
      // Nullopt on a dropped sample or the first (priming) call.
      const auto sample = powerspy_->sample();
      return sample ? std::optional<double>(sample->watts) : std::nullopt;
    });
  }
  if (rapl_) read_meter(rapl_meter_, [&] { return rapl_->observe(now); });
  if (io_) {
    std::optional<IoRates> rates;
    {
      const auto span = io_sensor_stage_.span(tick.seq);
      rates = io_->observe(now);
      if (rates) io_sensor_stage_.count();
    }
    io_watts_.reset();
    if (rates) {
      const auto span = io_formula_stage_.span(tick.seq);
      io_watts_ = io_datasheet_watts(*rates, host_->disk()->params(), host_->nic()->params());
      io_formula_stage_.count();
    }
  }
  // The machine scope is row 0 whenever its window completed.
  const bool machine_row = features != nullptr && features->pid(0) == kMachinePid;
  if (with_regression_ && features != nullptr) {
    const auto span = hpc_formula_stage_.span(tick.seq);
    estimate_regression_rows(model->model, *features, hpc_watts_);
    hpc_formula_stage_.count(features->rows());
  }
  // Baselines are machine models: only the machine row feeds them.
  for (Estimator& slot : estimators_) {
    slot.watts.reset();
    if (!machine_row) continue;
    const auto span = slot.stage.span(tick.seq);
    slot.watts = slot.estimator->estimate(features->row(0));
    slot.stage.count();
  }

  // --- Calibration: a swap lands in the registry, seen from the next pin ---
  std::optional<ModelUpdated> update;
  if (calibrator_ && machine_row && truth_->watts) {
    update = calibrator_->observe(now, features->row(0), *truth_->watts);
  }

  // --- Aggregation, in formula order ---
  const auto span = aggregator_stage_.span(tick.seq);
  const auto absorb = [&](Aggregator::FormulaId id, std::int64_t pid, double watts,
                          std::uint64_t version = 0) {
    aggregator_.absorb(id, now, pid, watts, tick.seq, tick.wall_ns, version);
  };
  if (powerspy_meter_.watts) absorb(powerspy_meter_.id, kMachinePid, *powerspy_meter_.watts);
  if (rapl_meter_.watts) absorb(rapl_meter_.id, kMachinePid, *rapl_meter_.watts);
  if (io_watts_) absorb(io_id_, kMachinePid, *io_watts_);
  if (with_regression_ && features != nullptr) {
    for (std::size_t i = 0; i < features->rows(); ++i) {
      absorb(hpc_id_, features->pid(i), hpc_watts_[i], model->version);
    }
  }
  for (const Estimator& slot : estimators_) {
    if (slot.watts) absorb(slot.id, kMachinePid, *slot.watts);
  }
  return update;
}

}  // namespace powerapi::api
