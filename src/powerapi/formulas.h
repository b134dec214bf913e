// Formula stages: turn sensor readings into watts.
//
// Formulas are plain functions a host's StageChain calls right after its
// sensors (see stage_chain.h). Direct meters (PowerSpy, RAPL) need no
// formula: their measured watts are the estimate, with the meter's scope.
#pragma once

#include <vector>

#include "model/feature_matrix.h"
#include "model/power_model.h"
#include "periph/disk.h"
#include "periph/nic.h"
#include "powerapi/sensors.h"

namespace powerapi::api {

/// The paper's formula: per-frequency linear regression over HPC rates,
/// evaluated as a coefficient sweep down the rate lanes. `watts[i]` belongs
/// to `features.pid(i)`. Machine rows get idle + activity; process rows get
/// activity only (the paper attributes the idle floor to the machine, not
/// to any process). An empty model (cold-start calibration: nothing learned
/// yet) estimates the idle floor only.
void estimate_regression_rows(const model::CpuPowerModel& model,
                              const model::FeatureMatrix& features, std::vector<double>& watts);

/// Datasheet-based IO power formula: unlike CPU cores, disk and NIC power
/// characteristics are published by their vendors, so the component model
/// needs no regression — base power plus per-op and per-byte energies from
/// the device parameters. Returns the machine-scope peripheral power share
/// (the "io-datasheet" series).
double io_datasheet_watts(const IoRates& rates, const periph::DiskParams& disk,
                          const periph::NicParams& nic);

}  // namespace powerapi::api
