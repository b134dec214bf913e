#include "powerapi/formulas.h"

namespace powerapi::api {

void estimate_regression_rows(const model::CpuPowerModel& model,
                              const model::FeatureMatrix& features, std::vector<double>& watts) {
  watts.assign(features.rows(), 0.0);
  if (!model.empty()) model.estimate_activity_rows(features, watts);
  // Machine rows carry the idle floor on top of activity (idle + activity,
  // in that order).
  for (std::size_t i = 0; i < features.rows(); ++i) {
    if (features.pid(i) < 0) watts[i] = model.idle_watts() + watts[i];
  }
}

double io_datasheet_watts(const IoRates& rates, const periph::DiskParams& disk,
                          const periph::NicParams& nic) {
  // Base power assumes the common steady states (platters spinning, link
  // awake); transition states (spin-up surges, LPI) are below this formula's
  // resolution — deliberately, as a datasheet model would be.
  double watts = disk.idle_spinning_watts + nic.link_active_watts;
  watts += rates.disk_iops * disk.joules_per_op;
  watts += rates.disk_bytes_per_sec / 1e6 * disk.joules_per_megabyte;
  // Without a tx/rx split in the counters, charge the average of the two.
  watts += rates.net_bytes_per_sec / 1e6 *
           (nic.joules_per_megabyte_tx + nic.joules_per_megabyte_rx) / 2.0;
  return watts;
}

}  // namespace powerapi::api
