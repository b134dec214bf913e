#include "powerapi/sensors.h"

#include <algorithm>
#include <utility>

#include "powerapi/messages.h"
#include "util/logging.h"

namespace powerapi::api {

// --- HpcSensor ---

void HpcSensor::realign_rows(std::span<const std::int64_t> targets) {
  // The target set changed: rebuild the row layout, carrying surviving
  // targets' windows (previous-snapshot row + primed/last-time state) over
  // by pid so they keep reporting without a re-prime gap.
  realign_pids_.assign(1, kMachinePid);
  realign_pids_.insert(realign_pids_.end(), targets.begin(), targets.end());
  const std::size_t rows = realign_pids_.size();
  realign_lanes_.resize(rows);
  realign_last_time_.assign(rows, 0);
  realign_primed_.assign(rows, 0);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < pids_.size(); ++j) {
      if (pids_[j] != realign_pids_[i]) continue;
      realign_lanes_.copy_row_from(prev_, j, i);
      realign_last_time_[i] = last_time_[j];
      realign_primed_[i] = primed_[j];
      break;
    }
  }
  std::swap(prev_, realign_lanes_);
  last_time_.swap(realign_last_time_);
  primed_.swap(realign_primed_);
  pids_.swap(realign_pids_);
}

const model::FeatureMatrix* HpcSensor::observe(util::TimestampNs now,
                                               std::span<const std::int64_t> targets) {
  // Row layout: machine scope first, then this tick's targets.
  if (pids_.size() != targets.size() + 1 ||
      !std::equal(targets.begin(), targets.end(), pids_.begin() + 1)) {
    realign_rows(targets);
  }
  const std::size_t rows = pids_.size();

  const bool extended = backend_->read_rows(pids_, cur_);
  if (!extended && host_ != nullptr) {
    // The backend only fills generic event lanes (e.g. a real perf
    // backend): source the SMT co-residency and cpu-time side lanes from
    // the host interface.
    for (std::size_t i = 0; i < rows; ++i) {
      if (!cur_.live()[i]) continue;
      if (pids_[i] < 0) {
        cur_.lane(simcpu::CounterLanes::kSmtLane)[i] =
            host_->machine_counters().smt_shared_cycles;
        cur_.cpu_time()[i] = 0;
      } else if (const auto stat = host_->proc_stat(pids_[i])) {
        cur_.lane(simcpu::CounterLanes::kSmtLane)[i] = stat->counters.smt_shared_cycles;
        cur_.cpu_time()[i] = stat->cpu_time_ns;
      }
    }
  }

  // Per-row window state machine — SamplingWindow semantics, row-parallel:
  // a dead target drops its window (re-primes when it returns), a
  // regressed cumulative quantity re-primes from the new baseline, the
  // priming observation completes no window, and a non-advancing timestamp
  // is ignored without rolling state.
  window_seconds_.assign(rows, 1.0);  // Placeholder divisor for idle rows.
  completed_.assign(rows, 0);
  std::size_t completed_count = 0;
  for (std::size_t i = 0; i < rows; ++i) {
    if (!cur_.live()[i]) {
      POWERAPI_LOG_DEBUG("sensor.hpc")
          << "read failed for pid " << pids_[i] << " — dropping window";
      primed_[i] = 0;
      continue;
    }
    if (primed_[i]) {
      bool regressed = cur_.cpu_time()[i] < prev_.cpu_time()[i];
      for (std::size_t l = 0; l < simcpu::CounterLanes::kLanes; ++l) {
        regressed = regressed || cur_.lane(l)[i] < prev_.lane(l)[i];
      }
      if (regressed) {
        POWERAPI_LOG_DEBUG("sensor.hpc")
            << "counters regressed for pid " << pids_[i] << " — re-priming";
        primed_[i] = 0;
      }
    }
    if (!primed_[i]) {
      prev_.copy_row_from(cur_, i, i);
      last_time_[i] = now;
      primed_[i] = 1;
      continue;
    }
    if (now <= last_time_[i]) continue;
    window_seconds_[i] = util::ns_to_seconds(now - last_time_[i]);
    completed_[i] = 1;
    ++completed_count;
  }
  if (completed_count == 0) return nullptr;

  const double frequency_hz = host_ != nullptr ? host_->system_stat().frequency_hz : 0.0;
  const std::size_t hw_threads = host_ != nullptr ? host_->hw_threads() : 0;
  out_.frequency_hz = frequency_hz;
  if (completed_count == rows) {
    // Steady state: every row completed — extract straight into the output
    // matrix, whole lanes at a time.
    out_.resize(rows);
    std::copy(pids_.begin(), pids_.end(), out_.pids());
    model::extract_features_rows(cur_, prev_, window_seconds_.data(), hw_threads, out_);
  } else {
    // Mixed tick (a priming or dead row among completed ones): extract
    // full-width into scratch, then compact the completed rows.
    extract_scratch_.frequency_hz = frequency_hz;
    extract_scratch_.resize(rows);
    std::copy(pids_.begin(), pids_.end(), extract_scratch_.pids());
    model::extract_features_rows(cur_, prev_, window_seconds_.data(), hw_threads,
                                 extract_scratch_);
    out_.resize(completed_count);
    std::size_t out_row = 0;
    for (std::size_t i = 0; i < rows; ++i) {
      if (!completed_[i]) continue;
      for (std::size_t l = 0; l < model::FeatureMatrix::kLanes; ++l) {
        out_.lane(l)[out_row] = extract_scratch_.lane(l)[i];
      }
      out_.pids()[out_row] = pids_[i];
      ++out_row;
    }
  }
  if (host_ == nullptr) {
    // Without a host there is no utilization signal.
    double* util_lane = out_.lane(model::FeatureMatrix::kUtilizationLane);
    std::fill(util_lane, util_lane + out_.rows(), 0.0);
  }

  // Roll the completed rows' windows forward (primed rows already rolled).
  for (std::size_t i = 0; i < rows; ++i) {
    if (!completed_[i]) continue;
    prev_.copy_row_from(cur_, i, i);
    last_time_[i] = now;
  }
  return &out_;
}

// --- RaplSensor ---

std::optional<double> RaplSensor::observe(util::TimestampNs now) {
  if (!msr_->available()) return std::nullopt;
  const std::uint32_t raw = msr_->read_energy_status();
  const auto completed = window_.advance(now, raw);
  if (!completed) return std::nullopt;
  return powermeter::RaplMsr::energy_between(completed->previous, raw) / completed->seconds;
}

// --- IoSensor ---

std::optional<IoRates> IoSensor::observe(util::TimestampNs now) {
  if (host_->disk() == nullptr) return std::nullopt;  // No peripherals on this host.

  const os::IoTotals totals = host_->io_totals();
  // Same underflow guard as the HPC sensor: cumulative IO counters going
  // backwards means the source reset (device re-probe, counter wrap at the
  // OS boundary). Differencing across that would report a negative rate —
  // re-prime from the new baseline instead.
  if (window_.primed()) {
    const os::IoTotals& last = window_.last();
    if (totals.disk_ops < last.disk_ops || totals.disk_bytes < last.disk_bytes ||
        totals.net_bytes < last.net_bytes) {
      POWERAPI_LOG_DEBUG("sensor.io") << "io totals regressed — re-priming";
      window_.reset();
    }
  }
  const auto completed = window_.advance(now, totals);
  if (!completed) return std::nullopt;
  const double window_s = completed->seconds;
  const os::IoTotals& last = completed->previous;
  IoRates rates;
  rates.disk_iops = (totals.disk_ops - last.disk_ops) / window_s;
  rates.disk_bytes_per_sec = (totals.disk_bytes - last.disk_bytes) / window_s;
  rates.net_bytes_per_sec = (totals.net_bytes - last.net_bytes) / window_s;
  return rates;
}

}  // namespace powerapi::api
