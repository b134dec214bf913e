// Per-stage observability hooks shared by the pipeline stages.
//
// Every stage of a host's chain owns one StageObs, attached at build time
// when the pipeline was built with an Observability bundle. It provides the
// two things a stage records per host-tick: a Chrome-trace span named after
// the stage ("h3/sensor-hpc"; correlated across stages by the tick seq id)
// and a throughput counter. Unattached (or disabled) stages pay one branch
// per call — the pipeline works identically without observability.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/observability.h"

namespace powerapi::api {

class StageObs {
 public:
  StageObs() = default;

  /// `obs` is non-owning and may be null (stage not observed). The counter
  /// ("pipeline.sensor_reports", "pipeline.estimates", ...) and the span
  /// name are interned once; an empty name skips that half.
  void attach(obs::Observability* obs, std::string_view counter_name,
              std::string_view span_name = {}) {
    obs_ = obs;
    if (obs_ == nullptr) return;
    if (!counter_name.empty()) counter_ = &obs_->metrics.counter(counter_name);
    if (!span_name.empty()) name_id_ = obs_->trace.intern(span_name);
  }

  bool active() const noexcept { return obs_ != nullptr && obs_->enabled(); }

  /// Span covering one tick's pass through the stage.
  obs::ScopedSpan span(std::uint64_t seq) {
    if (name_id_ == 0 || !active()) return obs::ScopedSpan(nullptr, 0, 0);
    return obs::ScopedSpan(&obs_->trace, name_id_, seq);
  }

  void count(std::uint64_t n = 1) {
    if (counter_ != nullptr && obs_->enabled()) counter_->add(n);
  }

 private:
  obs::Observability* obs_ = nullptr;
  obs::TraceCollector::NameId name_id_ = 0;
  obs::Counter* counter_ = nullptr;
};

}  // namespace powerapi::api
