// Glue between google-benchmark and the BENCH_<name>.json sidecar emitter
// in harness.h: a console reporter that also captures every run, and a
// main() body shared by the micro-benchmark binaries.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness.h"
#include "util/logging.h"

namespace powerapi::benchx {

/// Unit label of a google-benchmark time unit.
inline const char* time_unit_label(benchmark::TimeUnit unit) {
  switch (unit) {
    case benchmark::kNanosecond: return "ns";
    case benchmark::kMicrosecond: return "us";
    case benchmark::kMillisecond: return "ms";
    case benchmark::kSecond: return "s";
  }
  return "ns";
}

/// Console output as usual, plus capture of every run for the JSON sidecar.
///
/// Sidecar rates are always wall-clock: google-benchmark divides
/// items_per_second by the main thread's CPU time unless the fixture set
/// UseRealTime(), which overstates any fixture whose work runs on other
/// threads. Times carry the fixture's own unit (Unit(kMillisecond) → "ms").
/// The "/real_time" suffix gbench appends to UseRealTime() runs is dropped,
/// so a metric keeps its name whichever clock its fixture selected.
class JsonTeeReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    static constexpr std::string_view kRealTimeSuffix = "/real_time";
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      BenchMetric metric;
      metric.name = run.benchmark_name();
      const bool real_time = metric.name.size() > kRealTimeSuffix.size() &&
                             metric.name.ends_with(kRealTimeSuffix);
      if (real_time) metric.name.resize(metric.name.size() - kRealTimeSuffix.size());
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        metric.value = items->second;
        if (!real_time && run.real_accumulated_time > 0.0) {
          metric.value *= run.cpu_accumulated_time / run.real_accumulated_time;
        }
        metric.unit = "items/s";
      } else {
        metric.value = run.GetAdjustedRealTime();
        metric.unit = time_unit_label(run.time_unit);
      }
      metric.iterations = static_cast<std::uint64_t>(run.iterations);
      const std::string base_name = metric.name;
      metrics_.push_back(std::move(metric));
      // User-defined counters become their own metrics so deterministic
      // quantities (e.g. the governor's joules-per-work delta) can be
      // gated by bench_diff.py alongside the timing numbers.
      for (const auto& [counter_name, counter] : run.counters) {
        if (counter_name == "items_per_second" ||
            counter_name == "bytes_per_second") {
          continue;
        }
        BenchMetric extra;
        extra.name = base_name + "/" + counter_name;
        extra.value = counter;
        extra.unit = "counter";
        extra.iterations = static_cast<std::uint64_t>(run.iterations);
        metrics_.push_back(std::move(extra));
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<BenchMetric>& metrics() const noexcept { return metrics_; }

 private:
  std::vector<BenchMetric> metrics_;
};

/// Runs the registered benchmarks and writes BENCH_<json_name>.json.
inline int run_benchmarks_with_json(int argc, char** argv, const std::string& json_name) {
  util::configure_logging(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  write_bench_json(json_name, reporter.metrics());
  return 0;
}

}  // namespace powerapi::benchx
