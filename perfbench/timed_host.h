// TimedHost: the benchmark's outside seam into the os layer.
//
// A decorator over os::MonitorableHost that forwards every call to a
// simulated os::System. With timing on it accumulates, per host, the wall
// time and call count of advance() (the scheduler, simcpu and workloads)
// and of every observation the pipeline makes (counter gathers, process
// table, machine stats, energy reads), records spans in memory, and can
// capture the counter lanes the HPC sensor gathers. With timing off the
// same decorator only forwards, so traced and untraced runs drive the
// identical call graph.
//
// Accumulators are relaxed atomics: in threaded dispatch a host's chunk
// agent (advance) and its sensor actors (observations) may run on
// different workers. The benchmark reads them only after a round settles.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "alloc_count.h"
#include "os/system.h"

namespace perfbench {

inline std::int64_t wall_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded span (Chrome trace "X" event); `host` < 0 for fleet-wide
/// spans such as whole rounds.
struct Span {
  const char* name = "";
  int host = -1;
  std::int64_t start_ns = 0;
  std::int64_t dur_ns = 0;
};

/// Process-wide switches, flipped by the benchmark between rounds.
struct Probes {
  std::atomic<bool> timing{false};  ///< Accumulate time and call counts.
  std::atomic<bool> spans{false};   ///< Also keep spans in memory.
  std::atomic<bool> capture{false}; ///< Copy gathered counter lanes.
};

class TimedHost final : public powerapi::os::MonitorableHost {
 public:
  using Pid = powerapi::os::Pid;

  /// `period` is the pipeline's monitoring period: ground-truth energy is
  /// kept per period boundary.
  TimedHost(powerapi::os::System& system, int index, powerapi::util::DurationNs period,
            const Probes& probes)
      : system_(&system), index_(index), period_(period), probes_(&probes) {}

  powerapi::os::System& system() noexcept { return *system_; }

  // --- Observations (the pipeline's gather layer) ---
  std::vector<Pid> pids() const override {
    return observe([&] { return system_->pids(); });
  }
  std::optional<powerapi::os::ProcStat> proc_stat(Pid pid) const override {
    return observe([&] { return system_->proc_stat(pid); });
  }
  powerapi::os::SystemStat system_stat() const override {
    return observe([&] { return system_->system_stat(); });
  }
  powerapi::util::TimestampNs now_ns() const override {
    return observe([&] { return system_->now_ns(); });
  }
  const powerapi::simcpu::CounterBlock& machine_counters() const override {
    return observe([&]() -> const powerapi::simcpu::CounterBlock& {
      return system_->machine_counters();
    });
  }
  std::size_t hw_threads() const override {
    return observe([&] { return system_->hw_threads(); });
  }
  double total_energy_joules() const override {
    return observe([&] { return system_->total_energy_joules(); });
  }
  double package_energy_joules() const override {
    return observe([&] { return system_->package_energy_joules(); });
  }
  const powerapi::os::IoTotals& io_totals() const override {
    return observe([&]() -> const powerapi::os::IoTotals& { return system_->io_totals(); });
  }
  const powerapi::periph::DiskModel* disk() const override {
    return observe([&] { return system_->disk(); });
  }
  const powerapi::periph::NicModel* nic() const override {
    return observe([&] { return system_->nic(); });
  }
  void gather_counter_lanes(std::span<const Pid> targets,
                            powerapi::simcpu::CounterLanes& out) const override {
    observe([&] { system_->gather_counter_lanes(targets, out); });
    if (probes_->capture.load(std::memory_order_relaxed) && captured_.size() < kMaxCaptures) {
      LayerScope bench(Layer::kBench);
      captured_.push_back(out);
    }
  }

  // --- Time control (the os/simcpu/workloads layer) ---
  void advance(powerapi::util::DurationNs duration) override {
    const bool timing = probes_->timing.load(std::memory_order_relaxed);
    const std::int64_t start = timing ? wall_ns() : 0;
    {
      LayerScope os(Layer::kOs);
      system_->advance(duration);
    }
    // Ground truth for the estimate-error metric, read straight from the
    // simulator (not through the counted observation path).
    TruthSample& slot = truth_[ring_slot(system_->now_ns())];
    slot.timestamp = system_->now_ns();
    slot.energy_joules = system_->total_energy_joules();
    if (!timing) return;
    const std::int64_t end = wall_ns();
    advance_ns_.fetch_add(static_cast<std::uint64_t>(end - start), std::memory_order_relaxed);
    advance_start_ns_.store(start, std::memory_order_relaxed);
    record_span("advance", start, end);
  }

  // --- Per-host accumulators (read after the round settles) ---
  std::uint64_t advance_ns() const noexcept { return advance_ns_.load(std::memory_order_relaxed); }
  std::uint64_t gather_ns() const noexcept { return gather_ns_.load(std::memory_order_relaxed); }
  std::uint64_t gather_calls() const noexcept {
    return gather_calls_.load(std::memory_order_relaxed);
  }
  /// Wall time the host's last advance() started (timing on only).
  std::int64_t advance_start_ns() const noexcept {
    return advance_start_ns_.load(std::memory_order_relaxed);
  }
  /// Stamped by the host's callback reporter on every aggregated row.
  void stamp_report(std::int64_t at_ns) noexcept {
    report_ns_.store(at_ns, std::memory_order_relaxed);
  }
  std::int64_t report_ns() const noexcept { return report_ns_.load(std::memory_order_relaxed); }

  /// Ground-truth whole-system energy at the tick boundary `timestamp`
  /// (within the last few rounds); false when no longer retained.
  bool truth_energy(powerapi::util::TimestampNs timestamp, double& joules) const noexcept {
    const TruthSample& slot = truth_[ring_slot(timestamp)];
    if (slot.timestamp != timestamp) return false;
    joules = slot.energy_joules;
    return true;
  }

  const std::vector<powerapi::simcpu::CounterLanes>& captured_lanes() const noexcept {
    return captured_;
  }

  /// Moves this host's recorded spans into `out`.
  void take_spans(std::vector<Span>& out) {
    std::lock_guard<std::mutex> lock(spans_mutex_);
    out.insert(out.end(), spans_.begin(), spans_.end());
    spans_.clear();
  }

 private:
  static constexpr std::size_t kRing = 8;
  static constexpr std::size_t kMaxCaptures = 256;

  struct TruthSample {
    powerapi::util::TimestampNs timestamp = -1;
    double energy_joules = 0.0;
  };

  std::size_t ring_slot(powerapi::util::TimestampNs timestamp) const noexcept {
    return static_cast<std::size_t>(timestamp / period_) % kRing;
  }

  template <typename F>
  auto observe(F&& call) const -> decltype(call()) {
    LayerScope os(Layer::kOs);
    if (!probes_->timing.load(std::memory_order_relaxed)) return call();
    const GatherTimer timer(*this);
    return call();
  }

  /// Charges one observation's wall time on destruction.
  class GatherTimer {
   public:
    explicit GatherTimer(const TimedHost& host) noexcept : host_(host), start_(wall_ns()) {}
    ~GatherTimer() {
      const std::int64_t end = wall_ns();
      host_.gather_ns_.fetch_add(static_cast<std::uint64_t>(end - start_),
                                 std::memory_order_relaxed);
      host_.gather_calls_.fetch_add(1, std::memory_order_relaxed);
      host_.record_span("gather", start_, end);
    }
    GatherTimer(const GatherTimer&) = delete;
    GatherTimer& operator=(const GatherTimer&) = delete;

   private:
    const TimedHost& host_;
    std::int64_t start_;
  };

  void record_span(const char* name, std::int64_t start, std::int64_t end) const {
    if (!probes_->spans.load(std::memory_order_relaxed)) return;
    LayerScope bench(Layer::kBench);
    std::lock_guard<std::mutex> lock(spans_mutex_);
    spans_.push_back({name, index_, start, end - start});
  }

  powerapi::os::System* system_;
  int index_;
  powerapi::util::DurationNs period_;
  const Probes* probes_;
  mutable std::atomic<std::uint64_t> advance_ns_{0};
  mutable std::atomic<std::uint64_t> gather_ns_{0};
  mutable std::atomic<std::uint64_t> gather_calls_{0};
  std::atomic<std::int64_t> advance_start_ns_{0};
  std::atomic<std::int64_t> report_ns_{0};
  std::array<TruthSample, kRing> truth_{};
  mutable std::vector<powerapi::simcpu::CounterLanes> captured_;
  mutable std::mutex spans_mutex_;
  mutable std::vector<Span> spans_;
};

}  // namespace perfbench
