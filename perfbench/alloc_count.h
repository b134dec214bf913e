// Allocation counting for the benchmark binary: a global operator new
// replacement (alloc_count.cpp) tallies every allocation made while counting
// is on, attributed to the layer the calling thread is currently in. The
// host decorator switches the thread to Layer::kOs around every call into
// the simulated host, and the benchmark's own bookkeeping runs under
// Layer::kBench; everything else (actors, sensors, formulas, aggregators,
// reporters) is charged to the pipeline.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace perfbench {

enum class Layer : std::uint8_t { kPowerapi = 0, kOs = 1, kBench = 2 };
inline constexpr std::size_t kLayerCount = 3;

struct AllocTally {
  std::array<std::uint64_t, kLayerCount> allocs{};
  std::array<std::uint64_t, kLayerCount> bytes{};
};

/// Turns counting on or off process-wide (off at start-up).
void set_alloc_counting(bool on) noexcept;
/// Snapshot of the counters accumulated since start-up.
AllocTally alloc_tally() noexcept;

/// The calling thread's current layer.
Layer current_layer() noexcept;
void set_current_layer(Layer layer) noexcept;

/// Charges allocations in scope to `layer`, restoring the previous layer.
class LayerScope {
 public:
  explicit LayerScope(Layer layer) noexcept : previous_(current_layer()) {
    set_current_layer(layer);
  }
  ~LayerScope() { set_current_layer(previous_); }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  Layer previous_;
};

}  // namespace perfbench
