// Versioned, hot-swappable power-model storage.
//
// The learn→deploy loop needs two things the old "every formula owns a
// CpuPowerModel copy" design could not give: (1) one immutable model shared
// by every consumer (a fleet's 32 regression formulas reference one snapshot
// instead of 32 copies), and (2) atomic replacement while the pipeline is
// running (the calibration stage publishes a refit without stopping a tick).
//
// Snapshots are immutable `shared_ptr<const Snapshot>` swapped atomically;
// readers pin whichever snapshot they loaded for the duration of one
// estimate, so a swap never invalidates an in-flight read. Every snapshot
// carries a monotonically increasing version so estimates can be traced to
// the model that produced them.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "model/power_model.h"

namespace powerapi::model {

class ModelRegistry {
 public:
  using Version = std::uint64_t;

  /// One immutable (version, model) pair. Readers hold it by shared_ptr.
  struct Snapshot {
    Version version = 0;
    CpuPowerModel model;
  };

  /// The initial model becomes version 1.
  explicit ModelRegistry(CpuPowerModel initial);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The current snapshot; never null. Lock-free on the reader side up to
  /// the shared_ptr refcount.
  std::shared_ptr<const Snapshot> current() const noexcept {
    return current_.load(std::memory_order_acquire);
  }

  /// Latest published version (1 at construction).
  Version version() const noexcept { return current()->version; }

  /// Atomically replaces the model with `next`; returns the new version.
  Version publish(CpuPowerModel next);

 private:
  std::atomic<std::shared_ptr<const Snapshot>> current_;
  std::atomic<Version> next_version_;
};

}  // namespace powerapi::model
