// Online model calibration: the in-pipeline learn→deploy loop.
//
// The offline Trainer (Figure 1) learns the per-frequency regression once,
// against a hermetic stress sweep; counter-based models drift as the real
// workload mix departs from that sweep. The Calibrator closes the loop
// inside the running pipeline: a stage of the host's chain, called right
// after the formulas, it pairs the HPC sensor's machine-scope features with
// the meter's ground-truth watts of the same tick (PowerSpy or RAPL),
// accumulates per-frequency streaming regressions, and — when the rolling
// estimate-vs-ground-truth error drifts beyond a threshold — refits and
// atomically swaps the ModelRegistry the regression formula reads through.
// A warmup gate keeps an under-determined fit from ever being swapped in.
//
//   hpc features ──┐
//                  ├─→ Calibrator ──(registry.publish)──→ regression formula
//   meter watts ───┘       │                               (from the next tick)
//                          └─→ "calibration:updated" (ModelUpdated)
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "actors/actor.h"
#include "hpc/events.h"
#include "mathx/incremental_ols.h"
#include "model/feature_vector.h"
#include "model/model_registry.h"
#include "util/units.h"

namespace powerapi::api {

struct CalibrationOptions {
  /// Events the refit formulas regress over; empty → the paper's three
  /// generic counters.
  std::vector<hpc::EventId> events;
  /// Warmup gate: a frequency bin is only refit once its accumulator has
  /// this many paired samples AND is numerically well-determined.
  std::size_t min_samples_per_fit = 16;
  /// Rolling |estimate − ground truth| window length (paired samples).
  std::size_t drift_window = 12;
  /// Mean rolling error (watts) beyond which a refit is forced.
  double drift_threshold_watts = 2.0;
  /// Floor between swaps, on the host clock — keeps calibration cheap even
  /// when the error stays high (e.g. an unlearnable workload).
  util::DurationNs min_refit_interval = util::seconds_to_ns(2);
  /// Recursive-least-squares forgetting factor per paired sample, (0, 1].
  /// 1 keeps all history; smaller re-weights toward recent windows.
  double forgetting = 1.0;
  /// Constrain refit coefficients to be non-negative (as the Trainer does:
  /// a watt cannot be refunded per event).
  bool non_negative = true;
};

/// Published on "calibration:updated" after every registry swap.
struct ModelUpdated {
  util::TimestampNs timestamp = 0;
  std::uint64_t version = 0;            ///< The registry version swapped in.
  double pre_swap_error_watts = 0.0;    ///< Rolling error that triggered it.
  std::size_t samples_used = 0;         ///< Paired samples absorbed so far.
  std::size_t bins_refit = 0;           ///< Frequency bins with new formulas.
};

/// Maintains one IncrementalOls per observed frequency bin from the paired
/// (features, measured watts) samples of each tick, and swaps the registry
/// on drift. The swap is an atomic publish, so the chain's formulas see it
/// from their next pinned snapshot on.
class Calibrator {
 public:
  Calibrator(std::shared_ptr<model::ModelRegistry> registry, CalibrationOptions options);

  /// Absorbs one tick's machine-scope features and ground-truth watts.
  /// Returns the swap's ModelUpdated when this sample triggered one.
  std::optional<ModelUpdated> observe(util::TimestampNs timestamp,
                                      const model::FeatureVector& features,
                                      double measured_watts);

 private:
  struct Bin {
    double frequency_hz = 0.0;
    mathx::IncrementalOls accumulator;
  };

  /// Frequency bins are quantized to MHz: governors dither around ladder
  /// points, and sub-MHz distinctions would shatter the sample budget.
  static std::int64_t bin_key(double hz) noexcept {
    return static_cast<std::int64_t>(hz / 1e6 + 0.5);
  }

  std::optional<ModelUpdated> refit(util::TimestampNs timestamp,
                                    const model::FeatureVector& latest);

  std::shared_ptr<model::ModelRegistry> registry_;
  CalibrationOptions options_;

  std::map<std::int64_t, Bin> bins_;
  std::vector<double> row_;  ///< Per-sample regression row, reused.
  std::deque<double> drift_errors_;
  double drift_error_sum_ = 0.0;
  std::uint64_t paired_samples_ = 0;
  std::optional<util::TimestampNs> last_refit_;
};

/// Invokes a user callback per ModelUpdated — how examples and embedders
/// observe swaps (Pipeline::add_model_update_callback spawns one).
class ModelUpdateCallback final : public actors::Actor {
 public:
  using Callback = std::function<void(const ModelUpdated&)>;
  explicit ModelUpdateCallback(Callback callback) : callback_(std::move(callback)) {}

  void receive(actors::Envelope& envelope) override {
    if (const auto* update = envelope.payload.get<ModelUpdated>()) callback_(*update);
  }

 private:
  Callback callback_;
};

}  // namespace powerapi::api
