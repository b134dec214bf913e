// Aggregation: the last stage of a host's chain groups estimates along a
// dimension (the paper names PID and timestamp) before they reach
// reporters; FleetAggregator sums hosts into the fleet dimension.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "actors/actor.h"
#include "actors/event_bus.h"
#include "powerapi/messages.h"
#include "powerapi/stage_obs.h"

namespace powerapi::api {

enum class AggregationDimension {
  kTimestamp,  ///< Sum all targets of a formula per timestamp (machine view).
  kPid,        ///< Forward one row per (pid, timestamp) (per-process view).
  kGroup,      ///< Sum per process group — the cgroup/VM view.
};

/// A host's aggregation stage. Formulas are interned to small ids once, at
/// build time; pending groups live in a vector indexed by that id, so a
/// steady tick allocates nothing here. Rows leave through the sink (the
/// pipeline publishes them on its "power:aggregated" topic).
class Aggregator {
 public:
  using FormulaId = std::uint32_t;
  /// Resolves a pid to its group label (kGroup dimension only); processes
  /// whose resolver returns "" aggregate under the empty group.
  using GroupResolver = std::function<std::string(std::int64_t pid)>;
  using Sink = std::function<void(AggregatedPower&&)>;

  Aggregator(AggregationDimension dimension, GroupResolver group_of, Sink sink,
             obs::Observability* obs = nullptr);

  /// The id of `formula`; equal names share one id (and so one group).
  FormulaId intern(std::string_view formula);

  /// One estimate row entering the dimension logic. A formula's group is
  /// emitted when a row with a newer timestamp arrives (a tick's rows always
  /// precede the next tick's).
  void absorb(FormulaId formula, util::TimestampNs timestamp, std::int64_t pid, double watts,
              std::uint64_t seq, std::int64_t tick_wall_ns, std::uint64_t model_version = 0);

  /// Emits every pending group, formulas in name order (end of monitoring).
  void flush();

 private:
  struct GroupSum {
    std::string label;
    double watts = 0.0;
    bool live = false;
  };
  struct Slot {
    std::string name;
    bool pending = false;
    util::TimestampNs timestamp = 0;
    std::uint64_t seq = 0;           ///< Tick seq of the grouped estimates.
    std::int64_t tick_wall_ns = 0;   ///< Wall time the tick was published.
    std::uint64_t model_version = 0;
    // kTimestamp: the formula's sum under construction.
    double sum_watts = 0.0;
    bool has_machine_row = false;
    double machine_watts = 0.0;
    // kGroup: per-label sums, sorted by label (the emission order).
    std::vector<GroupSum> groups;
  };

  void emit(Slot& slot);
  void emit_row(AggregatedPower&& row);
  GroupSum& group_sum(Slot& slot, std::int64_t pid);

  AggregationDimension dimension_;
  GroupResolver group_of_;
  Sink sink_;
  std::vector<Slot> slots_;  ///< Indexed by FormulaId.
  StageObs stage_;
  /// End-to-end pipeline latency: tick publish → aggregated row emit.
  obs::Histogram* tick_to_aggregate_ = nullptr;
};

/// Sums machine-scope aggregated rows across hosts per (formula, timestamp)
/// and emits a "(fleet)" row once every host has reported — order-robust
/// under concurrent dispatch, where host pipelines interleave arbitrarily.
///
/// `host_count` is shared with the owner so hosts can join before the first
/// tick; FleetMonitor subscribes one of these to every host's
/// "h<i>/power:aggregated", and a telemetry collector subscribes one to the
/// BusBridge's merged "remote/power:aggregated" — the fleet dimension is the
/// same whether the rows crossed a wire or not.
class FleetAggregator final : public actors::Actor {
 public:
  FleetAggregator(actors::EventBus& bus, actors::EventBus::TopicId out_topic,
                  std::shared_ptr<const std::size_t> host_count)
      : bus_(&bus), out_topic_(out_topic), host_count_(std::move(host_count)) {}

  void receive(actors::Envelope& envelope) override;

  /// Flushes buckets still waiting on stragglers (end of monitoring).
  void post_stop() override;

 private:
  struct Bucket {
    double watts = 0.0;
    std::size_t hosts = 0;
    std::uint64_t seq = 0;
  };

  void emit(const std::string& formula, util::TimestampNs timestamp,
            const Bucket& bucket);

  actors::EventBus* bus_;
  actors::EventBus::TopicId out_topic_;
  std::shared_ptr<const std::size_t> host_count_;
  std::map<std::pair<std::string, util::TimestampNs>, Bucket> pending_;
};

}  // namespace powerapi::api
