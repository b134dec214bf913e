#include "powerapi/aggregators.h"

#include <algorithm>

namespace powerapi::api {

Aggregator::Aggregator(AggregationDimension dimension, GroupResolver group_of, Sink sink,
                       obs::Observability* obs)
    : dimension_(dimension), group_of_(std::move(group_of)), sink_(std::move(sink)) {
  stage_.attach(obs, "pipeline.aggregated_rows");
  if (obs != nullptr) {
    tick_to_aggregate_ = &obs->metrics.histogram("pipeline.tick_to_aggregate_ns");
  }
}

Aggregator::FormulaId Aggregator::intern(std::string_view formula) {
  for (FormulaId id = 0; id < slots_.size(); ++id) {
    if (slots_[id].name == formula) return id;
  }
  slots_.push_back(Slot{std::string(formula)});
  return static_cast<FormulaId>(slots_.size() - 1);
}

void Aggregator::emit_row(AggregatedPower&& row) {
  sink_(std::move(row));
  stage_.count();
}

void Aggregator::emit(Slot& slot) {
  if (dimension_ == AggregationDimension::kGroup) {
    for (GroupSum& sum : slot.groups) {
      if (!sum.live) continue;
      emit_row({slot.timestamp, kMachinePid, sum.label, slot.name, sum.watts, slot.seq,
                slot.model_version});
      sum.watts = 0.0;
      sum.live = false;
    }
  } else {
    // Prefer the machine-scope estimate when the formula produced one (it
    // includes the idle floor); otherwise sum the per-process estimates.
    emit_row({slot.timestamp, kMachinePid, {}, slot.name,
              slot.has_machine_row ? slot.machine_watts : slot.sum_watts, slot.seq,
              slot.model_version});
  }
  slot.pending = false;
  if (tick_to_aggregate_ != nullptr && slot.tick_wall_ns != 0 && stage_.active()) {
    tick_to_aggregate_->record(obs::wall_now_ns() - slot.tick_wall_ns);
  }
}

Aggregator::GroupSum& Aggregator::group_sum(Slot& slot, std::int64_t pid) {
  std::string label;
  if (pid == kMachinePid) {
    label = "(machine)";
  } else if (group_of_) {
    label = group_of_(pid);
  }
  const auto it = std::lower_bound(
      slot.groups.begin(), slot.groups.end(), label,
      [](const GroupSum& sum, const std::string& key) { return sum.label < key; });
  if (it != slot.groups.end() && it->label == label) return *it;
  return *slot.groups.insert(it, GroupSum{std::move(label)});
}

void Aggregator::absorb(FormulaId formula, util::TimestampNs timestamp, std::int64_t pid,
                        double watts, std::uint64_t seq, std::int64_t tick_wall_ns,
                        std::uint64_t model_version) {
  Slot& slot = slots_[formula];
  if (dimension_ == AggregationDimension::kPid) {
    // Per-PID view: forward every row unchanged.
    emit_row({timestamp, pid, {}, slot.name, watts, seq, model_version});
    if (tick_to_aggregate_ != nullptr && tick_wall_ns != 0 && stage_.active()) {
      tick_to_aggregate_->record(obs::wall_now_ns() - tick_wall_ns);
    }
    return;
  }
  if (slot.pending && timestamp > slot.timestamp) emit(slot);
  if (dimension_ == AggregationDimension::kGroup) {
    // A group bucket takes the latest row's stamps.
    slot.pending = true;
    slot.timestamp = timestamp;
    slot.seq = seq;
    slot.tick_wall_ns = tick_wall_ns;
    slot.model_version = model_version;
    GroupSum& sum = group_sum(slot, pid);
    sum.watts += watts;
    sum.live = true;
    return;
  }
  if (!slot.pending) {
    slot.pending = true;
    slot.timestamp = timestamp;
    slot.seq = seq;
    slot.tick_wall_ns = tick_wall_ns;
    slot.model_version = model_version;
    slot.sum_watts = 0.0;
    slot.has_machine_row = false;
    slot.machine_watts = 0.0;
  }
  if (pid == kMachinePid) {
    slot.has_machine_row = true;
    slot.machine_watts = watts;
  } else {
    slot.sum_watts += watts;
  }
}

void Aggregator::flush() {
  std::vector<Slot*> by_name;
  for (Slot& slot : slots_) by_name.push_back(&slot);
  std::sort(by_name.begin(), by_name.end(),
            [](const Slot* a, const Slot* b) { return a->name < b->name; });
  for (Slot* slot : by_name) {
    if (slot->pending) emit(*slot);
  }
}

void FleetAggregator::receive(actors::Envelope& envelope) {
  const auto* row = envelope.payload.get<AggregatedPower>();
  if (row == nullptr) return;
  // Fleet dimension sums the per-host machine view; per-pid and per-group
  // rows stay host-local.
  if (row->pid != kMachinePid || !row->group.empty()) return;
  Bucket& bucket = pending_[{row->formula, row->timestamp}];
  bucket.watts += row->watts;
  bucket.seq = row->seq;
  ++bucket.hosts;
  if (bucket.hosts >= *host_count_) {
    emit(row->formula, row->timestamp, bucket);
    pending_.erase({row->formula, row->timestamp});
  }
}

void FleetAggregator::post_stop() {
  for (const auto& [key, bucket] : pending_) emit(key.first, key.second, bucket);
  pending_.clear();
}

void FleetAggregator::emit(const std::string& formula, util::TimestampNs timestamp,
                           const Bucket& bucket) {
  AggregatedPower out;
  out.timestamp = timestamp;
  out.pid = kMachinePid;
  out.group = "(fleet)";
  out.formula = formula;
  out.watts = bucket.watts;
  out.seq = bucket.seq;
  bus_->publish(out_topic_, std::move(out), self());
}

}  // namespace powerapi::api
