#include "exec/operator.h"

#include <bit>

#include "common/logging.h"
#include "common/math_util.h"

namespace fw {

WindowAggregateOperator::WindowAggregateOperator(const Config& config,
                                                 ResultSink* sink)
    : config_(config),
      sink_(sink),
      accumulate_(config.agg != nullptr ? config.agg->accumulate : nullptr),
      accumulate_batch_(config.agg != nullptr ? config.agg->accumulate_batch
                                              : nullptr),
      merge_(config.agg != nullptr ? config.agg->merge : nullptr),
      finalize_(config.agg != nullptr ? config.agg->finalize : nullptr) {
  FW_CHECK(config.agg != nullptr) << "operator needs an aggregate function";
  FW_CHECK(ClassOf(config.agg) != AggClass::kHolistic)
      << "use HolisticWindowOperator for " << config.agg->name;
  FW_CHECK(sink != nullptr || !config.exposed)
      << "exposed operator requires a sink";
  FW_CHECK_GT(config.num_keys, 0u);
}

void WindowAggregateOperator::AddChild(WindowAggregateOperator* child) {
  FW_CHECK(child != nullptr);
  children_.push_back(child);
}

WindowAggregateOperator::Instance WindowAggregateOperator::TakeInstance(
    int64_t m) {
  Instance instance;
  if (instance_pool_.empty()) {
    instance.states.assign(config_.num_keys, AggState{});
    instance.touched.assign((config_.num_keys + 63) / 64, 0);
  } else {
    instance = std::move(instance_pool_.back());
    instance_pool_.pop_back();
  }
  instance.m = m;
  return instance;
}

void WindowAggregateOperator::OnEvent(const Event& event) {
  PrepareRun(event.timestamp);
  FW_CHECK_LT(event.key, config_.num_keys);
  for (Instance& instance : open_) {
    Touch(&instance, event.key);
    accumulate_(&instance.states[event.key], event.value);
    ++accumulate_ops_;
  }
}

TimeT WindowAggregateOperator::PrepareRun(TimeT t) {
  // Instances with end <= t can no longer contain t.
  CloseBefore(t + 1);
  // Open every instance whose span [m*s, m*s + r) contains t: start <= t
  // and end > t, i.e. end_floor = t + 1.
  OpenThrough(/*start_limit=*/t, /*end_floor=*/t + 1);
  // The open set next changes when the oldest instance's end passes (a
  // close) or when the next unopened instance's span begins (an open).
  // Both bounds are > t here: OpenThrough just advanced next_open_start_
  // past start_limit = t, and CloseBefore left only instances ending
  // after t — so every run is non-empty.
  TimeT boundary = next_open_start_;
  if (!open_.empty()) {
    const TimeT front_end = InstanceEnd(open_.front().m);
    if (front_end < boundary) boundary = front_end;
  }
  return boundary;
}

void WindowAggregateOperator::AccumulateRun(const uint32_t* keys,
                                            const double* values,
                                            size_t count) {
  if (count == 0) return;
  if (open_.empty()) {
    // Nothing to fold into (a data gap no instance spans); the per-event
    // path would also do zero accumulate ops here, but keys must still
    // validate.
    for (size_t i = 0; i < count; ++i) FW_CHECK_LT(keys[i], config_.num_keys);
    return;
  }
  if (count == 1) {
    FW_CHECK_LT(keys[0], config_.num_keys);
    for (Instance& instance : open_) {
      Touch(&instance, keys[0]);
      accumulate_(&instance.states[keys[0]], values[0]);
    }
    accumulate_ops_ += open_.size();
    return;
  }
  // Stable counting-sort grouping by key: within a key, values keep their
  // stream order, so folding a group with one batch-kernel call is
  // bitwise identical to the per-event folds (order-sensitive functions
  // like FIRST/LAST included).
  if (group_counts_.size() < config_.num_keys) {
    group_counts_.assign(config_.num_keys, 0);
    group_cursors_.assign(config_.num_keys, 0);
  }
  run_keys_.clear();
  for (size_t i = 0; i < count; ++i) {
    const uint32_t key = keys[i];
    FW_CHECK_LT(key, config_.num_keys);
    if (group_counts_[key]++ == 0) run_keys_.push_back(key);
  }
  const double* grouped = values;
  if (run_keys_.size() > 1) {
    // Scatter values into per-key segments, laid out in first-appearance
    // key order.
    uint32_t base = 0;
    for (const uint32_t key : run_keys_) {
      group_cursors_[key] = base;
      base += group_counts_[key];
    }
    run_values_.resize(count);
    for (size_t i = 0; i < count; ++i) {
      run_values_[group_cursors_[keys[i]]++] = values[i];
    }
    grouped = run_values_.data();
  }
  // Single-key runs (num_keys == 1, or a key-clustered stream) skip the
  // scatter: the input span is already one group in stream order.
  for (Instance& instance : open_) {
    const double* segment = grouped;
    for (const uint32_t key : run_keys_) {
      const size_t len = group_counts_[key];
      Touch(&instance, key);
      AggState* state = &instance.states[key];
      if (accumulate_batch_ != nullptr) {
        accumulate_batch_(state, segment, len);
      } else {
        for (size_t i = 0; i < len; ++i) accumulate_(state, segment[i]);
      }
      segment += len;
    }
  }
  accumulate_ops_ += static_cast<uint64_t>(count) * open_.size();
  for (const uint32_t key : run_keys_) group_counts_[key] = 0;
}

void WindowAggregateOperator::OnEvents(const EventColumns& columns) {
  const size_t n = columns.size();
  const TimeT* ts = columns.timestamps.data();
  size_t i = 0;
  while (i < n) {
    const TimeT boundary = PrepareRun(ts[i]);
    size_t j = i + 1;
    while (j < n && ts[j] < boundary) ++j;
    AccumulateRun(columns.keys.data() + i, columns.values.data() + i, j - i);
    i = j;
  }
}

void WindowAggregateOperator::OnSubAgg(const SubAggRecord& record) {
  // Instances with end < record.end cannot contain [start, end); ones with
  // end == record.end still can.
  CloseBefore(record.end);
  // Open exactly the instances whose covering set contains this record:
  // interval start <= record.start and end >= record.end.
  OpenThrough(record.start, record.end);
  if (record.state.n == 0) return;
  FW_CHECK_LT(record.key, config_.num_keys);
  for (Instance& instance : open_) {
    Touch(&instance, record.key);
    merge_(&instance.states[record.key], record.state);
    ++accumulate_ops_;
  }
}

void WindowAggregateOperator::Flush() { CloseBefore(/*watermark=*/INT64_MAX); }

void WindowAggregateOperator::Reset() {
  open_.clear();
  next_m_ = 0;
  next_open_start_ = 0;
  instance_pool_.clear();
  accumulate_ops_ = 0;
  closed_instances_ = 0;
  finalized_results_ = 0;
}

OperatorCheckpoint WindowAggregateOperator::Checkpoint() const {
  OperatorCheckpoint checkpoint;
  checkpoint.operator_id = config_.operator_id;
  checkpoint.next_m = next_m_;
  checkpoint.next_open_start = next_open_start_;
  checkpoint.accumulate_ops = accumulate_ops_;
  checkpoint.open_instances.reserve(open_.size());
  for (const Instance& instance : open_) {
    InstanceCheckpoint inst;
    inst.m = instance.m;
    // Canonical per-key states: untouched keys snapshot as plain empty
    // states even when the pooled buffer still carries a recycled sketch
    // allocation — a checkpoint must be a pure function of the delivered
    // stream, not of the operator's buffer-reuse history.
    inst.states.reserve(instance.states.size());
    for (const AggState& state : instance.states) {
      inst.states.push_back(state.empty() ? AggState{} : state);
    }
    checkpoint.open_instances.push_back(std::move(inst));
  }
  return checkpoint;
}

Status WindowAggregateOperator::Restore(const OperatorCheckpoint& checkpoint) {
  if (checkpoint.operator_id != config_.operator_id) {
    return Status::InvalidArgument(
        "checkpoint is for operator " +
        std::to_string(checkpoint.operator_id) + ", not " +
        std::to_string(config_.operator_id));
  }
  for (const InstanceCheckpoint& inst : checkpoint.open_instances) {
    if (inst.states.size() != config_.num_keys) {
      return Status::InvalidArgument(
          "checkpoint key-space mismatch: " +
          std::to_string(inst.states.size()) + " vs " +
          std::to_string(config_.num_keys));
    }
    if (inst.m >= checkpoint.next_m) {
      return Status::InvalidArgument("open instance beyond next_m cursor");
    }
    for (const AggState& state : inst.states) {
      // Extension payloads are typed by size (state_bytes contract): a
      // sketch state must round-trip into the same function's layout.
      const uint32_t expected = state.empty() ? 0 : config_.agg->state_bytes;
      if (state.ext_size() != expected) {
        return Status::InvalidArgument(
            "state payload is " + std::to_string(state.ext_size()) +
            " bytes, " + config_.agg->name + " expects " +
            std::to_string(expected));
      }
    }
  }
  Reset();
  next_m_ = checkpoint.next_m;
  next_open_start_ = checkpoint.next_open_start;
  accumulate_ops_ = checkpoint.accumulate_ops;
  for (const InstanceCheckpoint& inst : checkpoint.open_instances) {
    Instance instance;
    instance.m = inst.m;
    instance.states = inst.states;
    instance.touched.assign((config_.num_keys + 63) / 64, 0);
    for (uint32_t key = 0; key < config_.num_keys; ++key) {
      if (instance.states[key].n != 0) {
        instance.touched[key >> 6] |= uint64_t{1} << (key & 63);
      }
    }
    open_.push_back(std::move(instance));
  }
  return Status::OK();
}

void WindowAggregateOperator::CloseBefore(TimeT watermark) {
  while (!open_.empty() && InstanceEnd(open_.front().m) < watermark) {
    EmitInstance(&open_.front());
    open_.pop_front();
  }
}

void WindowAggregateOperator::OpenThrough(TimeT start_limit,
                                          TimeT end_floor) {
  const TimeT s = config_.window.slide();
  const TimeT r = config_.window.range();
  // After a gap longer than the window range, every instance before the
  // first one satisfying end >= end_floor is unfillable; jump there with
  // one division instead of sliding across the gap.
  if (next_open_start_ + r < end_floor &&
      end_floor - (next_open_start_ + r) > r) {
    int64_t m = CeilDiv64(end_floor - r, s);
    if (m > next_m_) {
      next_m_ = m;
      next_open_start_ = m * s;
    }
  }
  while (next_open_start_ <= start_limit) {
    if (next_open_start_ + r >= end_floor) {
      open_.push_back(TakeInstance(next_m_));
    }
    // Instances with end < end_floor are skipped: the input is ordered, so
    // nothing can arrive for them anymore.
    ++next_m_;
    next_open_start_ += s;
  }
}

void WindowAggregateOperator::EmitInstance(Instance* instance) {
  ++closed_instances_;
  const TimeT start = InstanceStart(instance->m);
  const TimeT end = InstanceEnd(instance->m);
  // Visit the touched keys in ascending order (see the class comment).
  for (size_t word = 0; word < instance->touched.size(); ++word) {
    uint64_t bits = instance->touched[word];
    instance->touched[word] = 0;
    while (bits != 0) {
      const uint32_t key =
          static_cast<uint32_t>(word * 64) + std::countr_zero(bits);
      bits &= bits - 1;
      AggState& state = instance->states[key];
      // A merge need not advance n, so a touched state can still be empty.
      if (state.n == 0) continue;
      if (config_.exposed) {
        ++finalized_results_;
        sink_->OnResult(WindowResult{config_.operator_id, start, end, key,
                                     finalize_(state)});
      }
      for (WindowAggregateOperator* child : children_) {
        child->OnSubAgg(SubAggRecord{start, end, key, state});
      }
      state.Clear();  // Zero for reuse (keeps any sketch allocation).
    }
  }
  instance_pool_.push_back(std::move(*instance));
}

HolisticWindowOperator::HolisticWindowOperator(const Config& config,
                                               ResultSink* sink)
    : config_(config), sink_(sink) {
  FW_CHECK(ClassOf(config.agg) == AggClass::kHolistic);
  FW_CHECK(sink != nullptr);
  FW_CHECK(config.exposed) << "holistic operators cannot feed children";
  FW_CHECK_GT(config.num_keys, 0u);
}

void HolisticWindowOperator::OnEvent(const Event& event) {
  const TimeT t = event.timestamp;
  CloseBefore(t + 1);
  const TimeT s = config_.window.slide();
  int64_t m_hi = FloorDiv(t, s);
  int64_t m_lo = FloorDiv(t - config_.window.range(), s) + 1;
  int64_t m = next_m_ < m_lo ? m_lo : next_m_;
  if (m < 0) m = 0;
  for (; m <= m_hi; ++m) {
    Instance instance;
    instance.m = m;
    instance.states.assign(config_.num_keys, HolisticState{});
    open_.push_back(std::move(instance));
  }
  if (m_hi + 1 > next_m_) next_m_ = m_hi + 1;
  FW_CHECK_LT(event.key, config_.num_keys);
  for (Instance& instance : open_) {
    instance.states[event.key].Add(event.value);
    ++accumulate_ops_;
  }
}

void HolisticWindowOperator::Flush() { CloseBefore(INT64_MAX); }

void HolisticWindowOperator::Reset() {
  open_.clear();
  next_m_ = 0;
  accumulate_ops_ = 0;
  closed_instances_ = 0;
  finalized_results_ = 0;
}

void HolisticWindowOperator::CloseBefore(TimeT watermark) {
  while (!open_.empty() && InstanceEnd(open_.front().m) < watermark) {
    EmitInstance(&open_.front());
    open_.pop_front();
  }
}

void HolisticWindowOperator::EmitInstance(Instance* instance) {
  ++closed_instances_;
  const TimeT start = instance->m * config_.window.slide();
  const TimeT end = InstanceEnd(instance->m);
  for (uint32_t key = 0; key < config_.num_keys; ++key) {
    HolisticState& state = instance->states[key];
    if (state.empty()) continue;
    ++finalized_results_;
    sink_->OnResult(WindowResult{config_.operator_id, start, end, key,
                                 HolisticFinalize(config_.agg, &state)});
  }
}

}  // namespace fw
