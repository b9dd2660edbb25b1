// The traced layer ladder: each rung drives one layer's public API
// directly on the workload's inputs — optimizer -> PlanExecutor ->
// Reorderer -> ShardedExecutor -> DurabilityManager -> StreamSession —
// with spans recorded around the calls from this file, so a gap between
// rungs names the layer that costs it. Only per-layer metrics come from
// here; end-to-end metrics come from untraced runs (load.cc).

#include <algorithm>
#include <limits>
#include <map>
#include <optional>

#include "common/clock.h"
#include "durability/manager.h"
#include "exec/engine.h"
#include "exec/reorderer.h"
#include "multi/multi_query.h"
#include "plan/plan.h"
#include "run.h"
#include "runtime/sharded_executor.h"
#include "telemetry/metrics.h"
#include "trace.h"
#include "workload/datagen.h"

namespace fw {
namespace perfbench {
namespace {

constexpr int kPasses = 5;
constexpr int kOptimizeReps = 5;
constexpr int kCheckpointReps = 5;
constexpr int kChurnProbeReps = 5;

enum Rung : uint32_t {
  kOptimizerRung = 0,
  kExecRung,
  kReorderRung,
  kRuntimeRung,
  kDurabilityRung,
  kSessionRung,
  kChurnSetupRung,
  kChurnRung,
  kTelemetryRung,
  kRecoveryRung,
  kPacedRung,
};

double Ms(double ns) { return ns * 1e-6; }

class Ladder {
 public:
  Ladder(const Inputs& in, const RunConfig& config)
      : in_(in), spec_(*in.spec), n_(in.size()), config_(config) {}

  RunOutcome Run();

 private:
  void Add(const char* name, double value, const char* unit) {
    out_.metrics.push_back({name, value, unit});
  }
  double SpanMedian(std::string_view name, int64_t run = -1) const {
    return Median(tracer_.Durations(name, run));
  }

  bool OptimizerRung();
  void ExecRung();
  void ReorderRung();
  void RuntimeRung();
  void DurabilityRung();
  void SessionRung();
  void TelemetryRung();
  void Diagnostics();

  const Inputs& in_;
  const WorkloadSpec& spec_;
  const size_t n_;
  const RunConfig& config_;
  Tracer tracer_;
  RunOutcome out_;

  std::optional<MultiQueryOptimizer::SharedPlan> shared_;
  double exec_ns_per_event_ = 0.0;
  LightFold exec_fold_;
  std::vector<WindowResult> result_sample_;  // For the callback replay.
  LightFold session_fold_;         // After Finish.
  LightFold session_prefix_fold_;  // Before Finish (what a kill leaves).
};

bool Ladder::OptimizerRung() {
  tracer_.SetRun(kOptimizerRung);
  const uint32_t optimize = tracer_.Name("multi.Optimize");
  const uint32_t reoptimize = tracer_.Name("multi.Reoptimize");
  const std::vector<StreamQuery> queries = InitialQueries();
  for (int rep = 0; rep < kOptimizeReps; ++rep) {
    tracer_.Begin(optimize);
    Result<MultiQueryOptimizer::SharedPlan> result =
        MultiQueryOptimizer::Optimize(queries);
    tracer_.End();
    if (!result.ok()) {
      out_.Fail("Optimize failed: " + result.status().ToString());
      return false;
    }
    shared_.emplace(std::move(result).value());
  }
  // The replans a session runs: one per initial AddQuery, then one per
  // RemoveQuery and AddQuery of the churn schedule.
  std::vector<int> live;
  std::vector<std::vector<int>> sets;
  for (int d = 0; d < kDashboards; ++d) {
    live.push_back(d);
    sets.push_back(live);
  }
  for (const ChurnOp& op : in_.churn) {
    live.erase(std::find(live.begin(), live.end(), op.dashboard));
    sets.push_back(live);
    live.push_back(op.dashboard);
    sets.push_back(live);
  }
  for (const std::vector<int>& set : sets) {
    std::vector<StreamQuery> batch;
    for (int d : set) batch.push_back(queries[static_cast<size_t>(d)]);
    tracer_.Begin(reoptimize);
    Result<MultiQueryOptimizer::SharedPlan> result =
        MultiQueryOptimizer::Reoptimize(batch);
    tracer_.End();
    if (!result.ok()) out_.Fail("Reoptimize failed");
  }
  int factor_windows = 0;
  for (const PlanOperator& op : shared_->plan.operators()) {
    if (op.is_factor) ++factor_windows;
  }
  Add("multi.optimize_ms", Ms(SpanMedian("multi.Optimize")), "ms");
  const std::vector<double> replans = tracer_.Durations("multi.Reoptimize");
  Add("multi.reoptimize_ms_p50", Ms(Median(replans)), "ms");
  Add("multi.reoptimize_ms_max", Ms(Max(replans)), "ms");
  Add("factor.model_boost", shared_->PredictedBoost(), "x");
  Add("factor.factor_windows", factor_windows, "count");
  return true;
}

/// Records, for each result the plain engine emits while a scalar Push
/// runs, how far (in event time) the emitting event lies past the
/// window's end; results Finish flushes have no emitting event.
class DelaySink : public ResultSink {
 public:
  DelaySink(const TimeT* now, std::vector<WindowResult>* sample)
      : now_(now), sample_(sample) {}
  void OnResult(const WindowResult& r) override {
    fold.Fold(r);
    if (sample_->size() < sample_->capacity()) sample_->push_back(r);
    if (!finishing) ++delays[*now_ - r.end];
  }

  LightFold fold;
  std::map<TimeT, uint64_t> delays;
  bool finishing = false;

 private:
  const TimeT* now_;
  std::vector<WindowResult>* sample_;
};

TimeT DelayQuantile(const std::map<TimeT, uint64_t>& delays, double q) {
  uint64_t total = 0;
  for (const auto& [delay, count] : delays) total += count;
  const uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(total));
  uint64_t seen = 0;
  for (const auto& [delay, count] : delays) {
    seen += count;
    if (seen > rank) return delay;
  }
  return delays.empty() ? 0 : delays.rbegin()->first;
}

void Ladder::ExecRung() {
  tracer_.SetRun(kExecRung);
  const QueryPlan& plan = shared_->plan;
  const std::vector<Event>& sorted = in_.Sorted();
  const PlanExecutor::Options options{.num_keys = spec_.keys};

  // Counting pass (scalar, so each result has one emitting event), with
  // Checkpoint + Serialize timed at the stream's midpoint.
  TimeT now = 0;
  result_sample_.reserve(65536);
  DelaySink delay_sink(&now, &result_sample_);
  PlanExecutor counting(plan, options, &delay_sink);
  const uint32_t checkpoint = tracer_.Name("exec.Checkpoint");
  uint64_t checkpoint_bytes = 0;
  for (size_t i = 0; i < n_; ++i) {
    if (i == n_ / 2) {
      for (int rep = 0; rep < kCheckpointReps; ++rep) {
        ScopedSpan span(&tracer_, checkpoint);
        Result<ExecutorCheckpoint> state = counting.Checkpoint();
        if (!state.ok()) {
          out_.Fail("Checkpoint failed");
          break;
        }
        checkpoint_bytes = state->Serialize().size();
      }
    }
    now = sorted[i].timestamp;
    counting.Push(sorted[i]);
  }
  delay_sink.finishing = true;
  counting.Finish();

  // Timed passes on the workload's ingest path, shared plan vs the
  // original (unshared) plan of all six windows.
  std::vector<EventColumns> chunks;
  if (spec_.batch > 0) chunks = SplitIntoColumns(sorted, spec_.batch);
  WindowSet all_windows;
  for (const StreamQuery& query : InitialQueries()) {
    for (const Window& window : query.windows) {
      (void)all_windows.Add(window);
    }
  }
  const QueryPlan original = QueryPlan::Original(all_windows, plan.agg());
  auto timed_pass = [&](const QueryPlan& pass_plan, const char* name,
                        const char* finish_name) {
    ResultTap tap(/*full=*/false, nullptr, nullptr);
    TapSink sink(&tap);
    PlanExecutor executor(pass_plan, options, &sink);
    ScopedSpan span(&tracer_, tracer_.Name(name));
    if (spec_.batch > 0) {
      for (const EventColumns& chunk : chunks) executor.PushColumns(chunk);
    } else {
      for (const Event& event : sorted) executor.Push(event);
    }
    ScopedSpan finish(&tracer_, tracer_.Name(finish_name));
    executor.Finish();
    return tap.light;
  };
  for (int pass = 0; pass < kPasses; ++pass) {
    exec_fold_ = timed_pass(plan, "exec.pass", "exec.Finish");
    if (!(timed_pass(original, "exec.original_pass",
                     "exec.original_Finish") == exec_fold_)) {
      out_.Fail("shared plan results differ from the original plan's");
    }
  }
  if (!(exec_fold_ == delay_sink.fold)) {
    out_.Fail("columnar and scalar engine results differ");
  }
  exec_ns_per_event_ = SpanMedian("exec.pass") / static_cast<double>(n_);
  Add("factor.realized_boost",
      SpanMedian("exec.original_pass") / SpanMedian("exec.pass"), "x");
  Add("exec.ns_per_event", exec_ns_per_event_, "ns");
  Add("exec.ops_per_event",
      static_cast<double>(counting.TotalAccumulateOps()) /
          static_cast<double>(n_),
      "ops/event");
  Add("exec.results_per_event",
      static_cast<double>(delay_sink.fold.results) / static_cast<double>(n_),
      "results/event");
  Add("exec.emit_delay_p50_t",
      static_cast<double>(DelayQuantile(delay_sink.delays, 0.5)), "t");
  Add("exec.emit_delay_max_t",
      static_cast<double>(DelayQuantile(delay_sink.delays, 1.0)), "t");
  Add("exec.finish_ms", Ms(SpanMedian("exec.Finish")), "ms");
  Add("exec.checkpoint_ms", Ms(SpanMedian("exec.Checkpoint")), "ms");
  Add("exec.checkpoint_bytes", static_cast<double>(checkpoint_bytes),
      "bytes");
}

void Ladder::ReorderRung() {
  tracer_.SetRun(kReorderRung);
  const uint32_t pass_name = tracer_.Name("reorder.pass");
  uint64_t peak = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    Reorderer reorderer;
    TimeT max_seen = std::numeric_limits<TimeT>::min();
    uint64_t seq = 0;
    uint64_t released = 0;
    uint64_t late = 0;
    auto count = [&released](const Event&) { ++released; };
    {
      ScopedSpan span(&tracer_, pass_name);
      for (const Event& event : in_.arrival) {
        if (seq > 0 && event.timestamp < max_seen - spec_.max_delay) {
          ++late;
          continue;
        }
        max_seen = std::max(max_seen, event.timestamp);
        reorderer.Buffer(event, seq++);
        reorderer.ReleaseThrough(max_seen - spec_.max_delay, count);
        peak = std::max<uint64_t>(peak, reorderer.buffered());
      }
      reorderer.ReleaseAll(count);
    }
    if (released != n_ || late != 0) {
      out_.Fail("Reorderer released the wrong events");
    }
  }
  Add("reorder.ns_per_event", SpanMedian("reorder.pass") /
                                  static_cast<double>(n_), "ns");
  Add("reorder.peak_depth", static_cast<double>(peak), "events");
}

void Ladder::RuntimeRung() {
  tracer_.SetRun(kRuntimeRung);
  const QueryPlan& plan = shared_->plan;
  auto make_options = [&](uint32_t width,
                          telemetry::MetricsRegistry* registry) {
    ShardedExecutor::Options options;
    options.num_keys = spec_.keys;
    options.num_shards = width;
    options.max_delay = spec_.max_delay;
    options.metrics = registry;
    return options;
  };
  // Plain passes at the workload's width and at width 1 (inline, the
  // single-threaded baseline): events per second from first call to
  // Finish.
  auto timed_pass = [&](uint32_t width, const char* name) {
    telemetry::MetricsRegistry registry;
    ResultTap tap(/*full=*/false, nullptr, nullptr);
    TapSink sink(&tap);
    ShardedExecutor executor(plan, make_options(width, &registry), &sink);
    ScopedSpan span(&tracer_, tracer_.Name(name));
    if (spec_.batch > 0) {
      for (const EventColumns& chunk : in_.chunks) executor.PushColumns(chunk);
    } else {
      for (const Event& event : in_.arrival) executor.Push(event);
    }
    executor.Finish();
    if (!(tap.light == exec_fold_)) {
      out_.Fail(std::string(name) + " results differ from the engine's");
    }
  };
  for (int pass = 0; pass < kPasses; ++pass) {
    timed_pass(spec_.shards, "runtime.pass");
    timed_pass(1, "runtime.inline_pass");
  }

  // Call-timing pass: the clock around every ingest call. Calls that
  // delivered results are the drains (at width 1, the calls that emitted).
  // Spans are kept for 1 in 64 calls and every drain.
  telemetry::MetricsRegistry registry;
  ResultTap tap(/*full=*/false, nullptr, nullptr);
  TapSink sink(&tap);
  ShardedExecutor executor(plan, make_options(spec_.shards, &registry), &sink);
  const uint32_t call_name = tracer_.Name("runtime.call");
  const uint32_t drain_name = tracer_.Name("runtime.drain");
  std::vector<double> call_ns;
  std::vector<double> drain_ns;
  double occupancy = 0.0;
  const size_t calls = spec_.batch > 0 ? in_.chunks.size() : n_;
  call_ns.reserve(calls);
  const size_t occupancy_every = spec_.batch > 0 ? 1 : 512;
  for (size_t c = 0; c < calls; ++c) {
    const uint64_t results_before = tap.light.results;
    const uint64_t start = MonotonicNanos();
    if (spec_.batch > 0) {
      executor.PushColumns(in_.chunks[c]);
    } else {
      executor.Push(in_.arrival[c]);
    }
    const uint64_t end = MonotonicNanos();
    call_ns.push_back(static_cast<double>(end - start));
    const bool drained = tap.light.results != results_before;
    if (drained) drain_ns.push_back(static_cast<double>(end - start));
    if (drained || c % 64 == 0) {
      tracer_.Record(drained ? drain_name : call_name, start, end);
    }
    if (c % occupancy_every == 0) {
      occupancy = std::max(occupancy, executor.RingOccupancy());
    }
  }
  const std::vector<uint64_t> per_shard = executor.EventsPerShard();
  executor.Finish();
  double skew = 1.0;
  if (!per_shard.empty()) {
    uint64_t total = 0;
    uint64_t most = 0;
    for (uint64_t count : per_shard) {
      total += count;
      most = std::max(most, count);
    }
    skew = total == 0 ? 1.0
                      : static_cast<double>(most) * per_shard.size() /
                            static_cast<double>(total);
  }
  const double ns = SpanMedian("runtime.pass") / static_cast<double>(n_);
  const double inline_ns =
      SpanMedian("runtime.inline_pass") / static_cast<double>(n_);
  Add("runtime.ns_per_event", ns, "ns");
  Add("runtime.inline_ns_per_event", inline_ns, "ns");
  Add("runtime.shard_speedup", inline_ns / ns, "x");
  Add("runtime.push_call_us_p50", Percentile(call_ns, 0.5) * 1e-3, "us");
  Add("runtime.push_call_us_p99", Percentile(call_ns, 0.99) * 1e-3, "us");
  Add("runtime.drain_ms_p50", Ms(Percentile(drain_ns, 0.5)), "ms");
  Add("runtime.drain_ms_max", Ms(Max(drain_ns)), "ms");
  Add("runtime.ring_occupancy_max", occupancy, "fraction");
  Add("runtime.shard_skew", skew, "x");
}

void Ladder::DurabilityRung() {
  tracer_.SetRun(kDurabilityRung);
  DurabilityOptions options;
  options.enabled = true;
  options.dir = config_.scratch->Child("wal");
  telemetry::MetricsRegistry registry;
  Result<std::unique_ptr<durability::DurabilityManager>> created =
      durability::DurabilityManager::CreateFresh(options, &registry);
  if (!out_.ops.Check(created.status())) {
    out_.Fail("CreateFresh failed: " + created.status().ToString());
    return;
  }
  durability::DurabilityManager& manager = **created;
  // The state a session snapshots: the merged checkpoint of its executor
  // (inline here; it never enters the timed spans).
  ResultTap tap(/*full=*/false, nullptr, nullptr);
  TapSink sink(&tap);
  ShardedExecutor::Options exec_options;
  exec_options.num_keys = spec_.keys;
  exec_options.max_delay = spec_.max_delay;
  ShardedExecutor executor(shared_->plan, exec_options, &sink);

  const std::vector<StreamQuery> queries = InitialQueries();
  std::vector<uint64_t> ids;
  uint64_t next_id = 1;
  const uint32_t add_name = tracer_.Name("durability.AppendAddQuery");
  const uint32_t remove_name = tracer_.Name("durability.AppendRemoveQuery");
  const uint32_t append_name = tracer_.Name("durability.AppendEvents");
  const uint32_t snapshot_name = tracer_.Name("durability.WriteSnapshot");
  for (const StreamQuery& query : queries) {
    ScopedSpan span(&tracer_, add_name);
    ids.push_back(next_id);
    out_.ops.Check(manager.AppendAddQuery(next_id++, query));
  }
  size_t churn_index = 0;
  uint64_t snapshot_bytes = 0;
  EventColumns row;  // The session's record shape for a scalar Push.
  const size_t step = spec_.batch > 0 ? spec_.batch : 1;
  for (size_t pos = 0; pos < n_;) {
    const size_t block_end = std::min(n_, pos + kSnapshotInterval);
    {
      ScopedSpan span(&tracer_, append_name);
      for (size_t i = pos; i < block_end; i += step) {
        while (churn_index < in_.churn.size() &&
               in_.churn[churn_index].at_event <= i) {
          const int d = in_.churn[churn_index++].dashboard;
          {
            ScopedSpan remove(&tracer_, remove_name);
            out_.ops.Check(manager.AppendRemoveQuery(ids[d]));
          }
          ScopedSpan add(&tracer_, add_name);
          ids[d] = next_id;
          out_.ops.Check(manager.AppendAddQuery(next_id++, queries[d]));
        }
        if (spec_.batch > 0) {
          out_.ops.Check(manager.AppendEvents(in_.chunks[i / step]));
        } else {
          row.clear();
          row.Append(in_.arrival[i]);
          out_.ops.Check(manager.AppendEvents(row));
        }
      }
    }
    for (size_t i = pos; i < block_end; i += step) {
      if (spec_.batch > 0) {
        executor.PushColumns(in_.chunks[i / step]);
      } else {
        executor.Push(in_.arrival[i]);
      }
    }
    pos = block_end;
    if (!manager.SnapshotDue()) continue;
    durability::SnapshotContents contents;
    contents.meta.covered_events = pos;
    contents.meta.events_pushed = pos;
    contents.meta.num_keys = spec_.keys;
    contents.meta.max_delay = spec_.max_delay;
    contents.meta.next_id = next_id;
    for (int d = 0; d < kDashboards; ++d) {
      contents.queries.push_back({ids[d], queries[d]});
    }
    Result<ExecutorCheckpoint> state = executor.Checkpoint();
    if (!state.ok()) {
      out_.Fail("executor Checkpoint failed");
      break;
    }
    contents.checkpoint = state->Serialize();
    contents.has_checkpoint = true;
    {
      ScopedSpan span(&tracer_, snapshot_name);
      out_.ops.Check(manager.WriteSnapshot(std::move(contents)));
    }
    snapshot_bytes = FileBytes(options.dir, "snap-");
  }
  const durability::DurabilityManager::Counters counters = manager.counters();
  created->reset();
  RemoveTree(options.dir);

  const std::map<std::string, Tracer::Totals> totals = tracer_.Summarize();
  const double append_ns =
      static_cast<double>(totals.at("durability.AppendEvents").self_ns);
  const std::vector<double> snapshots =
      tracer_.Durations("durability.WriteSnapshot");
  const double events = static_cast<double>(n_);
  Add("durability.append_ns_per_event", append_ns / events, "ns");
  Add("durability.wal_bytes_per_event",
      static_cast<double>(counters.wal_bytes) / events, "bytes");
  Add("durability.fsyncs_per_mevent",
      static_cast<double>(counters.wal_fsyncs) * 1e6 / events, "fsyncs/Mev");
  Add("durability.snapshot_ms_p50", Ms(Median(snapshots)), "ms");
  Add("durability.snapshot_ms_max", Ms(Max(snapshots)), "ms");
  Add("durability.snapshot_bytes", static_cast<double>(snapshot_bytes),
      "bytes");
}

void Ladder::SessionRung() {
  // Untraced and traced passes alternate; the untraced ones are the
  // session rung, their difference to the traced ones the tracing cost.
  // Traced passes span AddQuery/RemoveQuery, 1 in 64 scalar Push calls
  // (1 in 8 PushColumns calls), 1 in 1,024 result callbacks, and Finish.
  tracer_.SetRun(kSessionRung);
  const uint32_t pass_name = tracer_.Name("session.pass");
  const uint32_t finish_name = tracer_.Name("session.Finish");
  std::vector<double> untraced_ns;
  std::vector<double> finish_ns;
  for (int pass = 0; pass < kPasses; ++pass) {
    ResultTap tap(/*full=*/false, nullptr, nullptr);
    const std::string dir = spec_.durable ? config_.scratch->Child("s") : "";
    {
      SessionRun run(spec_, dir, &tap, &out_.ops);
      const FeedResult feed = run.Feed(in_, {});
      session_prefix_fold_ = tap.light;
      const uint64_t finish_start = MonotonicNanos();
      run.Finish();
      const uint64_t end = MonotonicNanos();
      untraced_ns.push_back(static_cast<double>(end - feed.start_ns));
      finish_ns.push_back(static_cast<double>(end - finish_start));
      if (!run.ok()) out_.Fail("session rung failed");
    }
    if (spec_.durable) RemoveTree(dir);
    session_fold_ = tap.light;
    if (in_.churn.empty() && !(session_fold_ == exec_fold_)) {
      out_.Fail("session results differ from the engine's");
    }

    ResultTap traced_tap(/*full=*/false, nullptr, &tracer_);
    const std::string traced_dir =
        spec_.durable ? config_.scratch->Child("t") : "";
    {
      SessionRun run(spec_, traced_dir, &traced_tap, &out_.ops, &tracer_);
      ScopedSpan span(&tracer_, pass_name);
      run.Feed(in_, {.tracer = &tracer_});
      ScopedSpan finish(&tracer_, finish_name);
      run.Finish();
    }
    if (spec_.durable) RemoveTree(traced_dir);
    if (!(traced_tap.light == session_fold_)) {
      out_.Fail("traced session results differ from the untraced pass");
    }
  }
  const double untraced = Median(untraced_ns);
  const double traced = SpanMedian("session.pass");

  // Churn probe: replace one dashboard of a live session several times.
  tracer_.SetRun(kChurnSetupRung);
  {
    ResultTap probe_tap(/*full=*/false, nullptr, nullptr);
    const std::string dir = spec_.durable ? config_.scratch->Child("c") : "";
    SessionRun run(spec_, dir, &probe_tap, &out_.ops, &tracer_);
    run.Feed(in_, {.limit = kSnapshotInterval});
    tracer_.SetRun(kChurnRung);
    for (int rep = 0; rep < kChurnProbeReps; ++rep) run.Replace(1, &tracer_);
    if (!run.ok()) out_.Fail("churn probe failed");
  }

  // Callback cost: the benchmark's own result callback replayed over a
  // sample of real results, times results per event.
  ResultTap replay(/*full=*/false, nullptr, nullptr);
  const uint64_t replay_start = MonotonicNanos();
  for (int rep = 0; rep < 16; ++rep) {
    for (const WindowResult& r : result_sample_) replay.OnResult(r);
  }
  const double per_result =
      static_cast<double>(MonotonicNanos() - replay_start) /
      std::max<double>(1.0, 16.0 * static_cast<double>(result_sample_.size()));

  const double events = static_cast<double>(n_);
  const double session_ns = untraced / events;
  Add("session.ns_per_event", session_ns, "ns");
  Add("session.overhead_ns_per_event", session_ns - exec_ns_per_event_, "ns");
  Add("session.callback_ns_per_event",
      per_result * static_cast<double>(session_fold_.results) / events, "ns");
  Add("session.add_query_ms", Ms(SpanMedian("session.AddQuery", kChurnRung)),
      "ms");
  Add("session.remove_query_ms",
      Ms(SpanMedian("session.RemoveQuery", kChurnRung)), "ms");
  Add("session.finish_ms", Ms(Median(finish_ns)), "ms");
  Add("trace.overhead_frac", traced / untraced - 1.0, "fraction");
}

void Ladder::TelemetryRung() {
  tracer_.SetRun(kTelemetryRung);
  telemetry::MetricsRegistry registry;
  telemetry::Counter* counter = registry.GetCounter("perfbench.counter");
  telemetry::Histogram* histogram =
      registry.GetHistogram("perfbench.histogram");
  constexpr uint64_t kCalls = 1 << 22;
  {
    ScopedSpan span(&tracer_, tracer_.Name("telemetry.Counter.Add"));
    for (uint64_t i = 0; i < kCalls; ++i) counter->Add(0, 1);
  }
  {
    ScopedSpan span(&tracer_, tracer_.Name("telemetry.Histogram.Record"));
    for (uint64_t i = 0; i < kCalls; ++i) histogram->Record(0, i & 0xFFFF);
  }
  if (telemetry::kEnabled && counter->Total() != kCalls) {
    out_.Fail("telemetry counter lost increments");
  }
  Add("telemetry.counter_add_ns",
      SpanMedian("telemetry.Counter.Add") / static_cast<double>(kCalls), "ns");
  Add("telemetry.histogram_record_ns",
      SpanMedian("telemetry.Histogram.Record") / static_cast<double>(kCalls),
      "ns");
}

void Ladder::Diagnostics() {
  tracer_.SetRun(kRecoveryRung);
  RecoveryStats recovered;
  Recovery(in_, config_.scratch, nullptr, &out_).Once(&recovered, &out_);
  Add("durability.replayed_records",
      static_cast<double>(recovered.replayed_records), "count");

  // One untraced paced pass for the load diagnostics.
  tracer_.SetRun(kPacedRung);
  LatencySampler sampler(2 * (session_fold_.results >> spec_.sample_bits) +
                             4096,
                         spec_.sample_bits);
  PacedStats paced;
  PacedPass(in_, config_.scratch,
            spec_.durable ? session_prefix_fold_ : session_fold_, &sampler,
            &paced, &out_);
  Add("load.gen_lag_max_ms",
      static_cast<double>(paced.gen_lag_max_ns) * 1e-6, "ms");
  Add("load.latency_p99_us", Percentile(paced.latencies_us, 0.99), "us");
  Add("host.steal_ms_per_s", config_.steal_ms_per_s, "ms/s");
}

RunOutcome Ladder::Run() {
  if (!OptimizerRung()) return std::move(out_);
  ExecRung();
  ReorderRung();
  RuntimeRung();
  DurabilityRung();
  SessionRung();
  TelemetryRung();
  Diagnostics();
  for (const auto& [name, totals] : tracer_.Summarize()) {
    out_.Note(Format("span %-28s count %8llu total_ms %10.3f self_ms %10.3f",
                     name.c_str(),
                     static_cast<unsigned long long>(totals.count),
                     Ms(static_cast<double>(totals.total_ns)),
                     Ms(static_cast<double>(totals.self_ns))));
  }
  if (!tracer_.WriteJsonl(config_.trace_path)) {
    out_.Fail("cannot write " + config_.trace_path);
  } else {
    out_.Note("spans written to " + config_.trace_path);
  }
  return std::move(out_);
}

}  // namespace

RunOutcome RunLadder(const Inputs& in, const RunConfig& config) {
  return Ladder(in, config).Run();
}

}  // namespace perfbench
}  // namespace fw
