// Micro-benchmarks for the execution engine's hot paths (google-benchmark):
// raw pushes through tumbling/hopping operators, sub-aggregate merging,
// multi-key grouping, and full small plans. Each scalar benchmark has a
// "<name>Columns" twin driving the same workload through the columnar
// batch path (OnEvents / PushColumns, DESIGN.md §14); CI's perf smoke
// compares the pairs and fails if the columnar geomean speedup drops
// below its floor. BM_SessionPush{,Columns} run the same shapes through
// a whole StreamSession — the path that carries the session's telemetry —
// so the telemetry ON/OFF overhead gate covers it (DESIGN.md §13).

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "cost/min_cost.h"
#include "exec/engine.h"
#include "factor/optimizer.h"
#include "session/session.h"
#include "workload/datagen.h"

namespace fw {
namespace {

constexpr size_t kColumnarBatch = 1024;

std::vector<Event> MakeStream(size_t n, uint32_t keys) {
  return GenerateSyntheticStream(n, keys, kSyntheticSeed);
}

std::vector<EventColumns> MakeChunks(const std::vector<Event>& events) {
  return SplitIntoColumns(events, kColumnarBatch);
}

void BM_RawPushTumbling(benchmark::State& state) {
  std::vector<Event> events = MakeStream(1 << 16, 1);
  CountingSink sink;
  WindowAggregateOperator::Config config;
  config.window = Window::Tumbling(64);
  config.agg = Agg("MIN");
  WindowAggregateOperator op(config, &sink);
  for (auto _ : state) {
    op.Reset();
    for (const Event& e : events) op.OnEvent(e);
    op.Flush();
    benchmark::DoNotOptimize(op.accumulate_ops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_RawPushTumbling);

void BM_RawPushTumblingColumns(benchmark::State& state) {
  std::vector<Event> events = MakeStream(1 << 16, 1);
  std::vector<EventColumns> chunks = MakeChunks(events);
  CountingSink sink;
  WindowAggregateOperator::Config config;
  config.window = Window::Tumbling(64);
  config.agg = Agg("MIN");
  WindowAggregateOperator op(config, &sink);
  for (auto _ : state) {
    op.Reset();
    for (const EventColumns& c : chunks) op.OnEvents(c);
    op.Flush();
    benchmark::DoNotOptimize(op.accumulate_ops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_RawPushTumblingColumns);

void BM_RawPushHopping(benchmark::State& state) {
  const TimeT ratio = state.range(0);  // r/s: open instances per event.
  std::vector<Event> events = MakeStream(1 << 16, 1);
  CountingSink sink;
  WindowAggregateOperator::Config config;
  config.window = Window(8 * ratio, 8);
  config.agg = Agg("MIN");
  WindowAggregateOperator op(config, &sink);
  for (auto _ : state) {
    op.Reset();
    for (const Event& e : events) op.OnEvent(e);
    op.Flush();
    benchmark::DoNotOptimize(op.accumulate_ops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_RawPushHopping)->Arg(2)->Arg(8)->Arg(32);

void BM_RawPushHoppingColumns(benchmark::State& state) {
  const TimeT ratio = state.range(0);
  std::vector<Event> events = MakeStream(1 << 16, 1);
  std::vector<EventColumns> chunks = MakeChunks(events);
  CountingSink sink;
  WindowAggregateOperator::Config config;
  config.window = Window(8 * ratio, 8);
  config.agg = Agg("MIN");
  WindowAggregateOperator op(config, &sink);
  for (auto _ : state) {
    op.Reset();
    for (const EventColumns& c : chunks) op.OnEvents(c);
    op.Flush();
    benchmark::DoNotOptimize(op.accumulate_ops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_RawPushHoppingColumns)->Arg(2)->Arg(8)->Arg(32);

void BM_SubAggregateChain(benchmark::State& state) {
  // T(16) -> T(64) -> T(256): merge-path throughput.
  std::vector<Event> events = MakeStream(1 << 16, 1);
  CountingSink sink;
  WindowAggregateOperator::Config c1;
  c1.window = Window::Tumbling(16);
  c1.agg = Agg("SUM");
  c1.exposed = true;
  WindowAggregateOperator::Config c2 = c1;
  c2.window = Window::Tumbling(64);
  c2.operator_id = 1;
  WindowAggregateOperator::Config c3 = c1;
  c3.window = Window::Tumbling(256);
  c3.operator_id = 2;
  WindowAggregateOperator op1(c1, &sink);
  WindowAggregateOperator op2(c2, &sink);
  WindowAggregateOperator op3(c3, &sink);
  op1.AddChild(&op2);
  op2.AddChild(&op3);
  for (auto _ : state) {
    op1.Reset();
    op2.Reset();
    op3.Reset();
    for (const Event& e : events) op1.OnEvent(e);
    op1.Flush();
    op2.Flush();
    op3.Flush();
    benchmark::DoNotOptimize(op3.accumulate_ops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_SubAggregateChain);

void BM_SubAggregateChainColumns(benchmark::State& state) {
  std::vector<Event> events = MakeStream(1 << 16, 1);
  std::vector<EventColumns> chunks = MakeChunks(events);
  CountingSink sink;
  WindowAggregateOperator::Config c1;
  c1.window = Window::Tumbling(16);
  c1.agg = Agg("SUM");
  c1.exposed = true;
  WindowAggregateOperator::Config c2 = c1;
  c2.window = Window::Tumbling(64);
  c2.operator_id = 1;
  WindowAggregateOperator::Config c3 = c1;
  c3.window = Window::Tumbling(256);
  c3.operator_id = 2;
  WindowAggregateOperator op1(c1, &sink);
  WindowAggregateOperator op2(c2, &sink);
  WindowAggregateOperator op3(c3, &sink);
  op1.AddChild(&op2);
  op2.AddChild(&op3);
  for (auto _ : state) {
    op1.Reset();
    op2.Reset();
    op3.Reset();
    for (const EventColumns& c : chunks) op1.OnEvents(c);
    op1.Flush();
    op2.Flush();
    op3.Flush();
    benchmark::DoNotOptimize(op3.accumulate_ops());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_SubAggregateChainColumns);

void BM_KeyedAggregation(benchmark::State& state) {
  const uint32_t keys = static_cast<uint32_t>(state.range(0));
  std::vector<Event> events = MakeStream(1 << 15, keys);
  CountingSink sink;
  WindowAggregateOperator::Config config;
  config.window = Window::Tumbling(128);
  config.agg = Agg("AVG");
  config.num_keys = keys;
  WindowAggregateOperator op(config, &sink);
  for (auto _ : state) {
    op.Reset();
    for (const Event& e : events) op.OnEvent(e);
    op.Flush();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_KeyedAggregation)->Arg(1)->Arg(16)->Arg(256);

void BM_KeyedAggregationColumns(benchmark::State& state) {
  const uint32_t keys = static_cast<uint32_t>(state.range(0));
  std::vector<Event> events = MakeStream(1 << 15, keys);
  std::vector<EventColumns> chunks = MakeChunks(events);
  CountingSink sink;
  WindowAggregateOperator::Config config;
  config.window = Window::Tumbling(128);
  config.agg = Agg("AVG");
  config.num_keys = keys;
  WindowAggregateOperator op(config, &sink);
  for (auto _ : state) {
    op.Reset();
    for (const EventColumns& c : chunks) op.OnEvents(c);
    op.Flush();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_KeyedAggregationColumns)->Arg(1)->Arg(16)->Arg(256);

void BM_FullPlanOriginalVsRewritten(benchmark::State& state) {
  const bool rewritten = state.range(0) == 1;
  WindowSet set = WindowSet::Parse("{T(20), T(30), T(40), T(50), T(60)}")
                      .value();
  QueryPlan plan =
      rewritten
          ? QueryPlan::FromMinCostWcg(
                OptimizeWithFactorWindows(
                    set, CoverageSemantics::kPartitionedBy),
                Agg("MIN"))
          : QueryPlan::Original(set, Agg("MIN"));
  std::vector<Event> events = MakeStream(1 << 16, 1);
  CountingSink sink;
  for (auto _ : state) {
    PlanExecutor executor(plan, {.num_keys = 1}, &sink);
    executor.Run(events);
    benchmark::DoNotOptimize(executor.TotalAccumulateOps());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
  state.SetLabel(rewritten ? "rewritten+FW" : "original");
}
BENCHMARK(BM_FullPlanOriginalVsRewritten)->Arg(0)->Arg(1);

void BM_FullPlanOriginalVsRewrittenColumns(benchmark::State& state) {
  const bool rewritten = state.range(0) == 1;
  WindowSet set = WindowSet::Parse("{T(20), T(30), T(40), T(50), T(60)}")
                      .value();
  QueryPlan plan =
      rewritten
          ? QueryPlan::FromMinCostWcg(
                OptimizeWithFactorWindows(
                    set, CoverageSemantics::kPartitionedBy),
                Agg("MIN"))
          : QueryPlan::Original(set, Agg("MIN"));
  std::vector<Event> events = MakeStream(1 << 16, 1);
  std::vector<EventColumns> chunks = MakeChunks(events);
  CountingSink sink;
  for (auto _ : state) {
    PlanExecutor executor(plan, {.num_keys = 1}, &sink);
    for (const EventColumns& c : chunks) executor.PushColumns(c);
    executor.Finish();
    benchmark::DoNotOptimize(executor.TotalAccumulateOps());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
  state.SetLabel(rewritten ? "rewritten+FW" : "original");
}
BENCHMARK(BM_FullPlanOriginalVsRewrittenColumns)->Arg(0)->Arg(1);

// An inline (one-shard) session over 16 meters serving three per-meter
// MAX dashboards of two windows each — the dense, in-order dashboard
// shape of the paper's motivating example. Session construction and
// query registration are untimed; pushing the stream and Finish are.
std::unique_ptr<StreamSession> MakeDashboardSession(uint64_t* results) {
  auto session = std::make_unique<StreamSession>(
      StreamSession::Options{.num_keys = 16, .num_shards = 1});
  QueryBuilder dashboard =
      Query().Max("power").From("meters").PerKey("meter");
  const QueryBuilder queries[] = {
      QueryBuilder(dashboard).Tumbling(200).Tumbling(300),
      QueryBuilder(dashboard).Tumbling(400).Hopping(1200, 400),
      QueryBuilder(dashboard).Tumbling(500).Tumbling(600),
  };
  for (const QueryBuilder& query : queries) {
    if (!session->AddQuery(query, [results](const WindowResult&) {
                  ++*results;
                }).ok()) {
      return nullptr;
    }
  }
  return session;
}

void BM_SessionPush(benchmark::State& state) {
  std::vector<Event> events = MakeStream(1 << 16, 16);
  uint64_t results = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<StreamSession> session = MakeDashboardSession(&results);
    if (session == nullptr) {
      state.SkipWithError("dashboard query rejected");
      break;
    }
    state.ResumeTiming();
    for (const Event& e : events) {
      if (!session->Push(e).ok()) state.SkipWithError("push failed");
    }
    if (!session->Finish().ok()) state.SkipWithError("finish failed");
    state.PauseTiming();
    session.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(results);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_SessionPush);

void BM_SessionPushColumns(benchmark::State& state) {
  std::vector<Event> events = MakeStream(1 << 16, 16);
  std::vector<EventColumns> chunks = MakeChunks(events);
  uint64_t results = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<StreamSession> session = MakeDashboardSession(&results);
    if (session == nullptr) {
      state.SkipWithError("dashboard query rejected");
      break;
    }
    state.ResumeTiming();
    for (const EventColumns& c : chunks) {
      if (!session->PushColumns(c).ok()) state.SkipWithError("push failed");
    }
    if (!session->Finish().ok()) state.SkipWithError("finish failed");
    state.PauseTiming();
    session.reset();
    state.ResumeTiming();
  }
  benchmark::DoNotOptimize(results);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(events.size()));
}
BENCHMARK(BM_SessionPushColumns);

}  // namespace
}  // namespace fw

BENCHMARK_MAIN();
