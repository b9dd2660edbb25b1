#include "exec/operator.h"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace fw {
namespace {

WindowAggregateOperator::Config MakeConfig(Window w, AggFn agg,
                                           int id = 0, bool exposed = true,
                                           uint32_t num_keys = 1) {
  WindowAggregateOperator::Config config;
  config.window = w;
  config.agg = agg;
  config.operator_id = id;
  config.exposed = exposed;
  config.num_keys = num_keys;
  return config;
}

std::vector<Event> UnitStream(TimeT length, double base = 0.0) {
  std::vector<Event> events;
  for (TimeT t = 0; t < length; ++t) {
    events.push_back(Event{t, 0, base + static_cast<double>(t)});
  }
  return events;
}

// Ground truth: evaluate `agg` per window instance by scanning the events.
std::map<std::tuple<TimeT, TimeT, uint32_t>, double> BruteForce(
    const Window& w, AggFn agg, const std::vector<Event>& events) {
  std::map<std::tuple<TimeT, TimeT, uint32_t>, std::vector<double>> buckets;
  for (const Event& e : events) {
    for (const Interval& iv : w.InstancesContaining(e.timestamp)) {
      buckets[{iv.start, iv.end, e.key}].push_back(e.value);
    }
  }
  std::map<std::tuple<TimeT, TimeT, uint32_t>, double> out;
  for (const auto& [key, values] : buckets) {
    out[key] = AggReference(agg, values).value();
  }
  return out;
}

std::map<std::tuple<TimeT, TimeT, uint32_t>, double> SinkToMap(
    const CollectingSink& sink) {
  std::map<std::tuple<TimeT, TimeT, uint32_t>, double> out;
  for (const WindowResult& r : sink.results()) {
    out[{r.start, r.end, r.key}] = r.value;
  }
  return out;
}

TEST(WindowOperator, TumblingMinCompleteWindows) {
  CollectingSink sink;
  WindowAggregateOperator op(MakeConfig(Window::Tumbling(10), Agg("MIN")),
                             &sink);
  for (const Event& e : UnitStream(30)) op.OnEvent(e);
  op.Flush();
  ASSERT_EQ(sink.results().size(), 3u);
  EXPECT_DOUBLE_EQ(sink.results()[0].value, 0.0);
  EXPECT_EQ(sink.results()[0].start, 0);
  EXPECT_EQ(sink.results()[0].end, 10);
  EXPECT_DOUBLE_EQ(sink.results()[1].value, 10.0);
  EXPECT_DOUBLE_EQ(sink.results()[2].value, 20.0);
}

TEST(WindowOperator, EmitsOnWatermarkNotOnlyFlush) {
  CollectingSink sink;
  WindowAggregateOperator op(MakeConfig(Window::Tumbling(10), Agg("SUM")),
                             &sink);
  for (const Event& e : UnitStream(11)) op.OnEvent(e);
  // Event at t=10 closes [0,10).
  EXPECT_EQ(sink.results().size(), 1u);
  EXPECT_DOUBLE_EQ(sink.results()[0].value, 45.0);
}

TEST(WindowOperator, FlushEmitsPartialInstance) {
  CollectingSink sink;
  WindowAggregateOperator op(MakeConfig(Window::Tumbling(10), Agg("COUNT")),
                             &sink);
  for (const Event& e : UnitStream(7)) op.OnEvent(e);
  op.Flush();
  ASSERT_EQ(sink.results().size(), 1u);
  EXPECT_DOUBLE_EQ(sink.results()[0].value, 7.0);
  EXPECT_EQ(sink.results()[0].end, 10);  // Nominal interval.
}

TEST(WindowOperator, HoppingAssignsToAllInstances) {
  CollectingSink sink;
  WindowAggregateOperator op(MakeConfig(Window(10, 2), Agg("MIN")), &sink);
  std::vector<Event> events = UnitStream(20);
  for (const Event& e : events) op.OnEvent(e);
  op.Flush();
  EXPECT_EQ(SinkToMap(sink),
            BruteForce(Window(10, 2), Agg("MIN"), events));
}

TEST(WindowOperator, DataGapSkipsEmptyInstances) {
  CollectingSink sink;
  WindowAggregateOperator op(MakeConfig(Window::Tumbling(10), Agg("MIN")),
                             &sink);
  op.OnEvent(Event{5, 0, 1.0});
  op.OnEvent(Event{95, 0, 2.0});  // Eight empty windows in between.
  op.Flush();
  ASSERT_EQ(sink.results().size(), 2u);
  EXPECT_EQ(sink.results()[0].start, 0);
  EXPECT_EQ(sink.results()[1].start, 90);
}

TEST(WindowOperator, GroupsByKey) {
  CollectingSink sink;
  WindowAggregateOperator op(
      MakeConfig(Window::Tumbling(10), Agg("SUM"), 0, true, 3), &sink);
  for (TimeT t = 0; t < 10; ++t) {
    op.OnEvent(Event{t, static_cast<uint32_t>(t % 3), 1.0});
  }
  op.Flush();
  ASSERT_EQ(sink.results().size(), 3u);
  double total = 0;
  for (const WindowResult& r : sink.results()) total += r.value;
  EXPECT_DOUBLE_EQ(total, 10.0);
  // Key 0 saw events at t = 0,3,6,9.
  auto by_key = SinkToMap(sink);
  EXPECT_EQ((by_key[{0, 10, 0}]), 4.0);
}

TEST(WindowOperator, CountsAccumulateOps) {
  CollectingSink sink;
  // Tumbling window: exactly one op per event.
  WindowAggregateOperator tumbling(
      MakeConfig(Window::Tumbling(10), Agg("MIN")), &sink);
  for (const Event& e : UnitStream(100)) tumbling.OnEvent(e);
  EXPECT_EQ(tumbling.accumulate_ops(), 100u);
  // Hopping r/s = 5: five ops per event once warmed up.
  WindowAggregateOperator hopping(MakeConfig(Window(10, 2), Agg("MIN")),
                                  &sink);
  for (const Event& e : UnitStream(100)) hopping.OnEvent(e);
  // Warm-up: events at t<8 touch 1..4 instances (20 ops total); the
  // remaining 92 events touch 5 instances each.
  EXPECT_EQ(hopping.accumulate_ops(), 20u + 92u * 5u);
}

TEST(WindowOperator, SubAggregatePartitionedPath) {
  // T(20) consumes T(10)'s output; SUM must match direct evaluation.
  CollectingSink inner_sink;
  CollectingSink outer_sink;
  WindowAggregateOperator outer(
      MakeConfig(Window::Tumbling(20), Agg("SUM"), 1), &outer_sink);
  WindowAggregateOperator inner(
      MakeConfig(Window::Tumbling(10), Agg("SUM"), 0), &inner_sink);
  inner.AddChild(&outer);
  std::vector<Event> events = UnitStream(40);
  for (const Event& e : events) inner.OnEvent(e);
  inner.Flush();
  outer.Flush();
  EXPECT_EQ(SinkToMap(outer_sink),
            BruteForce(Window::Tumbling(20), Agg("SUM"), events));
  // Outer did 2 merges per instance instead of 20 accumulates.
  EXPECT_EQ(outer.accumulate_ops(), 4u);
}

TEST(WindowOperator, SubAggregateCoveredPathOverlapping) {
  // W(10,2) consumes W(8,2)'s overlapping sub-aggregates (MIN only).
  CollectingSink inner_sink;
  CollectingSink outer_sink;
  WindowAggregateOperator outer(MakeConfig(Window(10, 2), Agg("MIN"), 1),
                                &outer_sink);
  WindowAggregateOperator inner(MakeConfig(Window(8, 2), Agg("MIN"), 0),
                                &inner_sink);
  inner.AddChild(&outer);
  Rng rng(5);
  std::vector<Event> events;
  for (TimeT t = 0; t < 60; ++t) {
    events.push_back(Event{t, 0, rng.UniformReal(-100, 100)});
  }
  for (const Event& e : events) inner.OnEvent(e);
  inner.Flush();
  outer.Flush();
  EXPECT_EQ(SinkToMap(outer_sink),
            BruteForce(Window(10, 2), Agg("MIN"), events));
}

TEST(WindowOperator, UnexposedEmitsNothingButForwards) {
  CollectingSink sink;
  WindowAggregateOperator outer(
      MakeConfig(Window::Tumbling(20), Agg("MIN"), 1), &sink);
  WindowAggregateOperator hidden(
      MakeConfig(Window::Tumbling(10), Agg("MIN"), 0, /*exposed=*/false),
      nullptr);
  hidden.AddChild(&outer);
  for (const Event& e : UnitStream(40)) hidden.OnEvent(e);
  hidden.Flush();
  outer.Flush();
  // Only the outer operator's two instances appear.
  ASSERT_EQ(sink.results().size(), 2u);
  EXPECT_EQ(sink.results()[0].operator_id, 1);
}

TEST(WindowOperator, ResetClearsState) {
  CollectingSink sink;
  WindowAggregateOperator op(MakeConfig(Window::Tumbling(10), Agg("SUM")),
                             &sink);
  for (const Event& e : UnitStream(10)) op.OnEvent(e);
  op.Reset();
  EXPECT_EQ(op.accumulate_ops(), 0u);
  for (const Event& e : UnitStream(10)) op.OnEvent(e);
  op.Flush();
  // Two runs but only the second produced output (reset dropped run 1).
  ASSERT_EQ(sink.results().size(), 1u);
  EXPECT_DOUBLE_EQ(sink.results()[0].value, 45.0);
}

// --- Touched-key emission ------------------------------------------------

bool SameResults(const std::vector<WindowResult>& a,
                 const std::vector<WindowResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].operator_id != b[i].operator_id || a[i].start != b[i].start ||
        a[i].end != b[i].end || a[i].key != b[i].key ||
        std::bit_cast<uint64_t>(a[i].value) !=
            std::bit_cast<uint64_t>(b[i].value)) {
      return false;
    }
  }
  return true;
}

TEST(TouchedKeys, CheckpointRestoreFlushEmitsLikeUninterrupted) {
  // Mid-instance snapshot of a hopping window over a sparse key space:
  // the restored operator rebuilds its touched bitmaps from the states
  // and must emit exactly what the uninterrupted one does, in order.
  constexpr uint32_t kKeys = 300;
  Rng rng(31);
  std::vector<Event> events;
  for (TimeT t = 0; t < 400; ++t) {
    events.push_back(Event{t, static_cast<uint32_t>(rng.Uniform(0, 40)) * 7,
                           rng.UniformReal(-50, 50)});
  }
  const size_t cut = 237;  // Inside several open instances.
  for (const char* agg : {"SUM", "P99"}) {
    const auto config =
        MakeConfig(Window(50, 20), Agg(agg), 0, true, kKeys);
    CollectingSink whole_sink;
    WindowAggregateOperator whole(config, &whole_sink);
    for (const Event& e : events) whole.OnEvent(e);
    whole.Flush();

    CollectingSink first_sink;
    WindowAggregateOperator first(config, &first_sink);
    for (size_t i = 0; i < cut; ++i) first.OnEvent(events[i]);
    const OperatorCheckpoint checkpoint = first.Checkpoint();
    ASSERT_FALSE(checkpoint.open_instances.empty());
    CollectingSink resumed_sink;
    WindowAggregateOperator resumed(config, &resumed_sink);
    ASSERT_TRUE(resumed.Restore(checkpoint).ok());
    for (size_t i = cut; i < events.size(); ++i) resumed.OnEvent(events[i]);
    resumed.Flush();

    std::vector<WindowResult> combined = first_sink.results();
    combined.insert(combined.end(), resumed_sink.results().begin(),
                    resumed_sink.results().end());
    EXPECT_TRUE(SameResults(combined, whole_sink.results())) << agg;
    // Restored instances that get no further input still emit.
    CollectingSink flushed_sink;
    WindowAggregateOperator flushed(config, &flushed_sink);
    ASSERT_TRUE(flushed.Restore(checkpoint).ok());
    flushed.Flush();
    EXPECT_GT(flushed_sink.results().size(), 0u) << agg;
  }
}

TEST(TouchedKeys, KeyTouchedOnlyByMergeIsEmitted) {
  CollectingSink sink;
  WindowAggregateOperator op(
      MakeConfig(Window::Tumbling(20), Agg("SUM"), 3, true, 256), &sink);
  AggState state;
  Agg("SUM")->accumulate(&state, 2.5);
  Agg("SUM")->accumulate(&state, 4.0);
  op.OnSubAgg(SubAggRecord{0, 10, 200, state});
  op.OnSubAgg(SubAggRecord{10, 20, 77, state});
  op.Flush();
  ASSERT_EQ(sink.results().size(), 2u);
  EXPECT_EQ(sink.results()[0].key, 77u);  // Key-ascending emission.
  EXPECT_EQ(sink.results()[1].key, 200u);
  EXPECT_DOUBLE_EQ(sink.results()[1].value, 6.5);
  EXPECT_EQ(op.finalized_results(), 2u);
}

TEST(TouchedKeys, RecycledSketchBufferEmitsOnlyThisInstancesKeys) {
  // P99 keeps sketch allocations in pooled buffers; an instance reusing
  // the buffer of one that touched keys {1, 9, 60, 130} must emit only
  // the key it touched itself.
  CollectingSink sink;
  WindowAggregateOperator op(
      MakeConfig(Window::Tumbling(10), Agg("P99"), 0, true, 200), &sink);
  for (uint32_t key : {130u, 9u, 60u, 1u}) {
    op.OnEvent(Event{3, key, static_cast<double>(key)});
  }
  op.OnEvent(Event{12, 64, 5.0});  // [10, 20) reuses [0, 10)'s buffer.
  op.OnEvent(Event{25, 9, 7.0});   // [20, 30) reuses it again.
  op.Flush();
  std::vector<std::pair<TimeT, uint32_t>> emitted;
  for (const WindowResult& r : sink.results()) {
    emitted.emplace_back(r.start, r.key);
  }
  EXPECT_EQ(emitted, (std::vector<std::pair<TimeT, uint32_t>>{
                         {0, 1}, {0, 9}, {0, 60}, {0, 130}, {10, 64},
                         {20, 9}}));
}

TEST(TouchedKeys, EmissionVisitsOnlyTouchedStates) {
  // 4,096 keys, 3 touched: one closed instance, exactly 3 finalized
  // states, in ascending key order across bitmap words.
  CollectingSink sink;
  WindowAggregateOperator op(
      MakeConfig(Window::Tumbling(100), Agg("MIN"), 0, true, 4096), &sink);
  op.OnEvent(Event{1, 4095, 1.0});
  op.OnEvent(Event{2, 63, 2.0});
  op.OnEvent(Event{3, 64, 3.0});
  op.OnEvent(Event{4, 4095, -1.0});
  op.Flush();
  EXPECT_EQ(op.closed_instances(), 1u);
  EXPECT_EQ(op.finalized_results(), 3u);
  ASSERT_EQ(sink.results().size(), 3u);
  EXPECT_EQ(sink.results()[0].key, 63u);
  EXPECT_EQ(sink.results()[1].key, 64u);
  EXPECT_EQ(sink.results()[2].key, 4095u);
  EXPECT_DOUBLE_EQ(sink.results()[2].value, -1.0);
}

TEST(WindowOperatorDeathTest, ConfigValidation) {
  CollectingSink sink;
  EXPECT_DEATH(WindowAggregateOperator(
                   MakeConfig(Window(10, 10), Agg("MEDIAN")), &sink),
               "Holistic");
  EXPECT_DEATH(WindowAggregateOperator(
                   MakeConfig(Window(10, 10), Agg("MIN")), nullptr),
               "sink");
}

TEST(HolisticOperator, MedianPerWindow) {
  CollectingSink sink;
  HolisticWindowOperator op(MakeConfig(Window::Tumbling(5), Agg("MEDIAN")),
                            &sink);
  std::vector<Event> events = {{0, 0, 5.0}, {1, 0, 1.0}, {2, 0, 9.0},
                               {3, 0, 7.0}, {4, 0, 3.0}, {5, 0, 2.0},
                               {6, 0, 4.0}};
  for (const Event& e : events) op.OnEvent(e);
  op.Flush();
  ASSERT_EQ(sink.results().size(), 2u);
  EXPECT_DOUBLE_EQ(sink.results()[0].value, 5.0);  // median{5,1,9,7,3}.
  EXPECT_DOUBLE_EQ(sink.results()[1].value, 2.0);  // lower median{2,4}.
}

TEST(HolisticOperator, HoppingMedianMatchesBruteForce) {
  CollectingSink sink;
  HolisticWindowOperator op(MakeConfig(Window(6, 2), Agg("MEDIAN")),
                            &sink);
  Rng rng(17);
  std::vector<Event> events;
  for (TimeT t = 0; t < 30; ++t) {
    events.push_back(Event{t, 0, rng.UniformReal(0, 10)});
  }
  for (const Event& e : events) op.OnEvent(e);
  op.Flush();
  EXPECT_EQ(SinkToMap(sink),
            BruteForce(Window(6, 2), Agg("MEDIAN"), events));
}

// Property: the raw path matches brute force for every aggregate and a
// grid of window shapes, with randomized values and same-timestamp ties.
struct OpSweepParam {
  TimeT range;
  TimeT slide;
  AggFn agg;
};

class OperatorSweep : public ::testing::TestWithParam<OpSweepParam> {};

TEST_P(OperatorSweep, RawPathMatchesBruteForce) {
  OpSweepParam param = GetParam();
  CollectingSink sink;
  WindowAggregateOperator op(
      MakeConfig(Window(param.range, param.slide), param.agg, 0, true, 2),
      &sink);
  Rng rng(static_cast<uint64_t>(param.range * 100 + param.slide));
  std::vector<Event> events;
  TimeT t = 0;
  for (int i = 0; i < 200; ++i) {
    t += static_cast<TimeT>(rng.Uniform(0, 2));  // Ties and small gaps.
    events.push_back(Event{t, static_cast<uint32_t>(rng.Uniform(0, 1)),
                           rng.UniformReal(-10, 10)});
  }
  for (const Event& e : events) op.OnEvent(e);
  op.Flush();
  auto expected = BruteForce(Window(param.range, param.slide), param.agg,
                             events);
  auto actual = SinkToMap(sink);
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [key, value] : expected) {
    ASSERT_TRUE(actual.count(key));
    EXPECT_NEAR(actual[key], value, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OperatorSweep,
    ::testing::Values(OpSweepParam{10, 10, Agg("MIN")},
                      OpSweepParam{10, 2, Agg("MIN")},
                      OpSweepParam{10, 5, Agg("MAX")},
                      OpSweepParam{12, 3, Agg("SUM")},
                      OpSweepParam{8, 2, Agg("COUNT")},
                      OpSweepParam{9, 3, Agg("AVG")},
                      OpSweepParam{15, 5, Agg("STDEV")},
                      OpSweepParam{7, 3, Agg("SUM")},
                      OpSweepParam{1, 1, Agg("MIN")}));

}  // namespace
}  // namespace fw
