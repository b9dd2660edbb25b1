// Telemetry layer (DESIGN.md §13): bucket math and percentile contracts
// of the log2 histogram, sharded-cell exactness, trace-ring bounds,
// renderer formats, the headline merge contract — session counters
// stay exact across a 1→4→2 live resize ramp — and the one-writer-per-
// cell contract: worker hand-off samples fold exactly through a drift
// crossover and past 16 shards, and (in builds without NDEBUG) a second
// writer thread aborts. Writer/snapshot races run
// under the `threaded` label, so the ThreadSanitizer CI leg proves
// snapshots are race-free. Every value assertion is gated on
// telemetry::kEnabled, so this suite also passes in a
// -DFW_TELEMETRY=OFF build, where it instead pins the compile-out
// contract (empty snapshots, enabled=false, zero-cost objects).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "session/session.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/prometheus.h"
#include "workload/datagen.h"

namespace fw {
namespace telemetry {
namespace {

// --- Bucket math (pure functions: hold in ON and OFF builds alike) ----------

TEST(BucketMath, BoundariesRoundTrip) {
  EXPECT_EQ(BucketOf(0), 0u);
  EXPECT_EQ(BucketOf(1), 1u);
  EXPECT_EQ(BucketOf(2), 2u);
  EXPECT_EQ(BucketOf(3), 2u);
  EXPECT_EQ(BucketOf(4), 3u);
  EXPECT_EQ(BucketOf(~uint64_t{0}), 64u);
  for (uint32_t b = 0; b < kHistogramBuckets; ++b) {
    EXPECT_EQ(BucketOf(BucketLow(b)), b) << "low edge of bucket " << b;
    EXPECT_EQ(BucketOf(BucketHigh(b)), b) << "high edge of bucket " << b;
    if (b > 0) {
      EXPECT_EQ(BucketHigh(b - 1) + 1, BucketLow(b))
          << "gap between buckets " << b - 1 << " and " << b;
    }
  }
}

TEST(BucketMath, EmptySnapshotPercentiles) {
  HistogramSnapshot empty;
  EXPECT_EQ(empty.Percentile(0.5), 0.0);
  EXPECT_EQ(empty.Mean(), 0.0);
}

// --- Histogram ---------------------------------------------------------------

TEST(Histogram, RecordCountsSumAndBuckets) {
  Histogram hist;
  // 10 zeros, 5 ones, 3 in [4,7] (bucket 3), across different cells.
  for (int i = 0; i < 10; ++i) hist.Record(i, 0);
  for (int i = 0; i < 5; ++i) hist.Record(i + 7, 1);
  hist.Record(0, 4);
  hist.Record(1, 5);
  hist.Record(31, 7);  // Masked down to cell 15.
  HistogramSnapshot snap = hist.Snapshot();
  if (!kEnabled) {
    EXPECT_EQ(snap.count, 0u);
    return;
  }
  EXPECT_EQ(snap.count, 18u);
  EXPECT_EQ(snap.sum, 10u * 0 + 5u * 1 + 4 + 5 + 7);
  EXPECT_EQ(snap.buckets[0], 10u);
  EXPECT_EQ(snap.buckets[1], 5u);
  EXPECT_EQ(snap.buckets[2], 0u);
  EXPECT_EQ(snap.buckets[3], 3u);
}

TEST(Histogram, PercentileRankWalk) {
  Histogram hist;
  // 50 zeros and 50 values of 100 (bucket 7 = [64, 127]).
  for (int i = 0; i < 50; ++i) hist.Record(0, 0);
  for (int i = 0; i < 50; ++i) hist.Record(0, 100);
  HistogramSnapshot snap = hist.Snapshot();
  if (!kEnabled) return;
  // Ranks <= 50 land in the zero bucket: exact.
  EXPECT_EQ(snap.Percentile(0.25), 0.0);
  // Ranks above land in bucket 7: the interpolated estimate must stay
  // inside the bucket's value range — the factor-of-two contract.
  const double p90 = snap.Percentile(0.90);
  EXPECT_GE(p90, static_cast<double>(BucketLow(7)));
  EXPECT_LE(p90, static_cast<double>(BucketHigh(7)));
  // Percentiles are monotone in q.
  EXPECT_LE(snap.Percentile(0.50), snap.Percentile(0.75));
  EXPECT_LE(snap.Percentile(0.75), snap.Percentile(0.99));
}

// --- Counters, gauges, cells -------------------------------------------------

TEST(Counter, ShardedCellsSumExactly) {
  Counter counter;
  uint64_t expected = 0;
  // Hit every cell, including indices past the mask (index 16+ aliases
  // onto cell (i & 15) — totals must stay exact either way). One thread
  // writes them all, so every aliased cell still has a single writer.
  for (uint32_t i = 0; i < 3 * kCells; ++i) {
    counter.Add(i, i + 1);
    expected += i + 1;
  }
  EXPECT_EQ(counter.Total(), kEnabled ? expected : 0u);
}

TEST(MaxGauge, PerCellHighWaterMarks) {
  MaxGauge gauge;
  gauge.UpdateMax(0, 5);
  gauge.UpdateMax(0, 3);  // Lower: must not overwrite.
  gauge.UpdateMax(3, 9);
  gauge.UpdateMax(kCells + 3, 7);  // Aliases cell 3; below its max.
  EXPECT_EQ(gauge.Max(), kEnabled ? 9u : 0u);
  if (kEnabled) {
    std::vector<uint64_t> cells = gauge.PerCell();
    ASSERT_EQ(cells.size(), kCells);
    EXPECT_EQ(cells[0], 5u);
    EXPECT_EQ(cells[3], 9u);
  }
}

TEST(Gauge, SetAndRead) {
  Gauge gauge;
  gauge.Set(0.75);
  EXPECT_EQ(gauge.Value(), kEnabled ? 0.75 : 0.0);
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, HandlesAreStableAcrossReResolution) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("exec.some_counter");
  a->Increment(0);
  // Re-resolving (what a replan's fresh executor does) returns the same
  // object and never resets it — the cumulative-across-swaps contract.
  Counter* b = registry.GetCounter("exec.some_counter");
  EXPECT_EQ(a, b);
  EXPECT_EQ(b->Total(), kEnabled ? 1u : 0u);
  EXPECT_EQ(registry.GetHistogram("h"), registry.GetHistogram("h"));
  EXPECT_EQ(registry.GetGauge("g"), registry.GetGauge("g"));
  EXPECT_EQ(registry.GetMaxGauge("m"), registry.GetMaxGauge("m"));
}

TEST(Registry, TraceRingBoundsAndOrder) {
  MetricsRegistry registry;
  const size_t extra = 17;
  const size_t total = MetricsRegistry::kTraceCapacity + extra;
  for (size_t i = 0; i < total; ++i) {
    registry.RecordTrace(TraceKind::kCheckpoint, 0,
                         static_cast<int64_t>(i));
  }
  MetricsSnapshot snap = registry.Snapshot();
  if (!kEnabled) {
    EXPECT_FALSE(snap.enabled);
    EXPECT_TRUE(snap.trace.empty());
    EXPECT_EQ(snap.trace_dropped, 0u);
    return;
  }
  ASSERT_EQ(snap.trace.size(), MetricsRegistry::kTraceCapacity);
  EXPECT_EQ(snap.trace_dropped, extra);
  // Oldest first: the surviving window is [extra, total).
  for (size_t i = 0; i < snap.trace.size(); ++i) {
    EXPECT_EQ(snap.trace[i].a, static_cast<int64_t>(extra + i));
    if (i > 0) {
      EXPECT_GE(snap.trace[i].at_ns, snap.trace[i - 1].at_ns);
    }
  }
}

TEST(Registry, CompileOutContract) {
  if (kEnabled) GTEST_SKIP() << "pins the -DFW_TELEMETRY=OFF build only";
  // Compiled out, metric objects carry no storage (an empty class, not
  // 16 cache lines of cells) and snapshots come back empty.
  EXPECT_LE(sizeof(Counter), sizeof(void*));
  EXPECT_LE(sizeof(Histogram), sizeof(void*));
  MetricsRegistry registry;
  registry.GetCounter("x")->Add(0, 42);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_FALSE(snap.enabled);
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_EQ(NowNanosIfEnabled(), 0u);
}

// Writers on four threads against one registry while the main thread
// snapshots continuously: TSan (the `threaded` CI leg) proves the
// relaxed cells and the locked snapshot never race, and the final
// quiesced snapshot is exact. Each writer owns its own cell (cell t) —
// the one-writer-per-cell contract that makes a plain load+store update
// lossless.
TEST(Registry, SnapshotIsRaceFreeAndExactOnceQuiesced) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("t.counter");
  Histogram* hist = registry.GetHistogram("t.hist");
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20'000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Increment(static_cast<uint32_t>(t));
        hist->Record(static_cast<uint32_t>(t), i & 1023);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Live snapshots race benignly with the relaxed writers; they must
  // never crash, tear a histogram row, or trip TSan.
  for (int i = 0; i < 50; ++i) {
    MetricsSnapshot live = registry.Snapshot();
    EXPECT_LE(live.counters["t.counter"], kThreads * kPerThread);
  }
  for (std::thread& w : writers) w.join();
  MetricsSnapshot final_snap = registry.Snapshot();
  if (kEnabled) {
    EXPECT_EQ(final_snap.counters["t.counter"], kThreads * kPerThread);
    EXPECT_EQ(final_snap.histograms["t.hist"].count, kThreads * kPerThread);
  }
}

// --- Renderers ---------------------------------------------------------------

MetricsSnapshot RenderFixture() {
  MetricsSnapshot snap;
  snap.counters["session.events_pushed"] = 1234;
  snap.gauges["session.ring_occupancy"] = 0.5;
  HistogramSnapshot hist;
  hist.count = 3;
  hist.sum = 0 + 1 + 100;
  hist.buckets[BucketOf(0)] += 1;
  hist.buckets[BucketOf(1)] += 1;
  hist.buckets[BucketOf(100)] += 1;
  snap.histograms["exec.lat"] = hist;
  TraceEvent event;
  event.at_ns = 7;
  event.kind = TraceKind::kResize;
  event.duration_ns = 99;
  event.a = 1;
  event.b = 4;
  snap.trace.push_back(event);
  snap.trace_dropped = 2;
  return snap;
}

TEST(Prometheus, RendersExpositionFormat) {
  std::string text = RenderPrometheus(RenderFixture());
  EXPECT_NE(text.find("# TYPE fw_session_events_pushed counter\n"
                      "fw_session_events_pushed 1234\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fw_session_ring_occupancy gauge\n"
                      "fw_session_ring_occupancy 0.5\n"),
            std::string::npos);
  // Cumulative le-buckets: zeros bucket (le="0") 1, le="1" 2, then the
  // populated prefix runs to bucket 7 (le="127") before +Inf.
  EXPECT_NE(text.find("fw_exec_lat_bucket{le=\"0\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("fw_exec_lat_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("fw_exec_lat_bucket{le=\"127\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("fw_exec_lat_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("fw_exec_lat_sum 101\n"), std::string::npos);
  EXPECT_NE(text.find("fw_exec_lat_count 3\n"), std::string::npos);
}

TEST(Json, RendersSnapshotShape) {
  std::string json = RenderJson(RenderFixture());
  EXPECT_NE(json.find("\"session.events_pushed\": 1234"), std::string::npos);
  EXPECT_NE(json.find("\"session.ring_occupancy\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 3, \"sum\": 101"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"resize\", \"duration_ns\": 99, "
                      "\"a\": 1, \"b\": 4"),
            std::string::npos);
  EXPECT_NE(json.find("\"trace_dropped\": 2"), std::string::npos);
}

// --- Session integration: merge exactness across a live resize ramp ----------

using SessionResults =
    std::map<std::tuple<int, TimeT, TimeT, uint32_t>, double>;

StreamSession::ResultCallback Collect(SessionResults* out) {
  return [out](const WindowResult& r) {
    (*out)[{r.operator_id, r.start, r.end, r.key}] = r.value;
  };
}

void AddDashboards(StreamSession& session, SessionResults* results) {
  QueryBuilder dash = Query().Max("v").From("fleet").PerKey("device");
  ASSERT_TRUE(
      session.AddQuery(QueryBuilder(dash).Tumbling(20).Hopping(60, 20),
                       Collect(results))
          .ok());
  ASSERT_TRUE(
      session.AddQuery(QueryBuilder(dash).Tumbling(40), Collect(results))
          .ok());
}

// The headline contract: a session resized 1→4→2 mid-stream reports
// byte-identical results, and its metric totals survive the shard
// checkpoint hand-offs without loss or double-merge. Two counter
// families with two different exactness shapes:
//
//  * finalized_results counts delivered results — width-*invariant*, so
//    the ramp must equal a fixed single-shard run exactly;
//  * closed_instances counts per-shard instance closes — each shard
//    closes its own copy of a window instance for its keys, so totals
//    legitimately scale with the width profile. Exactness there means
//    deterministic (an identical ramp reproduces the totals bit-for-bit,
//    so the retired-tally banking at each resize loses nothing) and
//    conserved within [fixed, max_width * fixed].
//
// Engine totals come from the engine's own counters, so this holds even
// in an OFF build.
TEST(SessionMetrics, CountersMergeExactlyAcrossResizeRamp) {
  const std::vector<Event> events = GenerateSyntheticStream(12'000, 16, 91);

  SessionResults fixed_results;
  StreamSession::SessionMetrics fixed;
  {
    StreamSession session({.num_keys = 16, .num_shards = 1});
    AddDashboards(session, &fixed_results);
    ASSERT_TRUE(session.PushBatch(events).ok());
    ASSERT_TRUE(session.Finish().ok());
    fixed = session.Metrics();
  }

  auto run_ramp = [&](SessionResults* results,
                      StreamSession::SessionMetrics* metrics) {
    StreamSession session({.num_keys = 16, .num_shards = 1});
    AddDashboards(session, results);
    const size_t third = events.size() / 3;
    for (size_t i = 0; i < events.size(); ++i) {
      if (i == third) {
        ASSERT_TRUE(session.Resize(4).ok());
      }
      if (i == 2 * third) {
        ASSERT_TRUE(session.Resize(2).ok());
      }
      ASSERT_TRUE(session.Push(events[i]).ok());
    }
    ASSERT_TRUE(session.Finish().ok());
    *metrics = session.Metrics();
  };
  SessionResults ramp_results;
  StreamSession::SessionMetrics ramp;
  run_ramp(&ramp_results, &ramp);
  SessionResults replay_results;
  StreamSession::SessionMetrics replay;
  run_ramp(&replay_results, &replay);

  EXPECT_EQ(ramp_results, fixed_results);
  EXPECT_EQ(ramp.finalized_results_total, fixed.finalized_results_total);
  EXPECT_EQ(ramp.finalized_results_total, ramp_results.size());
  // Replay determinism: if any resize hand-off dropped or double-banked
  // a tally, two identical runs could not agree bit-for-bit.
  EXPECT_EQ(replay.closed_instances_total, ramp.closed_instances_total);
  EXPECT_EQ(replay.finalized_results_total, ramp.finalized_results_total);
  // Conservation: at least the single-shard closes, at most max-width
  // copies of them.
  EXPECT_GE(ramp.closed_instances_total, fixed.closed_instances_total);
  EXPECT_LE(ramp.closed_instances_total, 4 * fixed.closed_instances_total);
  ASSERT_EQ(ramp.operators.size(), fixed.operators.size());
  for (size_t i = 0; i < ramp.operators.size(); ++i) {
    EXPECT_EQ(ramp.operators[i].finalized_results,
              fixed.operators[i].finalized_results)
        << "operator " << i;
    EXPECT_EQ(replay.operators[i].closed_instances,
              ramp.operators[i].closed_instances)
        << "operator " << i;
    EXPECT_GE(ramp.operators[i].closed_instances,
              fixed.operators[i].closed_instances)
        << "operator " << i;
  }
  EXPECT_EQ(ramp.telemetry_enabled, kEnabled);
  if (kEnabled) {
    EXPECT_EQ(ramp.telemetry.counters.at("session.events_pushed"),
              events.size());
    EXPECT_EQ(ramp.telemetry.counters.at("session.events_pushed"),
              fixed.telemetry.counters.at("session.events_pushed"));
    EXPECT_EQ(ramp.telemetry.counters.at("session.resizes"), 2u);
    // Both resize spans made it into the trace ring.
    int resizes_traced = 0;
    for (const TraceEvent& event : ramp.telemetry.trace) {
      if (event.kind == TraceKind::kResize) ++resizes_traced;
    }
    EXPECT_EQ(resizes_traced, 2);
  } else {
    EXPECT_FALSE(ramp.telemetry.enabled);
    EXPECT_TRUE(ramp.telemetry.counters.empty());
  }
}

// PushColumns records each event's watermark lag against a local
// watermark while it validates the batch; the histogram must equal
// per-event Push's, sample for sample — over a disordered stream whose
// lags spread across buckets, with some events late enough to be
// dropped.
TEST(SessionMetrics, ColumnarLagHistogramMatchesScalar) {
  if (!kEnabled) GTEST_SKIP() << "compiled-out histograms record nothing";
  const std::vector<Event> events = ApplyBoundedDisorder(
      GenerateSyntheticStream(6'000, 16, 95), 12, 96);
  auto run = [&](bool columnar) {
    StreamSession session({.num_keys = 16, .max_delay = 6});
    SessionResults results;
    AddDashboards(session, &results);
    if (columnar) {
      for (const EventColumns& batch : SplitIntoColumns(events, 97)) {
        EXPECT_TRUE(session.PushColumns(batch).ok());
      }
    } else {
      for (const Event& e : events) EXPECT_TRUE(session.Push(e).ok());
    }
    EXPECT_TRUE(session.Finish().ok());
    return session.Metrics().telemetry.histograms.at("session.watermark_lag");
  };
  const HistogramSnapshot scalar = run(false);
  const HistogramSnapshot columnar = run(true);
  EXPECT_EQ(scalar.count, events.size());
  EXPECT_GT(scalar.count, scalar.buckets[0]);  // Some lags are nonzero.
  EXPECT_EQ(columnar.count, scalar.count);
  EXPECT_EQ(columnar.sum, scalar.sum);
  EXPECT_EQ(columnar.buckets, scalar.buckets);
}

// --- Single-writer cells -----------------------------------------------------

// The debug-build check behind the one-writer-per-cell contract: a cell
// remembers the first thread that wrote it, and a write from another
// thread aborts instead of racing its load+store update.
TEST(SingleWriterDeathTest, SecondWriterThreadAborts) {
#ifdef NDEBUG
  GTEST_SKIP() << "the single-writer check exists only without NDEBUG";
#else
  if (!kEnabled) GTEST_SKIP() << "compiled-out metrics have no cells";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Writes once here, then once more from a second thread.
  auto second_writer = [](auto write) {
    write();
    std::thread other(write);
    other.join();
  };
  Counter counter;
  EXPECT_DEATH(second_writer([&] { counter.Increment(0); }), "second thread");
  Histogram hist;
  EXPECT_DEATH(second_writer([&] { hist.Record(3, 7); }), "second thread");
  MaxGauge gauge;
  EXPECT_DEATH(second_writer([&] { gauge.UpdateMax(1, 9); }), "second thread");
  HistogramCell cell;
  EXPECT_DEATH(second_writer([&] { cell.Record(5); }), "second thread");
  // One writer per cell across threads is the contract, not a breach.
  Counter shared;
  std::thread other([&] { shared.Increment(1); });
  other.join();
  shared.Increment(0);
  EXPECT_EQ(shared.Total(), 2u);
#endif
}

// Every counter is independent of the shard width: the sharded session
// counts exactly what the single-shard run counts.
void ExpectCountersMatchOneShard(const MetricsSnapshot& wide,
                                 const MetricsSnapshot& one_shard) {
  if (!kEnabled) {
    EXPECT_TRUE(wide.counters.empty());
    return;
  }
  EXPECT_EQ(wide.counters, one_shard.counters);
}

uint64_t HandoffSamples(const MetricsSnapshot& snap) {
  return snap.histograms.at("executor.batch_handoff_ns").count;
}

// A structural drift replan runs two ShardedExecutors side by side until
// the old one retires; both hand batches to workers of their own. The
// workers record into shard-owned cells, and the session thread folds
// them into the registry at every quiesce — so at 2 shards the hand-off
// histogram stays exact through the crossover. Metrics() quiesces every
// live executor, so calling it after each Push makes every delivery its
// own batch: one per push, two while a crossover dual-feeds (a
// structural kDriftReplan opened it and no kCrossoverDone closed it
// yet). The histogram must gain exactly that after every push.
TEST(SingleWriterCells, DriftCrossoverFoldsEveryHandoff) {
  constexpr uint32_t kKeys = 4;
  // η = 0.05: raw reads so cheap that the factor window the plan gains
  // at the default η = 1 stops paying — the observed-rate replan evicts
  // it, which changes the plan's structure (elasticity_test pins the
  // result half of this crossover).
  std::vector<Event> events;
  events.reserve(6000);
  for (int i = 0; i < 6000; ++i) {
    events.push_back({.timestamp = static_cast<TimeT>(i) * 20,
                      .key = static_cast<uint32_t>(i) % kKeys,
                      .value = static_cast<double>(i % 313)});
  }
  auto run = [&](uint32_t shards, SessionResults* results) {
    StreamSession::Options options;
    options.num_keys = kKeys;
    options.num_shards = shards;
    options.adaptive.enabled = true;
    options.adaptive.check_interval = 256;
    options.adaptive.rate_alpha = 0.5;
    options.adaptive.reoptimize_ratio = 2.0;
    options.adaptive.min_events_between_replans = 1024;
    StreamSession session(options);
    EXPECT_TRUE(session
                    .AddQuery(Query()
                                  .Sum("v")
                                  .From("s")
                                  .PerKey("k")
                                  .Tumbling(20)
                                  .Tumbling(30)
                                  .Tumbling(40),
                              Collect(results))
                    .ok());
    uint64_t expected_batches = 0;
    bool crossing = false;
    for (size_t i = 0; i < events.size(); ++i) {
      EXPECT_TRUE(session.Push(events[i]).ok());
      const MetricsSnapshot snap = session.Metrics().telemetry;
      if (!kEnabled || shards == 1) continue;
      expected_batches += crossing ? 2 : 1;
      EXPECT_EQ(HandoffSamples(snap), expected_batches) << "push " << i;
      if (HandoffSamples(snap) != expected_batches) break;
      int open = 0;
      for (const TraceEvent& traced : snap.trace) {
        if (traced.kind == TraceKind::kDriftReplan && traced.a == 1) ++open;
        if (traced.kind == TraceKind::kCrossoverDone) --open;
      }
      crossing = open > 0;
    }
    EXPECT_TRUE(session.Finish().ok());
    if (kEnabled && shards > 1) {
      EXPECT_GT(expected_batches, events.size());  // Some dual feeding.
      EXPECT_EQ(HandoffSamples(session.Metrics().telemetry),
                expected_batches);
    }
    EXPECT_GE(session.Stats().drift_replans, 1);
    return session.Metrics();
  };
  SessionResults one_results;
  const StreamSession::SessionMetrics one = run(1, &one_results);
  SessionResults two_results;
  const StreamSession::SessionMetrics two = run(2, &two_results);
  EXPECT_EQ(two_results, one_results);
  ExpectCountersMatchOneShard(two.telemetry, one.telemetry);
  if (kEnabled) {
    int crossovers = 0;
    for (const TraceEvent& event : two.telemetry.trace) {
      if (event.kind == TraceKind::kDriftReplan && event.a == 1) ++crossovers;
    }
    EXPECT_GE(crossovers, 1) << "the drift replan must be structural";
  }
}

// Past kCells shards, shard indices would alias metric cells (shards 4
// and 20 on cell 4). Hand-off samples no longer touch registry cells
// from the workers, so 20 shards fold exactly — here with a
// bounded-lateness stream, so the reorder counters take part. One
// PushBatch stays below the executor's drain interval, so a shard hands
// off full batches only until Finish flushes its partial last one.
TEST(SingleWriterCells, TwentyShardsFoldEveryHandoff) {
  constexpr uint32_t kKeys = 40;
  const std::vector<Event> events = ApplyBoundedDisorder(
      GenerateSyntheticStream(12'000, kKeys, 93), 8, 94);
  auto run = [&](uint32_t shards, SessionResults* results) {
    StreamSession session(
        {.num_keys = kKeys, .num_shards = shards, .max_delay = 8});
    AddDashboards(session, results);
    EXPECT_TRUE(session.PushBatch(events).ok());
    EXPECT_TRUE(session.Finish().ok());
    StreamSession::SessionMetrics metrics = session.Metrics();
    if (kEnabled && shards > 1) {
      const size_t batch = ShardedExecutor::Options{}.batch_size;
      uint64_t expected_batches = 0;
      uint64_t delivered = 0;
      for (uint64_t n : metrics.stats.events_per_shard) {
        expected_batches += (n + batch - 1) / batch;
        delivered += n;
      }
      // Finish released every event that was not late.
      EXPECT_EQ(delivered, events.size() - metrics.stats.late_events);
      EXPECT_EQ(HandoffSamples(metrics.telemetry), expected_batches);
    }
    return metrics;
  };
  SessionResults one_results;
  const StreamSession::SessionMetrics one = run(1, &one_results);
  SessionResults wide_results;
  const StreamSession::SessionMetrics wide = run(20, &wide_results);
  EXPECT_EQ(wide.stats.num_shards, 20u);
  EXPECT_EQ(wide_results, one_results);
  ExpectCountersMatchOneShard(wide.telemetry, one.telemetry);
  if (kEnabled) {
    EXPECT_GT(wide.telemetry.counters.at("reorder.released_events"), 0u);
  }
}

}  // namespace
}  // namespace telemetry
}  // namespace fw
