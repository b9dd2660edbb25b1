// Runtime-adaptive optimization on a drifting workload (DESIGN.md §15):
// a dense -> sparse -> dense synthetic stream (event-time rate η swings
// 8 -> 0.05 -> 8) is ingested twice through the Example-7-style
// multi-window query set — once with a static plan, once with
// drift-triggered re-optimization, both at the same fixed width. The
// adaptive run evicts the factor window in the sparse trough (and
// reinstates it in the recovery) and must still deliver the
// bitwise-identical result multiset (ResultFingerprint; MAX regroups
// exactly). The run FAILS if no drift replan fires, so CI's bench smoke
// doubles as a liveness check on the feedback loop.
//
// Output is google-benchmark-compatible JSON ({"benchmarks": [...]}
// with items_per_second), so scripts/perf_smoke.py --check gates its
// shape in CI. Scale with --events/--keys or FW_EVENTS_1M; the first
// --shards value is the width of both runs.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "session/session.h"

namespace fw {
namespace {

// 40% dense (η = 8), 20% sparse trough (η = 0.05, below the factor
// window's break-even), 40% dense recovery. Values cycle through a
// small integer range so any aggregate stays exactly representable.
std::vector<Event> DriftingStream(size_t total, uint32_t keys) {
  std::vector<Event> events;
  events.reserve(total);
  const size_t dense = total * 2 / 5;
  const size_t trough = total / 5;
  TimeT now = 0;
  auto append = [&](size_t count, size_t per_unit, TimeT stride) {
    for (size_t i = 0; i < count; ++i) {
      Event e;
      e.timestamp = per_unit > 0 ? now + static_cast<TimeT>(i / per_unit)
                                 : now + static_cast<TimeT>(i) * stride;
      e.key = static_cast<uint32_t>(events.size() % keys);
      e.value = static_cast<double>(events.size() % 997);
      events.push_back(e);
    }
    now = events.empty() ? now : events.back().timestamp + 1;
  };
  append(dense, 8, 0);
  append(trough, 0, 20);
  append(total - dense - trough, 8, 0);
  return events;
}

struct RunStats {
  double events_per_sec = 0.0;
  bench::ResultFingerprint totals;
  StreamSession::SessionStats session;
  telemetry::MetricsSnapshot metrics;
};

int RunOne(bool adaptive, uint32_t shards, const std::vector<Event>& events,
           uint32_t keys, RunStats* out) {
  StreamSession::Options options;
  options.num_keys = keys;
  options.num_shards = shards;
  if (adaptive) {
    options.adaptive.enabled = true;
    options.adaptive.check_interval = 1024;
    options.adaptive.rate_alpha = 0.5;
    options.adaptive.reoptimize_ratio = 2.0;
    options.adaptive.min_events_between_replans = 4096;
  }
  StreamSession session(options);

  StreamSession::ResultCallback fold = [out](const WindowResult& r) {
    out->totals.Fold(r);
  };
  Result<QueryId> id = session.AddQuery(Query()
                                            .Max("v")
                                            .From("fleet")
                                            .PerKey("device")
                                            .Tumbling(20)
                                            .Tumbling(30)
                                            .Tumbling(40),
                                        fold);
  if (!id.ok()) {
    std::fprintf(stderr, "AddQuery: %s\n", id.status().ToString().c_str());
    return 1;
  }

  MonotonicTimer timer;
  for (const Event& event : events) {
    Status status = session.Push(event);
    if (!status.ok()) {
      std::fprintf(stderr, "Push: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  Status status = session.Finish();
  if (!status.ok()) {
    std::fprintf(stderr, "Finish: %s\n", status.ToString().c_str());
    return 1;
  }
  const double seconds = timer.ElapsedSeconds();
  out->events_per_sec =
      seconds > 0.0 ? static_cast<double>(events.size()) / seconds : 0.0;
  out->session = session.Stats();
  out->metrics = session.Metrics().telemetry;
  return 0;
}

int Run(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(
      argc, argv, EventCountFromEnv("FW_EVENTS_1M", 300'000));
  const uint32_t shards = args.shards.empty() ? 4 : args.shards.front();
  const std::vector<Event> events = DriftingStream(args.events, args.keys);

  RunStats fixed;
  if (int rc = RunOne(false, shards, events, args.keys, &fixed)) {
    return rc;
  }
  RunStats drifting;
  if (int rc = RunOne(true, shards, events, args.keys, &drifting)) {
    return rc;
  }

  // Exactness first: a throughput number from a run that dropped or
  // duplicated results is not a benchmark result.
  if (!drifting.totals.Matches(fixed.totals)) {
    std::fprintf(stderr,
                 "exactness violated: adaptive delivered %llu results "
                 "(fingerprint %016llx) vs static %llu (%016llx)\n",
                 static_cast<unsigned long long>(drifting.totals.results),
                 static_cast<unsigned long long>(drifting.totals.fingerprint),
                 static_cast<unsigned long long>(fixed.totals.results),
                 static_cast<unsigned long long>(fixed.totals.fingerprint));
    return 1;
  }
  // Liveness: the drifting workload must actually exercise the feedback
  // loop, or the "adaptive" row is measuring a static session.
  if (drifting.session.drift_replans < 1) {
    std::fprintf(stderr,
                 "no drift replan fired over %zu drifting events "
                 "(observed_eta %.3f, planned_eta %.3f)\n",
                 events.size(), drifting.session.observed_eta,
                 drifting.session.planned_eta);
    return 1;
  }

  std::printf(
      "{\"context\":{\"executable\":\"bench_adaptive\",\"events\":%zu,"
      "\"keys\":%u,\"shards\":%u},\"benchmarks\":["
      "{\"name\":\"BM_DriftingWorkload/static\",\"run_type\":\"iteration\","
      "\"iterations\":1,\"items_per_second\":%.1f,\"drift_replans\":0},"
      "{\"name\":\"BM_DriftingWorkload/adaptive\","
      "\"run_type\":\"iteration\",\"iterations\":1,"
      "\"items_per_second\":%.1f,\"drift_replans\":%d,"
      "\"observed_eta\":%.4f,\"planned_eta\":%.4f}]}\n",
      events.size(), args.keys, shards, fixed.events_per_sec,
      drifting.events_per_sec, drifting.session.drift_replans,
      drifting.session.observed_eta, drifting.session.planned_eta);
  // The adaptive run's telemetry (drift counter, replan spans, observed
  // η̂ gauge) is the artifact worth keeping; the static run is a checksum.
  bench::WriteMetricsJson(args.metrics_json, drifting.metrics);
  return 0;
}

}  // namespace
}  // namespace fw

int main(int argc, char** argv) { return fw::Run(argc, argv); }
