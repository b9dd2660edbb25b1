// The untraced end-to-end run: a reference computation and an untimed
// verification pass, then a saturated closed-loop phase (throughput,
// setup), a paced open-loop phase (event->result latency), and timed
// recoveries of a killed durable session. Memory growth covers every timed
// pass.

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/clock.h"
#include "exec/engine.h"
#include "plan/plan.h"
#include "run.h"

namespace fw {
namespace perfbench {
namespace {

constexpr int kMinSaturatedPasses = 3;
constexpr int kMinRecoveryReps = 7;
constexpr int kMaxRecoveryReps = 201;

/// Expected results: the whole stream for Finish-ed workloads; for the
/// killed durable workload, the results up to the kill and (separately)
/// the results Finish emits after it.
struct Reference {
  bench::ResultFingerprint results;
  bench::ResultFingerprint finish_results;
};

void ComputeReference(const Inputs& in, Reference* ref, RunOutcome* out) {
  const WorkloadSpec& spec = *in.spec;
  ResultTap tap(/*full=*/true, nullptr, nullptr);
  if (spec.churn) {
    // A non-durable twin on the same churn schedule.
    WorkloadSpec twin = spec;
    twin.durable = false;
    SessionRun run(twin, "", &tap, &out->ops);
    run.Feed(in, {});
    ref->results = tap.full;
    tap.Reset();
    run.Finish();
    ref->finish_results = tap.full;
    if (!run.ok()) out->Fail("reference twin session failed");
  } else if (spec.shards > 1 || spec.max_delay > 0) {
    // One shard, strict order, on the sorted stream.
    StreamSession::Options options;
    options.num_keys = spec.keys;
    StreamSession session(options);
    for (const StreamQuery& query : InitialQueries()) {
      out->ops.Check(session.AddQuery(query, tap.Callback()).status());
    }
    out->ops.Check(session.PushBatch(in.Sorted()));
    out->ops.Check(session.Finish());
    ref->results = tap.full;
  } else {
    // Each dashboard's original (unshared) plan on the plain engine:
    // shared plans must be bitwise equal to it.
    TapSink sink(&tap);
    for (const StreamQuery& query : InitialQueries()) {
      const QueryPlan plan = QueryPlan::Original(query.windows, query.agg);
      PlanExecutor executor(plan, {.num_keys = spec.keys}, &sink);
      executor.Run(in.Sorted());
    }
    ref->results = tap.full;
  }
}

bench::ResultFingerprint Union(bench::ResultFingerprint a,
                               const bench::ResultFingerprint& b) {
  a.results += b.results;
  a.fingerprint ^= b.fingerprint;
  return a;
}

/// The untimed verification pass: one session lifecycle with the full
/// ResultFingerprint, gated against the reference. A durable workload is
/// killed, its directory captured for the timed recoveries, and recovered
/// once: the recovered session must resume at the kill point and deliver
/// exactly the twin's results. Returns the pass's light fold, which
/// every timed pass must reproduce.
LightFold VerifyPass(const Inputs& in, const Reference& ref,
                     ScratchDir* scratch, DirImage* image, RunOutcome* out) {
  const WorkloadSpec& spec = *in.spec;
  ResultTap tap(/*full=*/true, nullptr, nullptr);
  const std::string dir = spec.durable ? scratch->Child("verify") : "";
  SessionRun run(spec, dir, &tap, &out->ops);
  // The last snapshot a durable session writes covers this many events.
  const size_t snapshot_at = in.size() / kSnapshotInterval * kSnapshotInterval;
  run.Feed(in, {.limit = spec.durable ? snapshot_at : 0});
  const bench::ResultFingerprint before_snapshot = tap.full;
  if (spec.durable) run.Feed(in, {.begin = snapshot_at});
  if (!spec.durable) {
    run.Finish();
    if (!run.ok()) out->Fail("verification session failed");
    if (!tap.full.Matches(ref.results)) {
      out->Fail("session results differ from the reference");
    }
    return tap.light;
  }
  run.Kill();
  if (!run.ok()) out->Fail("verification session failed");
  if (!tap.full.Matches(ref.results)) {
    out->Fail("durable results before the kill differ from the twin's");
  }
  if (!CaptureDir(dir, image)) out->Fail("cannot capture " + dir);
  // Replay re-delivers what the session emitted after its last snapshot,
  // so the results up to the snapshot plus everything the recovered
  // session delivers (replay, then Finish) must equal the twin's whole
  // stream.
  ResultTap recovered_tap(/*full=*/true, nullptr, nullptr);
  Result<StreamSession::RecoveryInfo> recovered = StreamSession::Recover(
      dir, SessionOptions(spec, dir),
      [&recovered_tap](QueryId, const StreamQuery&) {
        return recovered_tap.Callback();
      });
  if (!out->ops.Check(recovered.status())) {
    out->Fail("Recover failed: " + recovered.status().ToString());
  } else {
    if (recovered->durable_events != in.size()) {
      out->Fail(Format("Recover resumed at event %llu, pushed %zu",
                       static_cast<unsigned long long>(
                           recovered->durable_events),
                       in.size()));
    }
    out->ops.Check(recovered->session->Finish());
    if (!Union(before_snapshot, recovered_tap.full)
             .Matches(Union(ref.results, ref.finish_results))) {
      out->Fail("recovered session's results differ from the twin's");
    }
  }
  RemoveTree(dir);
  return tap.light;
}

/// The saturated passes' time, composed segment by segment: a pass is
/// cut at every spec.segment events pushed (and at its end), and each
/// segment keeps its fastest time over the run's passes. The host's speed
/// drifts in stretches of a second to minutes; a pass of a second or
/// more rarely runs entirely in a fast stretch, but each segment (a few
/// to a hundred ms) usually does in some pass, and every pass does the
/// same work segment by segment, so the sum is the pass time the program
/// itself sets.
class FastestSegments {
 public:
  void Add(const FeedResult& feed, uint64_t end_ns, RunOutcome* out) {
    std::vector<uint64_t> bounds = {feed.start_ns};
    bounds.insert(bounds.end(), feed.segment_ends.begin(),
                  feed.segment_ends.end());
    bounds.push_back(end_ns);
    if (best_ns_.empty()) best_ns_.assign(bounds.size() - 1, UINT64_MAX);
    if (best_ns_.size() != bounds.size() - 1) {
      out->Fail("saturated passes differ in their segment count");
      return;
    }
    for (size_t j = 0; j < best_ns_.size(); ++j) {
      best_ns_[j] = std::min(best_ns_[j], bounds[j + 1] - bounds[j]);
    }
  }
  size_t count() const { return best_ns_.size(); }
  double TotalSeconds() const {
    uint64_t total = 0;
    for (uint64_t ns : best_ns_) total += ns;
    return static_cast<double>(total) * 1e-9;
  }

 private:
  std::vector<uint64_t> best_ns_;
};

/// Closes one pass the way its workload ends: a durable session is killed
/// right after its last Push returns (the timed interval ends there), the
/// others end when Finish returns.
uint64_t EndPass(const WorkloadSpec& spec, const FeedResult& feed,
                 SessionRun* run) {
  if (spec.durable) {
    run->Kill();
    return feed.last_push_ns;
  }
  run->Finish();
  return MonotonicNanos();
}

}  // namespace

bool PacedPass(const Inputs& in, ScratchDir* scratch,
               const LightFold& expected, LatencySampler* sampler,
               PacedStats* stats, RunOutcome* out) {
  const WorkloadSpec& spec = *in.spec;
  const size_t n = in.size();
  sampler->Clear();
  ResultTap tap(/*full=*/false, sampler, nullptr);
  const std::string dir = spec.durable ? scratch->Child("paced") : "";
  SessionRun run(spec, dir, &tap, &out->ops);
  const FeedResult feed = run.Feed(in, {.rate_eps = spec.rate_eps});
  EndPass(spec, feed, &run);
  if (spec.durable) RemoveTree(dir);
  if (!run.ok()) {
    out->Fail("paced session failed");
    return false;
  }
  if (!(tap.light == expected)) out->Fail("paced pass results differ");
  if (sampler->overflow() > 0) out->Fail("latency sample buffer overflowed");
  stats->gen_lag_max_ns = std::max(stats->gen_lag_max_ns, feed.gen_lag_max_ns);
  // A result's latency runs from the due time of the first event (in
  // arrival order) whose timestamp reaches end + max_delay — the event
  // that lets the window close — to its callback.
  for (size_t i = 0; i < sampler->size(); ++i) {
    const LatencySampler::Sample& sample = sampler->samples()[i];
    const TimeT closes = sample.end + spec.max_delay;
    const size_t trigger = static_cast<size_t>(
        std::lower_bound(in.prefix_max.begin(), in.prefix_max.end(), closes) -
        in.prefix_max.begin());
    if (trigger >= n) {
      ++stats->untriggered;
      continue;
    }
    const uint64_t due =
        feed.start_ns + DueOffsetNs(spec, trigger, n, spec.rate_eps);
    stats->latencies_us.push_back(
        (static_cast<double>(sample.at_ns) - static_cast<double>(due)) *
        1e-3);
  }
  return true;
}

Recovery::Recovery(const Inputs& in, ScratchDir* scratch,
                   const DirImage* image, RunOutcome* out)
    : spec_(*in.spec),
      dir_(scratch->Child("recover")),
      durable_events_(image != nullptr ? in.size()
                                       : kKillEvents) {
  if (image != nullptr) {
    image_ = *image;
    return;
  }
  // One shard: the replica stands in for the durability read path and
  // replay, and a multi-shard replay's thread hand-offs slowed far more
  // than the host-speed probe on a busy host (2x against 1.5x).
  spec_.shards = 1;
  ResultTap tap(/*full=*/false, nullptr, nullptr);
  SessionRun run(spec_, dir_, &tap, &out->ops, nullptr,
                 /*force_durable=*/true);
  run.Feed(in, {.limit = durable_events_});
  run.Kill();
  if (!run.ok() || !CaptureDir(dir_, &image_)) {
    out->Fail("durable replica failed");
    ok_ = false;
  }
}

Recovery::~Recovery() { RemoveTree(dir_); }

bool Recovery::Once(RecoveryStats* stats, RunOutcome* out) {
  if (!ok_) return false;
  if (!RestoreDir(dir_, image_)) {
    out->Fail("cannot restore " + dir_);
    return false;
  }
  ResultTap tap(/*full=*/false, nullptr, nullptr);
  const uint64_t start = MonotonicNanos();
  Result<StreamSession::RecoveryInfo> recovered = StreamSession::Recover(
      dir_, SessionOptions(spec_, dir_, /*force_durable=*/true),
      [&tap](QueryId, const StreamQuery&) { return tap.Callback(); });
  const double seconds = static_cast<double>(MonotonicNanos() - start) * 1e-9;
  if (!out->ops.Check(recovered.status())) {
    out->Fail("Recover failed: " + recovered.status().ToString());
    return false;
  }
  if (recovered->durable_events != durable_events_) {
    out->Fail("Recover resumed at the wrong event");
  }
  stats->seconds.push_back(seconds);
  stats->replayed_records = recovered->replayed_records;
  return true;
}

RunOutcome RunEndToEnd(const Inputs& in, const RunConfig& config) {
  RunOutcome out;
  const WorkloadSpec& spec = *in.spec;
  const size_t n = in.size();

  Reference ref;
  ComputeReference(in, &ref, &out);
  DirImage image;
  const LightFold expected =
      VerifyPass(in, ref, config.scratch, &image, &out);
  Recovery recovery(in, config.scratch, spec.durable ? &image : nullptr,
                    &out);

  // Paced-phase buffers are sized from the verified result count, then
  // allocated and touched before the memory baseline is taken, so they
  // never count as the system's growth.
  const int paced_passes = std::max(
      1, static_cast<int>(0.3 * config.seconds * spec.rate_eps /
                          static_cast<double>(n)));
  const size_t per_pass = 2 * (expected.results >> spec.sample_bits) + 4096;
  LatencySampler sampler(per_pass, spec.sample_bits);
  PacedStats paced;
  paced.latencies_us.assign(per_pass * static_cast<size_t>(paced_passes),
                            0.0);
  paced.latencies_us.clear();

  if (!ResetPeakResident()) out.Fail("cannot reset VmHWM");
  const uint64_t base_kib = ResidentKiB();

  // The timed units of the three phases interleave over the whole run —
  // the next unit always comes from the phase furthest behind its share
  // of the run — so every metric samples the host over the same span of
  // time, not over one stretch of it. A set-up repetition follows each
  // unit.
  struct Phase {
    double budget_s;
    int min_units;
    int max_units;
    double spent_s = 0.0;
    int units = 0;
    bool Done() const {
      return units >= max_units || (units >= min_units && spent_s >= budget_s);
    }
  };
  enum { kSaturated, kPaced, kRecovery, kPhases };
  Phase phases[kPhases] = {
      {0.6 * config.seconds, kMinSaturatedPasses,
       std::numeric_limits<int>::max()},
      {0.3 * config.seconds, paced_passes, paced_passes},
      {0.1 * config.seconds, kMinRecoveryReps, kMaxRecoveryReps},
  };
  std::vector<double> eps;
  FastestSegments segments;
  HostSpeed host(config.scratch->Child("host-speed"));
  std::vector<double> setup_s;
  RecoveryStats recovered;
  while (out.failures.empty()) {
    int next = -1;
    for (int p = 0; p < kPhases; ++p) {
      if (phases[p].Done()) continue;
      if (next < 0 || phases[p].spent_s / phases[p].budget_s <
                          phases[next].spent_s / phases[next].budget_s) {
        next = p;
      }
    }
    if (next < 0) break;
    const uint64_t start = MonotonicNanos();
    if (next != kPaced && !host.Probe()) {
      out.Fail("cannot write the host-speed probe's scratch file");
    }
    if (next == kSaturated) {
      // Closed loop: the next call goes in as soon as the last returned.
      ResultTap tap(/*full=*/false, nullptr, nullptr);
      const std::string dir =
          spec.durable ? config.scratch->Child("saturated") : "";
      SessionRun run(spec, dir, &tap, &out.ops);
      const FeedResult feed = run.Feed(in, {.time_segments = true});
      const uint64_t end_ns = EndPass(spec, feed, &run);
      if (spec.durable) RemoveTree(dir);
      if (!run.ok()) out.Fail("saturated session failed");
      if (!(tap.light == expected)) out.Fail("saturated pass results differ");
      eps.push_back(static_cast<double>(n) /
                    (static_cast<double>(end_ns - feed.start_ns) * 1e-9));
      segments.Add(feed, end_ns, &out);
    } else if (next == kPaced) {
      PacedPass(in, config.scratch, expected, &sampler, &paced, &out);
    } else {
      recovery.Once(&recovered, &out);
    }
    phases[next].spent_s +=
        static_cast<double>(MonotonicNanos() - start) * 1e-9;
    ++phases[next].units;
    // Set-up alone (session construction through the last initial
    // AddQuery), twice in a row: only the second is kept, so the caches the
    // unit evicted are warm again. Cold set-ups slowed 2.4x on a busy host
    // while the host-speed probe slowed 1.5x.
    for (int rep = 0; rep < 2; ++rep) {
      ResultTap tap(/*full=*/false, nullptr, nullptr);
      const std::string dir =
          spec.durable ? config.scratch->Child("setup") : "";
      {
        SessionRun run(spec, dir, &tap, &out.ops);
        if (rep == 1) setup_s.push_back(run.setup_seconds());
        if (!run.ok()) out.Fail("set-up failed");
      }
      if (spec.durable) RemoveTree(dir);
    }
  }

  const uint64_t peak_kib = PeakResidentKiB();
  const double rss_growth_mb =
      static_cast<double>(peak_kib > base_kib ? peak_kib - base_kib : 0) /
      1024.0;

  const std::vector<double>& latencies = paced.latencies_us;
  if (latencies.size() < 100) {
    out.Fail(Format("only %zu latency samples; p90 needs >= 100",
                    latencies.size()));
  }
  // Wall-clock figures at the reference host speed, scaled by how far the
  // host's own best in this run was from the reference host's: the best
  // cases of throughput and recovery, and the median set-up.
  const double best_eps = static_cast<double>(n) / segments.TotalSeconds();
  const double best_recovery_s = Percentile(recovered.seconds, 0.0);
  const double median_setup_s = Median(setup_s);
  out.metrics = {
      {"throughput_eps", best_eps * host.slowdown(), "ev/s"},
      {"latency_p50_us", Percentile(latencies, 0.5), "us"},
      {"latency_p90_us", Percentile(latencies, 0.9), "us"},
      {"setup_s", median_setup_s / host.slowdown(), "s"},
      {"recovery_s", best_recovery_s / host.slowdown(), "s"},
      {"rss_growth_mb", rss_growth_mb, "MB"},
  };
  out.Note(Format("saturated passes %zu, %zu segments each; whole-pass "
                  "ev/s median %.0f fastest %.0f",
                  eps.size(), segments.count(), Median(eps), Max(eps)));
  out.Note(Format("host speed probes %d, fastest %.0f ns (reference %.0f): "
                  "slowdown %.4f; unscaled throughput %.0f ev/s, recovery "
                  "%.6f s, setup %.6f s",
                  host.probes(), host.fastest_ns(), HostSpeed::kReferenceNs,
                  host.slowdown(), best_eps, best_recovery_s,
                  median_setup_s));
  std::string pass_eps = "saturated ev/s per pass:";
  for (double value : eps) pass_eps += Format(" %.0f", value);
  out.Note(pass_eps);
  out.Note(Format("paced passes %d at %.0f ev/s", phases[kPaced].units,
                  spec.rate_eps));
  out.Note(Format("setup samples %zu (s min %.6f max %.6f)", setup_s.size(),
                  Percentile(setup_s, 0.0), Max(setup_s)));
  out.Note(Format("latency samples %zu (%zu beyond p90), closed only by "
                  "Finish %llu",
                  latencies.size(), latencies.size() / 10,
                  static_cast<unsigned long long>(paced.untriggered)));
  out.Note(Format("load.latency_p99_us %.3f", Percentile(latencies, 0.99)));
  out.Note(Format("load.gen_lag_max_ms %.3f",
                  static_cast<double>(paced.gen_lag_max_ns) * 1e-6));
  out.Note(Format("recovery reps %zu (s fastest %.6f median %.6f), "
                  "replayed records %llu",
                  recovered.seconds.size(),
                  Percentile(recovered.seconds, 0.0),
                  Median(recovered.seconds),
                  static_cast<unsigned long long>(recovered.replayed_records)));
  out.Note(Format("results per pass %llu",
                  static_cast<unsigned long long>(expected.results)));
  return out;
}

}  // namespace perfbench
}  // namespace fw
