#ifndef FW_PERFBENCH_WORKLOADS_H_
#define FW_PERFBENCH_WORKLOADS_H_

// The three serving workloads, their seeded inputs, the shared query set,
// and the code that feeds a session, shared by the end-to-end run and the
// layer ladder. README.md explains why each workload was chosen.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "common.h"
#include "exec/columns.h"
#include "exec/event.h"
#include "exec/sink.h"
#include "query/query.h"
#include "session/session.h"

namespace fw {
namespace perfbench {

class Tracer;

/// Fixed load of one workload. The shapes and paced rates are part of the
/// benchmark's contract (BENCHMARK.json's `why` lines repeat them): every
/// later change measures identical load, so a rate the system can no
/// longer sustain shows up as latency growth, never as a lowered rate.
struct WorkloadSpec {
  const char* name;
  bool debs_like;       // DEBS-like stream, else the synthetic one.
  uint32_t keys;
  uint32_t shards;
  TimeT max_delay;      // Also the disorder bound applied to the stream.
  size_t batch;         // 0: scalar Push; else PushColumns batch size.
  double rate_eps;      // Paced (open-loop) phase rate.
  bool durable;         // Durability defaults in a fresh directory.
  bool churn;           // Replace one dashboard every 1/16 of the stream.
  size_t events;        // Stream length of a full-size run.
  uint32_t sample_bits; // Latency clock taken for 1 in 2^bits results.
  size_t segment;       // Saturated passes are timed per this many events.
};

const std::vector<WorkloadSpec>& AllWorkloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// Snapshot cadence of the durability defaults, and the fixed replay
/// depth of every recovery measurement: a session killed after
/// kKillEvents leaves one snapshot plus kReplayDepth changelog events.
inline constexpr size_t kSnapshotInterval = 65536;
inline constexpr size_t kReplayDepth = 61440;
inline constexpr size_t kKillEvents = kSnapshotInterval + kReplayDepth;
/// Stream length of --tiny runs (the benchmark's own tests): the shortest
/// stream that reaches the kill point.
inline constexpr size_t kTinyEvents = kKillEvents;

/// The query set every workload runs: three per-key MAX dashboards,
/// {T(200),T(300)}, {T(400),H(1200,400)} and {T(500),T(600)}. Every window
/// has a distinct range, so a result's (start, end) names its window.
inline constexpr int kDashboards = 3;
StreamQuery Dashboard(int index);
std::vector<StreamQuery> InitialQueries();

/// Replace dashboard `dashboard` (remove, then add it back under a new
/// id) before the event at `at_event` is pushed.
struct ChurnOp {
  size_t at_event = 0;
  int dashboard = 0;
};

/// Everything generated from --seed before any session exists.
struct Inputs {
  const WorkloadSpec* spec = nullptr;
  std::vector<Event> arrival;   // Push order.
  std::vector<Event> sorted;    // Timestamp order; empty if == arrival.
  std::vector<EventColumns> chunks;  // `arrival` split into batches.
  /// Largest arrival timestamp among events [0, i] — the first index
  /// whose prefix maximum reaches t is the event that lets time t close.
  std::vector<TimeT> prefix_max;
  std::vector<ChurnOp> churn;

  size_t size() const { return arrival.size(); }
  const std::vector<Event>& Sorted() const {
    return sorted.empty() ? arrival : sorted;
  }
};
Inputs MakeInputs(const WorkloadSpec& spec, size_t events, uint64_t seed);

/// Order-insensitive fold of a result multiset, cheap enough for timed
/// passes: one multiply-xorshift per result. It hashes (start, end, key,
/// value) but not operator_id, so it compares plans whose operator
/// numbering differs (shared vs original). The untimed verification pass
/// uses bench_util's ResultFingerprint, operator ids included.
struct LightFold {
  uint64_t results = 0;
  uint64_t hash = 0;

  void Fold(const WindowResult& r);
  bool operator==(const LightFold& other) const {
    return results == other.results && hash == other.hash;
  }
};

/// Clock stamps of a fixed subset of results (chosen by a hash of the
/// result's window and key, so the subset does not depend on timing).
/// The buffer is allocated and touched up front so sampling neither
/// allocates on the hot path nor shows in the memory metric.
class LatencySampler {
 public:
  struct Sample {
    uint64_t at_ns = 0;
    TimeT end = 0;
  };

  LatencySampler(size_t capacity, uint32_t sample_bits);

  void Maybe(const WindowResult& r);
  const std::vector<Sample>& samples() const { return samples_; }
  size_t size() const { return size_; }
  uint64_t overflow() const { return overflow_; }
  void Clear() { size_ = 0; }

 private:
  std::vector<Sample> samples_;
  size_t size_ = 0;
  uint64_t overflow_ = 0;
  uint32_t shift_;
};

/// The result callback target of one pass: every query of the pass
/// delivers here.
class ResultTap {
 public:
  /// `full`: also fold bench_util's ResultFingerprint (slow; untimed
  /// passes only). `sampler`: stamp latency samples (paced passes).
  /// `tracer`: record a span around 1 in 1,024 callbacks (ladder only).
  ResultTap(bool full, LatencySampler* sampler, Tracer* tracer);

  void OnResult(const WindowResult& r);
  StreamSession::ResultCallback Callback() {
    return [this](const WindowResult& r) { OnResult(r); };
  }
  void Reset();

  LightFold light;
  bench::ResultFingerprint full;

 private:
  bool full_enabled_;
  LatencySampler* sampler_;
  Tracer* tracer_;
  uint32_t callback_span_ = 0;
};

/// Delivers a plain engine's results into a ResultTap.
class TapSink : public ResultSink {
 public:
  explicit TapSink(ResultTap* tap) : tap_(tap) {}
  void OnResult(const WindowResult& r) override { tap_->OnResult(r); }

 private:
  ResultTap* tap_;
};

/// Session options of `spec`; `durable_dir` is used only by durable
/// workloads (`force_durable` makes a non-durable workload durable, for
/// its recovery replica).
StreamSession::Options SessionOptions(const WorkloadSpec& spec,
                                      const std::string& durable_dir,
                                      bool force_durable = false);

/// How one session is fed.
struct FeedOptions {
  /// 0: saturated closed loop. Else the open-loop rate: event i is due at
  /// t0 + i / rate (a batch at its last event's due time) and is sent when
  /// due, however late the generator runs.
  double rate_eps = 0.0;
  /// Push events [begin, limit) (limit 0: to the end); a saturated feed
  /// may resume where an earlier Feed of the same run stopped.
  size_t begin = 0;
  size_t limit = 0;
  /// Spans around every churn call and 1 in 64 scalar Push (1 in 8
  /// PushColumns) calls (ladder only).
  Tracer* tracer = nullptr;
  /// Saturated feeds only: record when each whole segment of
  /// spec.segment events has been pushed (FeedResult::segment_ends).
  bool time_segments = false;
};

struct FeedResult {
  uint64_t start_ns = 0;        // First call (and, paced, event 0's due time).
  uint64_t last_push_ns = 0;    // When the last ingest call returned.
  uint64_t gen_lag_max_ns = 0;  // Worst lateness of a send vs its due time.
  std::vector<uint64_t> segment_ends;  // With FeedOptions::time_segments.
};

/// One pass's session lifecycle. Construct + AddQuery of the initial
/// dashboards is setup; Feed pushes the stream through the workload's
/// ingest path, applying its churn schedule.
class SessionRun {
 public:
  SessionRun(const WorkloadSpec& spec, const std::string& durable_dir,
             ResultTap* tap, OpCount* ops, Tracer* tracer = nullptr,
             bool force_durable = false);

  bool ok() const { return ok_; }
  double setup_seconds() const { return setup_seconds_; }
  FeedResult Feed(const Inputs& inputs, const FeedOptions& options);
  /// Finish; false on error.
  bool Finish();
  /// Destroys the session without Finish — the crash of a durable run.
  void Kill() { session_.reset(); }
  /// Removes dashboard `dashboard` and adds it back under a new id.
  bool Replace(int dashboard, Tracer* tracer);

 private:

  const WorkloadSpec& spec_;
  ResultTap* tap_;
  OpCount* ops_;
  std::unique_ptr<StreamSession> session_;
  std::vector<QueryId> ids_;
  bool ok_ = true;
  double setup_seconds_ = 0.0;
};

/// Due time offset of event `index` of a paced feed.
uint64_t DueOffsetNs(const WorkloadSpec& spec, size_t index, size_t total,
                     double rate_eps);

}  // namespace perfbench
}  // namespace fw

#endif  // FW_PERFBENCH_WORKLOADS_H_
