#ifndef FW_TELEMETRY_METRICS_H_
#define FW_TELEMETRY_METRICS_H_

/// Always-on runtime telemetry (DESIGN.md §13): a session-owned registry
/// of sharded metric cells — single-writer counters, gauges, and
/// fixed-bucket log2 latency histograms — plus a bounded trace-event ring
/// for structural events (replans, resizes, watermark stalls, late-event
/// bursts). Designed around three constraints:
///
///  * the hot path never takes a lock, never issues a locked
///    read-modify-write, and never shares a cache line across writers:
///    every metric is an array of cache-line-aligned cells, every cell has
///    exactly one writer thread, and a write is a relaxed load, an add (or
///    compare), and a relaxed store. Cells are summed only at snapshot
///    time. Builds without NDEBUG enforce the one-writer rule: each cell
///    remembers the first thread that wrote it, and a write from any other
///    thread fails an FW_CHECK instead of silently losing an update;
///  * measurement never perturbs results: telemetry reads the clock
///    (common/clock.h) and counts, but nothing observable — results,
///    watermarks, checkpoints — ever depends on a metric value, so the
///    bitwise-determinism invariant (fuzz + elasticity suites) holds with
///    telemetry on or off;
///  * `-DFW_TELEMETRY=OFF` compiles the layer out: every mutator becomes
///    an empty inline function, metric objects lose their storage, and
///    snapshots come back empty with `enabled = false` — call sites stay
///    unconditional.
///
/// Registry handles (Counter*, Gauge*, Histogram*) are resolved by name
/// once, at construction time (plan build / executor build), never per
/// event. Handles are stable for the registry's lifetime: the registry
/// owns the metric objects at fixed addresses, so a re-registered name
/// (a replan rebuilding an executor over the same session) returns the
/// same object — which is exactly what makes counters cumulative across
/// executor swaps and exact across Resize: the cells never move, so no
/// count is dropped or double-merged (tests/telemetry_test.cc pins
/// 1→4→2). A session writes every registry cell it uses from its own
/// thread; threads that produce samples of their own (the sharded
/// executor's workers) record into a private HistogramCell that the
/// session thread folds into the registry (Histogram::Fold).

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#ifndef NDEBUG
#include <thread>

#include "common/logging.h"
#endif
#include "common/mutex.h"

#if defined(FW_TELEMETRY_DISABLED)
#define FW_TELEMETRY_ENABLED 0
#else
#define FW_TELEMETRY_ENABLED 1
#endif

namespace fw {
namespace telemetry {

/// Compile-time switch mirror, for tests and for callers that want to
/// skip snapshot plumbing entirely when the layer is compiled out.
inline constexpr bool kEnabled = FW_TELEMETRY_ENABLED != 0;

/// Cells per metric. Cell indices wrap modulo kCells, so distinct
/// indices may alias one cell — harmless only while the aliases share the
/// cell's one writer thread (a session writes cell 0 of every metric).
inline constexpr uint32_t kCells = 16;
inline constexpr uint32_t kCellMask = kCells - 1;
static_assert((kCells & kCellMask) == 0, "kCells must be a power of two");

/// Histogram buckets: bucket 0 holds exact zeros; bucket b (1..64) holds
/// values in [2^(b-1), 2^b - 1]. Fixed log2 buckets keep Record() to a
/// bit_width plus one relaxed increment, and make bucket boundaries
/// identical across runs and hosts (no adaptive resizing to drift).
inline constexpr uint32_t kHistogramBuckets = 65;

/// Bucket index of a value (see above).
inline constexpr uint32_t BucketOf(uint64_t value) {
  return value == 0 ? 0u : static_cast<uint32_t>(std::bit_width(value));
}

/// Inclusive value range covered by a bucket.
inline constexpr uint64_t BucketLow(uint32_t bucket) {
  return bucket == 0 ? 0 : uint64_t{1} << (bucket - 1);
}
inline constexpr uint64_t BucketHigh(uint32_t bucket) {
  return bucket == 0 ? 0
         : bucket >= 64
             ? ~uint64_t{0}
             : (uint64_t{1} << bucket) - 1;
}

/// MonotonicNanos when telemetry is compiled in, 0 otherwise — the stamp
/// helper for hot-path call sites that only read the clock to feed a
/// histogram (so OFF builds skip the vDSO call too).
uint64_t NowNanosIfEnabled();

#if FW_TELEMETRY_ENABLED
namespace internal {

#ifndef NDEBUG
/// Debug-build single-writer check: the first thread to write a cell
/// becomes its owner, and a write from any other thread aborts — a
/// second writer would otherwise lose updates silently.
class WriterCheck {
 public:
  void Check() {
    const std::thread::id me = std::this_thread::get_id();
    std::thread::id owner = owner_.load(std::memory_order_relaxed);
    if (owner == me) return;
    if (owner == std::thread::id() &&
        owner_.compare_exchange_strong(owner, me, std::memory_order_relaxed)) {
      return;
    }
    FW_CHECK(owner == me)
        << "telemetry cell written by a second thread; every cell must "
           "have exactly one writer (DESIGN.md §13)";
  }

 private:
  std::atomic<std::thread::id> owner_{};
};
#else
/// Release builds carry no check.
class WriterCheck {
 public:
  void Check() {}
};
#endif

/// The single-writer update: a relaxed load and a relaxed store, so no
/// `lock` prefix. Only safe because the caller is the slot's one writer;
/// concurrent readers see either the old or the new value, never a tear.
inline void Bump(std::atomic<uint64_t>& slot, uint64_t delta) {
  slot.store(slot.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

struct alignas(64) Cell {
  std::atomic<uint64_t> value{0};
  [[no_unique_address]] WriterCheck writer;
};

}  // namespace internal
#endif

/// Monotonic event count, sharded. The caller picks the cell and must be
/// its only writer thread. Total() is a relaxed sum — exact once the
/// writers are quiesced, a live snapshot otherwise.
class Counter {
 public:
  void Add(uint32_t cell, uint64_t delta) {
#if FW_TELEMETRY_ENABLED
    internal::Cell& slot = cells_[cell & kCellMask];
    slot.writer.Check();
    internal::Bump(slot.value, delta);
#else
    (void)cell;
    (void)delta;
#endif
  }
  void Increment(uint32_t cell) { Add(cell, 1); }

  uint64_t Total() const {
#if FW_TELEMETRY_ENABLED
    uint64_t total = 0;
    for (const auto& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
#else
    return 0;
#endif
  }

 private:
#if FW_TELEMETRY_ENABLED
  std::array<internal::Cell, kCells> cells_{};
#endif
};

/// Instantaneous value (one writer at a time; last write wins). Values
/// are doubles stored as bit patterns, so Set/Value are lock-free.
class Gauge {
 public:
  void Set(double value) {
#if FW_TELEMETRY_ENABLED
    bits_.store(std::bit_cast<uint64_t>(value), std::memory_order_relaxed);
#else
    (void)value;
#endif
  }

  double Value() const {
#if FW_TELEMETRY_ENABLED
    return std::bit_cast<double>(bits_.load(std::memory_order_relaxed));
#else
    return 0.0;
#endif
  }

 private:
#if FW_TELEMETRY_ENABLED
  std::atomic<uint64_t> bits_{std::bit_cast<uint64_t>(0.0)};
#endif
};

/// Sharded high-water mark (e.g. per-shard ring backlog peaks). Each
/// cell has one writer, which raises it with a load, a compare, and a
/// store; Max() is the cross-cell maximum.
class MaxGauge {
 public:
  void UpdateMax(uint32_t cell, uint64_t value) {
#if FW_TELEMETRY_ENABLED
    internal::Cell& slot = cells_[cell & kCellMask];
    slot.writer.Check();
    if (value > slot.value.load(std::memory_order_relaxed)) {
      slot.value.store(value, std::memory_order_relaxed);
    }
#else
    (void)cell;
    (void)value;
#endif
  }

  uint64_t Max() const {
#if FW_TELEMETRY_ENABLED
    uint64_t max = 0;
    for (const auto& cell : cells_) {
      uint64_t v = cell.value.load(std::memory_order_relaxed);
      if (v > max) max = v;
    }
    return max;
#else
    return 0;
#endif
  }

  /// Per-cell view (shard-indexed high-water marks), sized kCells.
  std::vector<uint64_t> PerCell() const;

 private:
#if FW_TELEMETRY_ENABLED
  std::array<internal::Cell, kCells> cells_{};
#endif
};

/// Aggregated histogram state (one consistent read of a Histogram).
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  /// Rank-based percentile estimate (q in [0, 1]): finds the bucket
  /// containing the q-th ranked sample and interpolates linearly inside
  /// its [low, high] value range. Exact for bucket 0 (zeros); within a
  /// factor-of-two bound otherwise — the contract of log2 buckets.
  double Percentile(double q) const;
  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// One writer's row of log2 buckets plus a value sum. A Histogram is an
/// array of these; a thread that samples on its own (a sharded executor's
/// worker) owns a standalone one, which its session thread folds into
/// the registry with Histogram::Fold — reading it, never writing it.
/// Record is a bit_width plus two single-writer adds.
class HistogramCell {
 public:
  void Record(uint64_t value) {
#if FW_TELEMETRY_ENABLED
    writer_.Check();
    internal::Bump(buckets_[BucketOf(value)], 1);
    internal::Bump(sum_, value);
#else
    (void)value;
#endif
  }

  /// Adds a snapshot's samples to this row (the fold's write side).
  void Merge(const HistogramSnapshot& samples);

  /// Adds this row's samples into *snap.
  void AddTo(HistogramSnapshot* snap) const;

 private:
#if FW_TELEMETRY_ENABLED
  alignas(64) std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
  [[no_unique_address]] internal::WriterCheck writer_;
#endif
};

/// Fixed-bucket log2 latency histogram, sharded like Counter (one writer
/// thread per cell).
class Histogram {
 public:
  void Record(uint32_t cell, uint64_t value) {
#if FW_TELEMETRY_ENABLED
    cells_[cell & kCellMask].Record(value);
#else
    (void)cell;
    (void)value;
#endif
  }

  /// Adds to `cell` the samples `source` gained since `*folded`, then
  /// sets *folded to source's current state. Only reads `source`, so its
  /// writer keeps sole ownership; the caller writes `cell` and must have
  /// synchronized with source's writer for the fold to be exact.
  void Fold(uint32_t cell, const HistogramCell& source,
            HistogramSnapshot* folded);

  HistogramSnapshot Snapshot() const;

 private:
#if FW_TELEMETRY_ENABLED
  std::array<HistogramCell, kCells> cells_{};
#endif
};

/// Structural runtime events recorded in the trace ring. Values are
/// serialized into artifacts — append only, never renumber.
enum class TraceKind : uint8_t {
  kReplan = 0,         // a/b = operators migrated / cold
  kResize = 1,         // a/b = shard width before / after
  kCheckpoint = 2,     // a = operators snapshotted
  kIdleRetire = 3,     // last query removed; pipeline retired
  kWatermarkStall = 4, // a = events buffered while the watermark held
  kLateBurst = 5,      // a = consecutive late events in the burst
  kDriftReplan = 6,    // a = structural change (0 recost-only, 1 crossover)
  kCrossoverDone = 7,  // a = accumulate ops retired with the old pipeline
  kRecovery = 8,       // a/b = changelog records replayed / snapshots skipped
};

const char* TraceKindName(TraceKind kind);

/// One trace event. `at_ns` is MonotonicNanos (process-relative; compare
/// within one run only), `duration_ns` the span length for span-shaped
/// events (replan/resize/checkpoint), 0 for point events.
struct TraceEvent {
  uint64_t at_ns = 0;
  TraceKind kind = TraceKind::kReplan;
  uint64_t duration_ns = 0;
  int64_t a = 0;
  int64_t b = 0;
};

/// Everything a registry knows, aggregated at one point in time. Maps
/// are ordered by name so snapshot iteration — and therefore every
/// rendered artifact — is deterministic.
struct MetricsSnapshot {
  bool enabled = kEnabled;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;
  /// Oldest first; `trace_dropped` counts events evicted by the bounded
  /// ring before this snapshot.
  std::vector<TraceEvent> trace;
  uint64_t trace_dropped = 0;
};

/// The session-owned metric namespace. Registration and snapshotting
/// lock `mu_`; the returned metric objects are lock-free and live at
/// stable addresses until the registry dies (the executor handle
/// contract above). The registry's own methods are thread-safe, and by
/// design only registration, trace recording, and Snapshot ever touch
/// the lock — none of them on the per-event path. Writes to the metric
/// objects follow the one-writer-per-cell rule.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Resolve-or-create by name. Names are dotted lowercase
  /// ("executor.batch_handoff_ns"); the Prometheus renderer maps them to
  /// fw_executor_batch_handoff_ns. Re-resolving a name returns the same
  /// object (never resets it).
  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  MaxGauge* GetMaxGauge(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  /// Appends to the bounded trace ring (capacity kTraceCapacity; oldest
  /// events are dropped and counted). Stamps TraceEvent::at_ns.
  void RecordTrace(TraceKind kind, uint64_t duration_ns = 0, int64_t a = 0,
                   int64_t b = 0);

  MetricsSnapshot Snapshot() const;

  static constexpr size_t kTraceCapacity = 256;

 private:
#if FW_TELEMETRY_ENABLED
  mutable Mutex mu_;
  /// Ordered maps: snapshot (and export) order is the name order.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      FW_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      FW_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<MaxGauge>, std::less<>> max_gauges_
      FW_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      FW_GUARDED_BY(mu_);
  /// Bounded ring: write cursor wraps; size() = min(next_, capacity).
  std::vector<TraceEvent> trace_ FW_GUARDED_BY(mu_);
  uint64_t trace_next_ FW_GUARDED_BY(mu_) = 0;
#endif
};

}  // namespace telemetry
}  // namespace fw

#endif  // FW_TELEMETRY_METRICS_H_
