#include "telemetry/metrics.h"

#include "common/clock.h"

namespace fw {
namespace telemetry {

uint64_t NowNanosIfEnabled() {
#if FW_TELEMETRY_ENABLED
  return MonotonicNanos();
#else
  return 0;
#endif
}

std::vector<uint64_t> MaxGauge::PerCell() const {
  std::vector<uint64_t> out(kCells, 0);
#if FW_TELEMETRY_ENABLED
  for (uint32_t i = 0; i < kCells; ++i) {
    out[i] = cells_[i].value.load(std::memory_order_relaxed);
  }
#endif
  return out;
}

double HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based: ceil(q * count), at least 1.
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count));
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  uint64_t seen = 0;
  for (uint32_t b = 0; b < kHistogramBuckets; ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] < rank) {
      seen += buckets[b];
      continue;
    }
    // The target rank lands in bucket b. Interpolate linearly between
    // the bucket's bounds by the rank's position within the bucket —
    // exact for bucket 0 (all zeros), a within-bucket estimate
    // otherwise.
    double low = static_cast<double>(BucketLow(b));
    double high = static_cast<double>(BucketHigh(b));
    double into = static_cast<double>(rank - seen) /
                  static_cast<double>(buckets[b]);
    return low + (high - low) * into;
  }
  return static_cast<double>(BucketHigh(kHistogramBuckets - 1));
}

void HistogramCell::Merge(const HistogramSnapshot& samples) {
#if FW_TELEMETRY_ENABLED
  writer_.Check();
  for (uint32_t b = 0; b < kHistogramBuckets; ++b) {
    if (samples.buckets[b] != 0) {
      internal::Bump(buckets_[b], samples.buckets[b]);
    }
  }
  internal::Bump(sum_, samples.sum);
#else
  (void)samples;
#endif
}

void HistogramCell::AddTo(HistogramSnapshot* snap) const {
#if FW_TELEMETRY_ENABLED
  for (uint32_t b = 0; b < kHistogramBuckets; ++b) {
    uint64_t n = buckets_[b].load(std::memory_order_relaxed);
    snap->buckets[b] += n;
    snap->count += n;
  }
  snap->sum += sum_.load(std::memory_order_relaxed);
#else
  (void)snap;
#endif
}

void Histogram::Fold(uint32_t cell, const HistogramCell& source,
                     HistogramSnapshot* folded) {
#if FW_TELEMETRY_ENABLED
  HistogramSnapshot now;
  source.AddTo(&now);
  HistogramSnapshot delta;
  delta.count = now.count - folded->count;
  delta.sum = now.sum - folded->sum;
  for (uint32_t b = 0; b < kHistogramBuckets; ++b) {
    delta.buckets[b] = now.buckets[b] - folded->buckets[b];
  }
  if (delta.count != 0) cells_[cell & kCellMask].Merge(delta);
  *folded = now;
#else
  (void)cell;
  (void)source;
  (void)folded;
#endif
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
#if FW_TELEMETRY_ENABLED
  for (const HistogramCell& cell : cells_) cell.AddTo(&snap);
#endif
  return snap;
}

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kReplan:
      return "replan";
    case TraceKind::kResize:
      return "resize";
    case TraceKind::kCheckpoint:
      return "checkpoint";
    case TraceKind::kIdleRetire:
      return "idle_retire";
    case TraceKind::kWatermarkStall:
      return "watermark_stall";
    case TraceKind::kLateBurst:
      return "late_burst";
    case TraceKind::kDriftReplan:
      return "drift_replan";
    case TraceKind::kCrossoverDone:
      return "crossover_done";
    case TraceKind::kRecovery:
      return "recovery";
  }
  return "unknown";
}

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

#if FW_TELEMETRY_ENABLED

namespace {
// Resolve-or-create in an ordered map of owned metrics. unique_ptr keeps
// the metric's address stable across rehashing-free map growth — the
// handle contract in the header.
template <typename Map>
typename Map::mapped_type::element_type* GetOrCreate(Map& map,
                                                     std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name),
                     std::make_unique<typename Map::mapped_type::element_type>())
             .first;
  }
  return it->second.get();
}
}  // namespace

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  MutexLock lock(&mu_);
  return GetOrCreate(counters_, name);
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  MutexLock lock(&mu_);
  return GetOrCreate(gauges_, name);
}

MaxGauge* MetricsRegistry::GetMaxGauge(std::string_view name) {
  MutexLock lock(&mu_);
  return GetOrCreate(max_gauges_, name);
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name) {
  MutexLock lock(&mu_);
  return GetOrCreate(histograms_, name);
}

void MetricsRegistry::RecordTrace(TraceKind kind, uint64_t duration_ns,
                                  int64_t a, int64_t b) {
  TraceEvent event;
  event.at_ns = MonotonicNanos();
  event.kind = kind;
  event.duration_ns = duration_ns;
  event.a = a;
  event.b = b;
  MutexLock lock(&mu_);
  if (trace_.size() < kTraceCapacity) {
    trace_.push_back(event);
  } else {
    trace_[trace_next_ % kTraceCapacity] = event;
  }
  ++trace_next_;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(&mu_);
  for (const auto& [name, counter] : counters_) {
    snap.counters[name] = counter->Total();
  }
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges[name] = gauge->Value();
  }
  for (const auto& [name, gauge] : max_gauges_) {
    // Max gauges render as plain gauges at snapshot time: the sharded
    // cells are an implementation detail of lock-free raising.
    snap.gauges[name] = static_cast<double>(gauge->Max());
  }
  for (const auto& [name, histogram] : histograms_) {
    snap.histograms[name] = histogram->Snapshot();
  }
  if (trace_next_ <= kTraceCapacity) {
    snap.trace = trace_;
  } else {
    // Ring has wrapped: oldest event sits at the write cursor.
    snap.trace.reserve(kTraceCapacity);
    uint64_t start = trace_next_ % kTraceCapacity;
    for (size_t i = 0; i < kTraceCapacity; ++i) {
      snap.trace.push_back(trace_[(start + i) % kTraceCapacity]);
    }
    snap.trace_dropped = trace_next_ - kTraceCapacity;
  }
  return snap;
}

#else  // !FW_TELEMETRY_ENABLED

// Compiled-out registry: getters hand back shared storageless dummies
// (every mutator on them is an empty inline), traces vanish, snapshots
// come back empty with enabled=false.
namespace {
Counter g_dummy_counter;
Gauge g_dummy_gauge;
MaxGauge g_dummy_max_gauge;
Histogram g_dummy_histogram;
}  // namespace

Counter* MetricsRegistry::GetCounter(std::string_view) {
  return &g_dummy_counter;
}
Gauge* MetricsRegistry::GetGauge(std::string_view) { return &g_dummy_gauge; }
MaxGauge* MetricsRegistry::GetMaxGauge(std::string_view) {
  return &g_dummy_max_gauge;
}
Histogram* MetricsRegistry::GetHistogram(std::string_view) {
  return &g_dummy_histogram;
}
void MetricsRegistry::RecordTrace(TraceKind, uint64_t, int64_t, int64_t) {}
MetricsSnapshot MetricsRegistry::Snapshot() const { return MetricsSnapshot{}; }

#endif  // FW_TELEMETRY_ENABLED

}  // namespace telemetry
}  // namespace fw
