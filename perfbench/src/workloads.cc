#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "agg/aggregate.h"
#include "common/clock.h"
#include "common/rng.h"
#include "trace.h"
#include "workload/datagen.h"

namespace fw {
namespace perfbench {

const std::vector<WorkloadSpec>& AllWorkloads() {
  // Each rate is 20-45% of the workload's saturated throughput on a busy
  // 4-core VM (about 15M, 0.6M and 0.55M ev/s), so the paced phase
  // measures latency at a load the system sustains even while the host
  // runs slow, as it often does. sharded_fleet's latency is mostly the
  // wait for the next drain barrier (every 65,536 events); at 125k ev/s
  // that wait outweighs the drain's own work, which is the part that
  // moves with the host's speed (at 250k ev/s, p50 rose 25% on a busy
  // host).
  // A timing segment is a whole number of 512-event batches, and on
  // sharded_fleet one drain interval (65,536 events), so each of its
  // segments starts with empty rings.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"paper_dashboard", true, 16, 1, 0, 0, 6'000'000.0, false, false,
       2'000'000, 6, 65536},
      {"sharded_fleet", false, 4096, 2, 256, 512, 125'000.0, false, false,
       4 * kSnapshotInterval, 10, 65536},
      {"durable_churn", true, 1024, 1, 0, 0, 150'000.0, true, true,
       4 * kSnapshotInterval + kReplayDepth, 10, 16384},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : AllWorkloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

StreamQuery Dashboard(int index) {
  static const Window kWindows[kDashboards][2] = {
      {Window(200, 200), Window(300, 300)},
      {Window(400, 400), Window(1200, 400)},
      {Window(500, 500), Window(600, 600)},
  };
  StreamQuery query;
  query.source = "meters";
  query.agg = Agg("MAX");
  query.value_column = "power";
  query.per_key = true;
  query.key_column = "meter";
  for (const Window& window : kWindows[index]) {
    (void)query.windows.Add(window);
  }
  return query;
}

std::vector<StreamQuery> InitialQueries() {
  std::vector<StreamQuery> queries;
  for (int i = 0; i < kDashboards; ++i) queries.push_back(Dashboard(i));
  return queries;
}

Inputs MakeInputs(const WorkloadSpec& spec, size_t events, uint64_t seed) {
  Inputs in;
  in.spec = &spec;
  std::vector<Event> ordered =
      spec.debs_like ? GenerateDebsLikeStream(events, spec.keys, seed)
                     : GenerateSyntheticStream(events, spec.keys, seed);
  if (spec.max_delay > 0) {
    in.sorted = ordered;
    in.arrival = ApplyBoundedDisorder(std::move(ordered),
                                      static_cast<size_t>(spec.max_delay),
                                      seed ^ 0xD150D3E5ull);
  } else {
    in.arrival = std::move(ordered);
  }
  if (spec.batch > 0) in.chunks = SplitIntoColumns(in.arrival, spec.batch);
  in.prefix_max.resize(in.arrival.size());
  TimeT max_seen = std::numeric_limits<TimeT>::min();
  for (size_t i = 0; i < in.arrival.size(); ++i) {
    max_seen = std::max(max_seen, in.arrival[i].timestamp);
    in.prefix_max[i] = max_seen;
  }
  if (spec.churn) {
    // 15 replacements, one per 1/16 of the stream, each shifted by a
    // seeded jitter of up to 1/128 of the stream either way. Every
    // dashboard is replaced five times, in a seeded order, so the result
    // mix (and with it the latency quantiles) does not hinge on the seed.
    Rng rng(seed ^ 0xC4A5E5ull);
    std::vector<int> order;
    for (int k = 0; k < 15; ++k) order.push_back(k % kDashboards);
    std::shuffle(order.begin(), order.end(), rng.engine());
    const size_t step = events / 16;
    const size_t jitter = step / 4;
    for (size_t k = 1; k < 16; ++k) {
      const size_t at = k * step - jitter / 2 + rng.Uniform(0, jitter);
      in.churn.push_back({at, order[k - 1]});
    }
  }
  return in;
}

void LightFold::Fold(const WindowResult& r) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(r.value));
  std::memcpy(&bits, &r.value, sizeof(bits));
  uint64_t h = static_cast<uint64_t>(r.start) * 0x9E3779B97F4A7C15ull;
  h ^= static_cast<uint64_t>(r.end) * 0xC2B2AE3D27D4EB4Full;
  h ^= (static_cast<uint64_t>(r.key) + 1) * 0x165667B19E3779F9ull;
  h ^= bits;
  h ^= h >> 31;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 29;
  hash += h;
  ++results;
}

LatencySampler::LatencySampler(size_t capacity, uint32_t sample_bits)
    : samples_(capacity), shift_(64 - sample_bits) {}

void LatencySampler::Maybe(const WindowResult& r) {
  uint64_t h = static_cast<uint64_t>(r.end) * 0x9E3779B97F4A7C15ull;
  h ^= (static_cast<uint64_t>(r.key) + 1) * 0xC2B2AE3D27D4EB4Full;
  h ^= h >> 32;
  h *= 0xD6E8FEB86659FD93ull;
  if ((h >> shift_) != 0) return;
  if (size_ == samples_.size()) {
    ++overflow_;
    return;
  }
  samples_[size_++] = {MonotonicNanos(), r.end};
}

ResultTap::ResultTap(bool full, LatencySampler* sampler, Tracer* tracer)
    : full_enabled_(full), sampler_(sampler), tracer_(tracer) {
  if (tracer_ != nullptr) callback_span_ = tracer_->Name("bench.callback");
}

void ResultTap::OnResult(const WindowResult& r) {
  ScopedSpan span((light.results & 1023) == 0 ? tracer_ : nullptr,
                  callback_span_);
  light.Fold(r);
  if (full_enabled_) full.Fold(r);
  if (sampler_ != nullptr) sampler_->Maybe(r);
}

void ResultTap::Reset() {
  light = LightFold();
  full = bench::ResultFingerprint();
}

StreamSession::Options SessionOptions(const WorkloadSpec& spec,
                                      const std::string& durable_dir,
                                      bool force_durable) {
  StreamSession::Options options;
  options.num_keys = spec.keys;
  options.num_shards = spec.shards;
  options.max_delay = spec.max_delay;
  if (spec.durable || force_durable) {
    options.durability.enabled = true;
    options.durability.dir = durable_dir;
  }
  return options;
}

uint64_t DueOffsetNs(const WorkloadSpec& spec, size_t index, size_t total,
                     double rate_eps) {
  if (spec.batch > 0) {
    index = std::min(total - 1, index - index % spec.batch + spec.batch - 1);
  }
  return static_cast<uint64_t>(static_cast<double>(index) * 1e9 / rate_eps);
}

SessionRun::SessionRun(const WorkloadSpec& spec,
                       const std::string& durable_dir, ResultTap* tap,
                       OpCount* ops, Tracer* tracer, bool force_durable)
    : spec_(spec), tap_(tap), ops_(ops) {
  const std::vector<StreamQuery> queries = InitialQueries();
  const StreamSession::Options options =
      SessionOptions(spec, durable_dir, force_durable);
  const uint32_t add_name =
      tracer != nullptr ? tracer->Name("session.AddQuery") : 0;
  const uint64_t start = MonotonicNanos();
  session_ = std::make_unique<StreamSession>(options);
  for (const StreamQuery& query : queries) {
    ScopedSpan span(tracer, add_name);
    Result<QueryId> id = session_->AddQuery(query, tap_->Callback());
    if (!ops_->Check(id.status())) {
      ok_ = false;
      break;
    }
    ids_.push_back(*id);
  }
  setup_seconds_ = static_cast<double>(MonotonicNanos() - start) * 1e-9;
}

bool SessionRun::Replace(int dashboard, Tracer* tracer) {
  const StreamQuery query = Dashboard(dashboard);
  {
    ScopedSpan span(tracer,
                    tracer != nullptr ? tracer->Name("session.RemoveQuery")
                                      : 0);
    if (!ops_->Check(session_->RemoveQuery(ids_[dashboard]))) return false;
  }
  ScopedSpan span(tracer,
                  tracer != nullptr ? tracer->Name("session.AddQuery") : 0);
  Result<QueryId> id = session_->AddQuery(query, tap_->Callback());
  if (!ops_->Check(id.status())) return false;
  ids_[dashboard] = *id;
  return true;
}

FeedResult SessionRun::Feed(const Inputs& in, const FeedOptions& options) {
  FeedResult out;
  const size_t n =
      options.limit > 0 ? std::min(options.limit, in.size()) : in.size();
  const bool paced = options.rate_eps > 0.0;
  const double rate = options.rate_eps;
  Tracer* tracer = options.tracer;
  const uint32_t push_name =
      tracer == nullptr ? 0
      : spec_.batch > 0 ? tracer->Name("session.PushColumns")
                        : tracer->Name("session.Push");
  const size_t span_every = spec_.batch > 0 ? 8 : 64;
  size_t churn_index = 0;
  while (churn_index < in.churn.size() &&
         in.churn[churn_index].at_event < options.begin) {
    ++churn_index;
  }
  auto next_churn = [&]() {
    return churn_index < in.churn.size() ? in.churn[churn_index].at_event
                                         : std::numeric_limits<size_t>::max();
  };
  StreamSession& session = *session_;
  out.start_ns = MonotonicNanos();

  if (spec_.batch == 0) {
    size_t i = options.begin;
    while (i < n && ok_) {
      size_t limit = n;
      if (paced) {
        // Open loop: send everything due by now, then look at the clock
        // again; spin while ahead of the schedule.
        const uint64_t now = MonotonicNanos();
        const uint64_t due = out.start_ns + DueOffsetNs(spec_, i, n, rate);
        if (now < due) continue;
        out.gen_lag_max_ns = std::max(out.gen_lag_max_ns, now - due);
        const double elapsed = static_cast<double>(now - out.start_ns);
        limit = std::min(n, static_cast<size_t>(elapsed * rate * 1e-9) + 1);
        limit = std::max(limit, i + 1);
      }
      if (next_churn() <= i) {
        ok_ = Replace(in.churn[churn_index++].dashboard, tracer);
        continue;
      }
      limit = std::min(limit, next_churn());
      if (options.time_segments) {
        limit = std::min(limit, (i / spec_.segment + 1) * spec_.segment);
      }
      for (; i < limit; ++i) {
        ScopedSpan span(i % span_every == 0 ? tracer : nullptr, push_name);
        if (!ops_->Check(session.Push(in.arrival[i]))) {
          ok_ = false;
          break;
        }
      }
      if (options.time_segments && i % spec_.segment == 0) {
        out.segment_ends.push_back(MonotonicNanos());
      }
    }
  } else {
    for (size_t b = options.begin / spec_.batch; b * spec_.batch < n && ok_;
         ++b) {
      const size_t first = b * spec_.batch;
      if (paced) {
        const uint64_t due = out.start_ns + DueOffsetNs(spec_, first, n, rate);
        uint64_t now = MonotonicNanos();
        while (now < due) now = MonotonicNanos();
        out.gen_lag_max_ns = std::max(out.gen_lag_max_ns, now - due);
      }
      while (ok_ && next_churn() <= first) {
        ok_ = Replace(in.churn[churn_index++].dashboard, tracer);
      }
      if (!ok_) break;
      ScopedSpan span(b % span_every == 0 ? tracer : nullptr, push_name);
      if (!ops_->Check(session.PushColumns(in.chunks[b]))) ok_ = false;
      if (options.time_segments &&
          (first + spec_.batch) % spec_.segment == 0) {
        out.segment_ends.push_back(MonotonicNanos());
      }
    }
  }
  out.last_push_ns = MonotonicNanos();
  return out;
}

bool SessionRun::Finish() {
  if (!ops_->Check(session_->Finish())) ok_ = false;
  return ok_;
}

}  // namespace perfbench
}  // namespace fw
