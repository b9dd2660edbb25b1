#ifndef FW_PERFBENCH_TRACE_H_
#define FW_PERFBENCH_TRACE_H_

// Spans recorded by the benchmark's own code around each call into a
// library layer. Spans are kept in memory and written out once the run
// ends; a span's self time is its duration minus the time its child spans
// cover (children of one parent run one after another on the producer
// thread, so their durations simply add up).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"

namespace fw {
namespace perfbench {

class Tracer {
 public:
  struct Span {
    uint32_t run = 0;
    uint32_t name = 0;
    int64_t parent = -1;  // Index into spans(), -1 at the top.
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };
  struct Totals {
    uint64_t count = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };

  Tracer() { spans_.reserve(1 << 16); }

  /// Interns a span name; ids are stable for the Tracer's lifetime.
  uint32_t Name(std::string_view name);
  /// Spans begun from now on carry run id `run` (one id per ladder rung).
  void SetRun(uint32_t run) { run_ = run; }

  void Begin(uint32_t name) {
    open_.push_back(static_cast<int64_t>(spans_.size()));
    spans_.push_back({run_, name, open_.size() > 1 ? open_[open_.size() - 2]
                                                   : -1,
                      MonotonicNanos(), 0});
  }
  void End() {
    spans_[static_cast<size_t>(open_.back())].end_ns = MonotonicNanos();
    open_.pop_back();
  }

  /// Adds a finished span (timed by the caller) under the open span.
  void Record(uint32_t name, uint64_t start_ns, uint64_t end_ns) {
    spans_.push_back({run_, name, open_.empty() ? -1 : open_.back(),
                      start_ns, end_ns});
  }

  /// Durations in ns of every span named `name` (of run `run`, unless
  /// negative), in record order.
  std::vector<double> Durations(std::string_view name,
                                int64_t run = -1) const;
  /// Count, total and self time per span name.
  std::map<std::string, Totals> Summarize() const;
  /// One JSON object per span per line, then one per name with its totals.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
  uint32_t run_ = 0;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, uint32_t name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench
}  // namespace fw

#endif  // FW_PERFBENCH_TRACE_H_
