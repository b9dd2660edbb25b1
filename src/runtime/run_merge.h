#ifndef FW_RUNTIME_RUN_MERGE_H_
#define FW_RUNTIME_RUN_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "exec/event.h"
#include "exec/sink.h"

namespace fw {

/// A shard's result buffer in the sharded runtime's merge stage
/// (DESIGN.md §8). Besides the results it records, as they arrive, where
/// each *run* starts: a maximal stretch of results that share
/// (end, start, operator) and whose keys strictly increase. Operators
/// emit a closing window instance key-ascending, so a run is one
/// instance's emission (or a piece of one, when a child operator's close
/// interleaves with its parent's forwards), and a drain can merge runs
/// instead of sorting results.
///
/// Not thread-safe: one thread writes it at a time (a shard's worker; the
/// session thread after a quiesce).
class RunBuffer : public ResultSink {
 public:
  void OnResult(const WindowResult& result) override {
    if (results_.empty() || StartsRun(results_.back(), result)) {
      run_starts_.push_back(results_.size());
    }
    results_.push_back(result);
  }

  const std::vector<WindowResult>& results() const { return results_; }
  /// Index of each run's first result, ascending; run i ends where run
  /// i + 1 starts (the last at results().size()).
  const std::vector<size_t>& run_starts() const { return run_starts_; }

  /// Drops every result and run; keeps the allocations for reuse.
  void Clear() {
    results_.clear();
    run_starts_.clear();
  }

 private:
  static bool StartsRun(const WindowResult& last, const WindowResult& next) {
    return next.end != last.end || next.start != last.start ||
           next.operator_id != last.operator_id || next.key <= last.key;
  }

  std::vector<WindowResult> results_;
  std::vector<size_t> run_starts_;
};

/// The drain of the sharded runtime: delivers the union of several
/// RunBuffers to a sink in (end, start, operator, key) order, then clears
/// the buffers. The order is exactly that of a sort over all results (on
/// a full-tuple tie, which sharded execution never produces, the earlier
/// buffer and position go first). Only the run descriptors are sorted;
/// runs with the same (end, start, operator) are merged by key, and
/// results go to the sink straight from the buffers, with no merged copy.
/// Keeps its descriptor scratch across calls. The sink must not write to
/// the buffers while a delivery runs.
class RunMerger {
 public:
  void DeliverAndClear(const std::vector<RunBuffer*>& buffers,
                       ResultSink* sink);

 private:
  struct Run {
    const WindowResult* first;  // Current position while merging.
    const WindowResult* last;   // One past the run's end.
    uint32_t rank;              // Tie order: buffer, then position.
  };

  /// Merges runs [begin, end), which share (end, start, operator) and
  /// arrive ordered by (first key, rank), into the sink by key.
  static void MergeGroup(Run* begin, Run* end, ResultSink* sink);

  std::vector<Run> runs_;
};

}  // namespace fw

#endif  // FW_RUNTIME_RUN_MERGE_H_
