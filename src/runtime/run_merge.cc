#include "runtime/run_merge.h"

#include <algorithm>
#include <tuple>
#include <utility>

namespace fw {

namespace {

bool SameInstance(const WindowResult& a, const WindowResult& b) {
  return a.end == b.end && a.start == b.start &&
         a.operator_id == b.operator_id;
}

}  // namespace

void RunMerger::DeliverAndClear(const std::vector<RunBuffer*>& buffers,
                                ResultSink* sink) {
  runs_.clear();
  uint32_t rank = 0;
  for (const RunBuffer* buffer : buffers) {
    const WindowResult* results = buffer->results().data();
    const std::vector<size_t>& starts = buffer->run_starts();
    for (size_t i = 0; i < starts.size(); ++i) {
      const size_t stop =
          i + 1 < starts.size() ? starts[i + 1] : buffer->results().size();
      runs_.push_back(Run{results + starts[i], results + stop, rank++});
    }
  }
  std::sort(runs_.begin(), runs_.end(), [](const Run& a, const Run& b) {
    return std::tie(a.first->end, a.first->start, a.first->operator_id,
                    a.first->key, a.rank) <
           std::tie(b.first->end, b.first->start, b.first->operator_id,
                    b.first->key, b.rank);
  });
  // Runs of one (end, start, operator) are now adjacent; a group of one
  // run — every instance whose keys all live on one shard — is already in
  // key order.
  Run* const all_end = runs_.data() + runs_.size();
  for (Run* group = runs_.data(); group != all_end;) {
    Run* group_end = group + 1;
    while (group_end != all_end &&
           SameInstance(*group_end->first, *group->first)) {
      ++group_end;
    }
    MergeGroup(group, group_end, sink);
    group = group_end;
  }
  for (RunBuffer* buffer : buffers) buffer->Clear();
}

void RunMerger::MergeGroup(Run* begin, Run* end, ResultSink* sink) {
  // Invariant: [begin, end) holds the unfinished runs ordered by (current
  // key, rank), so `begin` holds the next result. Every run is strictly
  // key-ascending, so emitting from the head until it passes the second
  // run's current key and then re-seating it keeps the invariant.
  const auto before = [](const Run& a, const Run& b) {
    return a.first->key < b.first->key ||
           (a.first->key == b.first->key && a.rank < b.rank);
  };
  while (end - begin > 1) {
    Run& head = *begin;
    do {
      sink->OnResult(*head.first);
      ++head.first;
    } while (head.first != head.last && before(head, begin[1]));
    if (head.first == head.last) {
      ++begin;
      continue;
    }
    for (Run* r = begin; r + 1 != end && before(r[1], r[0]); ++r) {
      std::swap(r[0], r[1]);
    }
  }
  for (const WindowResult* r = begin->first; r != begin->last; ++r) {
    sink->OnResult(*r);
  }
}

}  // namespace fw
