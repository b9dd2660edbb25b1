#ifndef FW_WINDOW_WINDOW_H_
#define FW_WINDOW_WINDOW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace fw {

/// Integer event-time used throughout the library. Windows and events share
/// one abstract time unit (the paper uses minutes/seconds interchangeably).
using TimeT = int64_t;

/// The admissible event-time domain: event timestamps lie in
/// [0, kTimestampLimit) and window ranges are at most kMaxWindowRange.
/// Every instance bound the engine derives from a timestamp (up to
/// t + 2r) then stays below INT64_MAX, so no event-time sum can
/// overflow. StreamSession rejects events outside the domain, and
/// Window::Make and StreamSession::AddQuery refuse longer ranges.
inline constexpr TimeT kTimestampLimit = TimeT{1} << 62;
inline constexpr TimeT kMaxWindowRange = TimeT{1} << 60;

/// Interval [start, end) in the interval representation of a window
/// (paper §II-A.1). Left-closed, right-open.
struct Interval {
  TimeT start = 0;
  TimeT end = 0;

  TimeT length() const { return end - start; }

  bool operator==(const Interval& other) const = default;
};

/// A time-based window W⟨r, s⟩ with range (duration) `r` and slide `s`
/// (gap between consecutive firings), 0 < s <= r. Tumbling when s == r,
/// hopping when s < r (paper §II-A).
///
/// The interval representation is W = { [m*s, m*s + r) : m >= 0 }.
class Window {
 public:
  /// Constructs W⟨r, s⟩. Fatal if the parameters are invalid; use Make()
  /// for validated construction.
  Window(TimeT range, TimeT slide);

  /// Validated construction: requires 0 < slide <= range <=
  /// kMaxWindowRange.
  static Result<Window> Make(TimeT range, TimeT slide);

  /// Convenience for tumbling windows W⟨r, r⟩.
  static Window Tumbling(TimeT range) { return Window(range, range); }

  TimeT range() const { return range_; }
  TimeT slide() const { return slide_; }

  bool IsTumbling() const { return slide_ == range_; }
  bool IsHopping() const { return slide_ < range_; }

  /// r/s, the number of concurrently open instances in steady state. The
  /// paper assumes r is a multiple of s (§III-B.1); callers that need the
  /// integer form should verify HasIntegralRecurrence() first.
  double RangeSlideRatio() const {
    return static_cast<double>(range_) / static_cast<double>(slide_);
  }

  /// True when r is a multiple of s (the paper's standing assumption for
  /// integer recurrence counts).
  bool HasIntegralRecurrence() const { return range_ % slide_ == 0; }

  /// The m-th interval [m*s, m*s + r) of the interval representation.
  Interval IntervalAt(int64_t m) const {
    return Interval{m * slide_, m * slide_ + range_};
  }

  /// First `count` intervals of the interval representation.
  std::vector<Interval> FirstIntervals(int64_t count) const;

  /// All window instances [a, b) whose interval contains time `t`
  /// (a <= t < b), in increasing start order. There are between 1 and
  /// ceil(r/s) such instances.
  std::vector<Interval> InstancesContaining(TimeT t) const;

  /// "W(r, s)" e.g. "W(20, 10)"; tumbling windows print as "T(20)".
  std::string ToString() const;

  /// Total order for use as map keys / canonical sorting: by range, then
  /// slide. Not the coverage partial order.
  bool operator<(const Window& other) const {
    if (range_ != other.range_) return range_ < other.range_;
    return slide_ < other.slide_;
  }
  bool operator==(const Window& other) const = default;

 private:
  TimeT range_;
  TimeT slide_;
};

}  // namespace fw

#endif  // FW_WINDOW_WINDOW_H_
