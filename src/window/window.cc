#include "window/window.h"

#include <sstream>

#include "common/logging.h"
#include "common/math_util.h"

namespace fw {

Window::Window(TimeT range, TimeT slide) : range_(range), slide_(slide) {
  FW_CHECK_GT(slide, 0) << "window slide must be positive";
  FW_CHECK_LE(slide, range) << "window slide must not exceed range";
}

Result<Window> Window::Make(TimeT range, TimeT slide) {
  if (slide <= 0) {
    return Status::InvalidArgument("window slide must be positive");
  }
  if (slide > range) {
    return Status::InvalidArgument("window slide must not exceed range");
  }
  if (range > kMaxWindowRange) {
    return Status::InvalidArgument("window range " + std::to_string(range) +
                                   " exceeds the maximum 2^60");
  }
  return Window(range, slide);
}

std::vector<Interval> Window::FirstIntervals(int64_t count) const {
  std::vector<Interval> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t m = 0; m < count; ++m) out.push_back(IntervalAt(m));
  return out;
}

std::vector<Interval> Window::InstancesContaining(TimeT t) const {
  // [m*s, m*s + r) contains t  <=>  (t - r)/s < m <= t/s, m >= 0.
  std::vector<Interval> out;
  int64_t m_hi = FloorDiv(t, slide_);
  int64_t m_lo = FloorDiv(t - range_, slide_) + 1;
  if (m_lo < 0) m_lo = 0;
  for (int64_t m = m_lo; m <= m_hi; ++m) out.push_back(IntervalAt(m));
  return out;
}

std::string Window::ToString() const {
  std::ostringstream os;
  if (IsTumbling()) {
    os << "T(" << range_ << ")";
  } else {
    os << "W(" << range_ << ", " << slide_ << ")";
  }
  return os.str();
}

}  // namespace fw
