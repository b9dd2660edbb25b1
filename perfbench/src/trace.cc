#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace fw {
namespace perfbench {

uint32_t Tracer::Name(std::string_view name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

std::vector<double> Tracer::Durations(std::string_view name,
                                      int64_t run) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (names_[span.name] == name && (run < 0 || span.run == run)) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    Totals& totals = out[names_[spans_[i].name]];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration - std::min(duration, child_ns[i]);
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"run\":%u,\"name\":\"%s\",\"parent\":%lld,"
                 "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 i, span.run, names_[span.name].c_str(),
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns));
  }
  for (const auto& [name, totals] : Summarize()) {
    std::fprintf(file,
                 "{\"summary\":\"%s\",\"count\":%llu,\"total_ns\":%llu,"
                 "\"self_ns\":%llu}\n",
                 name.c_str(), static_cast<unsigned long long>(totals.count),
                 static_cast<unsigned long long>(totals.total_ns),
                 static_cast<unsigned long long>(totals.self_ns));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
}  // namespace fw
