#ifndef FW_PERFBENCH_COMMON_H_
#define FW_PERFBENCH_COMMON_H_

// Plumbing shared by the end-to-end run (load.cc) and the traced layer
// ladder (ladder.cc): metric records, order statistics, operation
// accounting, scratch directories, resident-memory probes and the host
// preemption probe.

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace fw {
namespace perfbench {

/// One reported number, named and unitted exactly as BENCHMARK.json
/// declares it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty set.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
double Max(const std::vector<double>& values);

/// Library operations the run attempted (Push, PushColumns, AddQuery,
/// RemoveQuery, Recover, DurabilityManager appends) and how many returned
/// a non-OK status: error_rate = failed / attempted.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;

  /// Counts `status`; false (and the first message kept) when it failed.
  bool Check(const Status& status);
};

/// A scratch directory inside the working directory, removed (files
/// first) on destruction. The benchmark reads and writes nowhere else.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  /// A fresh, not yet existing path below this directory.
  std::string Child(const std::string& stem);

 private:
  std::string path_;
  int next_ = 0;
};

/// Removes every file in `dir`, then the directory itself.
void RemoveTree(const std::string& dir);
/// Size in bytes of every file in `dir` whose name starts with `prefix`.
uint64_t FileBytes(const std::string& dir, const std::string& prefix);

/// The regular files of one directory, held in memory so a crashed
/// session's state can be restored before each timed recovery.
struct DirImage {
  std::vector<std::string> names;
  std::vector<std::string> contents;
};
bool CaptureDir(const std::string& dir, DirImage* image);
bool RestoreDir(const std::string& dir, const DirImage& image);

/// Resident-set probes from /proc/self/status, in KiB.
uint64_t ResidentKiB();
uint64_t PeakResidentKiB();
/// Resets the peak (VmHWM) to the current resident set via
/// /proc/self/clear_refs; false if the kernel refused.
bool ResetPeakResident();

/// Spins on the monotonic clock for `millis` and returns the wall time
/// lost to gaps longer than 20 us, in ms per second of probing — time the
/// host took the core away (preemption, steal).
double StealMillisPerSecond(int millis);

/// Gauges the host's speed with a fixed routine that uses nothing of the
/// library: 200,000 random max-updates of a 16 KiB table, then 2,048
/// 33-byte write() calls to a scratch file — the engine's state updates
/// and the changelog's appends in miniature. On a shared VM the host's
/// speed drifts by tens of percent over minutes, so a run's best-case
/// timings depend on when it ran; the routine's fastest time in the same
/// run tracks that drift, and the end-to-end run scales its wall-clock
/// metrics by it to a reference host speed. The table fits the L1 cache,
/// so the routine's time does not depend on where its pages land (with a
/// 512 KiB table its fastest time differed by 8% between runs on a quiet
/// host).
class HostSpeed {
 public:
  /// The routine's fastest time on the reference host: a 4-core Xeon VM
  /// at a quiet time.
  static constexpr double kReferenceNs = 0.83e6;

  explicit HostSpeed(std::string scratch_file);

  /// Times the routine once; false if the scratch file cannot be written.
  bool Probe();
  int probes() const { return probes_; }
  double fastest_ns() const { return fastest_ns_; }
  /// The host at its best in this run, relative to the reference host:
  /// 1.25 means the routine's fastest time was 25% above kReferenceNs.
  double slowdown() const { return fastest_ns_ / kReferenceNs; }

 private:
  std::string path_;
  std::vector<uint64_t> table_;
  double fastest_ns_ = 0.0;
  int probes_ = 0;
};

/// printf into a std::string.
std::string Format(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Strict decimal parse; false on empty input or trailing garbage.
bool ParseUint(const std::string& text, uint64_t* out);

}  // namespace perfbench
}  // namespace fw

#endif  // FW_PERFBENCH_COMMON_H_
