#ifndef FW_PERFBENCH_RUN_H_
#define FW_PERFBENCH_RUN_H_

#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace fw {
namespace perfbench {

struct RunConfig {
  double seconds = 10.0;  // Measured time of one run (--seconds).
  ScratchDir* scratch = nullptr;
  double steal_ms_per_s = 0.0;  // Host preemption probe, ms lost per s.
  std::string trace_path;  // Where the traced run writes its spans.
};

/// What one run reports: `metrics` are the contract's (the last output
/// line), `notes` are diagnostics printed above it, `failures` name every
/// correctness gate that did not hold.
struct RunOutcome {
  Metrics metrics;
  std::vector<std::string> notes;
  std::vector<std::string> failures;
  OpCount ops;

  void Fail(const std::string& what) { failures.push_back(what); }
  void Note(const std::string& what) { notes.push_back(what); }
};

/// Untraced run: saturated closed-loop and paced open-loop phases plus the
/// recovery measurement; reports the end-to-end metrics.
RunOutcome RunEndToEnd(const Inputs& in, const RunConfig& config);

/// Traced run: drives each layer's public API on the same inputs and
/// reports the per-layer metrics.
RunOutcome RunLadder(const Inputs& in, const RunConfig& config);

/// Latency of the paced phase, shared by both runs.
struct PacedStats {
  std::vector<double> latencies_us;
  uint64_t untriggered = 0;  // Results no pushed event could close.
  uint64_t gen_lag_max_ns = 0;
};
/// One paced pass, its results checked against `expected`; latencies go
/// to `stats`. False if the session failed.
bool PacedPass(const Inputs& in, ScratchDir* scratch,
               const LightFold& expected, LatencySampler* sampler,
               PacedStats* stats, RunOutcome* out);

struct RecoveryStats {
  std::vector<double> seconds;
  uint64_t replayed_records = 0;
};

/// Timed recoveries of a session killed at one snapshot interval plus
/// kReplayDepth events: durable workloads recover their own verification
/// pass's directory (`image`), the others a durable single-shard replica
/// of their session, built by the constructor. The directory is restored
/// byte for byte (and made durable) before each Recover.
class Recovery {
 public:
  Recovery(const Inputs& in, ScratchDir* scratch, const DirImage* image,
           RunOutcome* out);
  ~Recovery();
  Recovery(const Recovery&) = delete;
  Recovery& operator=(const Recovery&) = delete;

  /// Restores the directory and times one Recover into `stats`.
  bool Once(RecoveryStats* stats, RunOutcome* out);

 private:
  WorkloadSpec spec_;
  const std::string dir_;
  const size_t durable_events_;
  DirImage image_;
  bool ok_ = true;
};

}  // namespace perfbench
}  // namespace fw

#endif  // FW_PERFBENCH_RUN_H_
