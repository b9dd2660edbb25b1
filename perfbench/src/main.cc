// perfbench: the repository's benchmark. One run measures one workload,
// untraced (--trace 0: end-to-end metrics) or as the traced layer ladder
// (--trace 1: per-layer metrics), checks every result against a
// reference, and prints one JSON object as its last line. README.md in
// this directory defines the workloads and every metric.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--work-dir DIR]

#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "common.h"
#include "run.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace fw {
namespace perfbench {
namespace {

#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

int Usage(const std::string& message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--tiny] [--work-dir DIR]\n"
               "workloads:",
               message.c_str());
  for (const WorkloadSpec& spec : AllWorkloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

void PrintJson(const RunOutcome& out, bool correct) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.ops.attempted),
              static_cast<unsigned long long>(out.ops.failed));
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 2;
  bool tiny = false;
  std::string work_dir = ".bench_work";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string text;
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--workload") {
      if (!value(&workload)) return Usage("--workload needs a value");
    } else if (arg == "--work-dir") {
      if (!value(&work_dir)) return Usage("--work-dir needs a value");
    } else if (arg == "--seed") {
      if (!value(&text) || !ParseUint(text, &seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      if (!value(&text) || !ParseUint(text, &seconds) || seconds == 0) {
        return Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (!value(&text) || !ParseUint(text, &trace) || trace > 1) {
        return Usage("bad --trace");
      }
    } else {
      return Usage("unknown argument '" + arg + "'");
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr) return Usage("unknown workload '" + workload + "'");
  if (!have_seed || seconds == 0 || trace > 1) {
    return Usage("--seed, --seconds and --trace are required");
  }
  if (!kOptimizedBuild) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a build "
                 "without NDEBUG; configure with -DCMAKE_BUILD_TYPE=Release\n");
    return 3;
  }

  // Fixed allocator thresholds: by default glibc raises its mmap threshold
  // to the size of each mapped block it frees, so whether a large buffer
  // goes back to the kernel (and the memory metric with it) would depend
  // on allocation history.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);

  const size_t events = tiny ? kTinyEvents : spec->events;
  std::printf("# perfbench workload=%s seed=%llu seconds=%llu trace=%llu "
              "events=%zu%s\n",
              spec->name, static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seconds),
              static_cast<unsigned long long>(trace), events,
              tiny ? " tiny" : "");
  std::printf("# config keys=%u shards=%u max_delay=%lld batch=%zu "
              "rate_eps=%.0f durable=%d churn=%d\n",
              spec->keys, spec->shards,
              static_cast<long long>(spec->max_delay), spec->batch,
              spec->rate_eps, spec->durable ? 1 : 0, spec->churn ? 1 : 0);
  const double steal = StealMillisPerSecond(200);
  std::printf("# host nproc=%u steal_ms_per_s=%.3f telemetry=%s build=NDEBUG\n",
              std::thread::hardware_concurrency(), steal,
              telemetry::kEnabled ? "on" : "off");
  std::fflush(stdout);

  ::mkdir(work_dir.c_str(), 0755);
  ScratchDir scratch(work_dir + "/run-" + std::to_string(::getpid()));
  RunConfig config;
  config.seconds = static_cast<double>(seconds);
  config.scratch = &scratch;
  config.steal_ms_per_s = steal;
  config.trace_path = work_dir + "/trace-" + spec->name + ".jsonl";

  const Inputs inputs = MakeInputs(*spec, events, seed);
  RunOutcome out =
      trace == 1 ? RunLadder(inputs, config) : RunEndToEnd(inputs, config);

  for (const std::string& note : out.notes) std::printf("# %s\n", note.c_str());
  for (const Metric& m : out.metrics) {
    std::printf("# metric %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if (!std::isfinite(m.value)) out.Fail(m.name + " is not finite");
  }
  std::printf("# error_rate %.6g (%llu failed of %llu operations)\n",
              out.ops.attempted == 0
                  ? 0.0
                  : static_cast<double>(out.ops.failed) /
                        static_cast<double>(out.ops.attempted),
              static_cast<unsigned long long>(out.ops.failed),
              static_cast<unsigned long long>(out.ops.attempted));
  if (out.ops.failed > 0) {
    out.Fail("first failed operation: " + out.ops.first_error);
  }
  for (const std::string& failure : out.failures) {
    std::printf("# FAIL %s\n", failure.c_str());
  }
  const bool correct = out.failures.empty();
  PrintJson(out, correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace fw

int main(int argc, char** argv) { return fw::perfbench::Main(argc, argv); }
