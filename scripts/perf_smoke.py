#!/usr/bin/env python3
"""perf_smoke: CI performance gates over benchmark JSON output.

Two modes, both gating on a *geometric mean* of per-benchmark
items_per_second ratios (single micro-benchmarks are noisy in shared CI
runners; individual outliers are still printed for triage):

* Telemetry overhead budget (DESIGN.md §13). Takes two builds of one
  google-benchmark binary — a default (telemetry ON) build and a
  -DFW_TELEMETRY=OFF one — runs each benchmark on its own, OFF and ON
  back to back, five times, and fails if the ON medians fall more than
  the budget below the OFF medians:

      perf_smoke.py --interleave ON_BIN OFF_BIN [--budget 0.03]
                    [--save-on on.json]

  Two whole runs made a minute apart would compare the host's drift
  between them instead. The gate covers every benchmark the binaries
  share. It also prints the geomean over the BM_Session* benchmarks
  alone — the whole StreamSession path, where most instrumentation
  sits — for triage. --save-on writes the ON medians as a benchmark
  result file, which the columnar floor below can read.

* Columnar ingestion floor (DESIGN.md §14). Reads ONE result file and
  pairs every "<name>Columns..." benchmark with its scalar "<name>..."
  twin (BM_RawPushTumblingColumns vs BM_RawPushTumbling, argument
  suffixes matched exactly), failing if the columnar/scalar geomean
  speedup drops below the floor:

      perf_smoke.py --columnar results.json [--min-ratio 1.15]

* Durable ingest floor (DESIGN.md §16). Reads one or more
  bench_durability result files and divides each run's
  BM_DurableIngest/fsync_none rate by the same run's non-durable
  BM_DurableIngest/baseline, failing if the *median* ratio over the runs
  drops below the floor (a median, so one stalled run on a shared runner
  cannot fail the gate and one lucky run cannot pass it):

      perf_smoke.py --durable run1.json [run2.json ...] [--min-ratio 0.5]

* Shape check. Validates that each FILE is a benchmark result with a
  non-empty "benchmarks" array whose entries carry positive
  items_per_second values — the gate CI's bench smoke runs over
  bench_adaptive.json so a silently-empty artifact can never pass:

      perf_smoke.py --check FILE [FILE ...]

Exit status: 0 within budget/floor, 1 over it, 2 usage/parse error —
including missing, empty, or rate-less "benchmarks" entries, which fail
with a named file and reason rather than a traceback.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys


def load_items_per_second(path):
    """Benchmark name -> items_per_second. With repetitions, prefers the
    *_mean aggregate over raw iterations. Exits 2 with a named reason on
    any malformed input — a truncated or empty result file must fail the
    gate loudly, not sail through with zero rows."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        print("perf_smoke: cannot read %s: %s" % (path, err))
        sys.exit(2)
    if not isinstance(doc, dict) or "benchmarks" not in doc:
        print("perf_smoke: %s has no 'benchmarks' key — not a benchmark "
              "result file" % path)
        sys.exit(2)
    benchmarks = doc["benchmarks"]
    if not isinstance(benchmarks, list) or not benchmarks:
        print("perf_smoke: %s has an empty 'benchmarks' array — the "
              "benchmark produced no results" % path)
        sys.exit(2)
    rates = {}
    aggregates = {}
    for bench in benchmarks:
        if not isinstance(bench, dict):
            continue
        name = bench.get("name", "")
        rate = bench.get("items_per_second")
        if not isinstance(rate, (int, float)) or rate <= 0:
            continue
        if bench.get("run_type") == "aggregate":
            if bench.get("aggregate_name") == "mean":
                aggregates[bench.get("run_name", name)] = rate
        else:
            rates.setdefault(name, rate)
    rates.update(aggregates)
    if not rates:
        print("perf_smoke: no entry in %s carries a positive "
              "items_per_second — nothing to gate on" % path)
        sys.exit(2)
    return rates


def columnar_pairs(rates):
    """(scalar_name, columnar_name) pairs: "BM_XColumns/arg" <-> "BM_X/arg".

    The base benchmark name is everything before the first '/', so
    argument suffixes must match exactly — BM_KeyedAggregationColumns/16
    pairs with BM_KeyedAggregation/16 only.
    """
    pairs = []
    for name in sorted(rates):
        base, sep, args = name.partition("/")
        if not base.endswith("Columns"):
            continue
        scalar = base[: -len("Columns")] + sep + args
        if scalar in rates:
            pairs.append((scalar, name))
    return pairs


def geomean_ratio(rows):
    """Geometric mean of numerator/denominator over (label, denominator,
    numerator) rows."""
    log_sum = 0.0
    for _, denom, num in rows:
        ratio = num / denom if denom > 0 else 1.0
        log_sum += math.log(ratio)
    return math.exp(log_sum / len(rows))


def gate(rows, count_label, geomean_floor, fail_message):
    """Prints a ratio table and applies the geomean floor. `rows` is a
    list of (label, denominator_rate, numerator_rate)."""
    if not rows:
        print("perf_smoke: no %s to gate on" % count_label)
        return 2
    geomean = geomean_ratio(rows)
    print("geomean ratio over %d %s: %.4fx (floor %.2fx)"
          % (len(rows), count_label, geomean, geomean_floor))
    if geomean < geomean_floor:
        print("perf_smoke: FAIL — %s" % fail_message)
        return 1
    print("perf_smoke: OK")
    return 0


SESSION_PREFIX = "BM_Session"


def list_benchmarks(binary):
    try:
        out = subprocess.run([binary, "--benchmark_list_tests=true"],
                             check=True, capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perf_smoke: cannot list the benchmarks of %s: %s"
              % (binary, err))
        sys.exit(2)
    return [line.strip() for line in out.stdout.splitlines() if line.strip()]


def run_one(binary, name, min_time):
    """items_per_second of benchmark `name` alone, from a fresh process."""
    cmd = [binary, "--benchmark_filter=^%s$" % name,
           "--benchmark_min_time=%s" % min_time, "--benchmark_format=json"]
    try:
        out = subprocess.run(cmd, check=True, capture_output=True, text=True)
        doc = json.loads(out.stdout)
    except (OSError, subprocess.CalledProcessError, ValueError) as err:
        print("perf_smoke: %s failed: %s" % (" ".join(cmd), err))
        sys.exit(2)
    for bench in doc.get("benchmarks", []):
        rate = bench.get("items_per_second")
        if bench.get("name") == name and isinstance(rate, (int, float)) \
                and rate > 0:
            return rate
    print("perf_smoke: %s reported no items_per_second" % " ".join(cmd))
    sys.exit(2)


def save_rates(path, rates):
    doc = {"context": {"perf_smoke": "per-benchmark median over %d "
                                     "interleaved runs" % INTERLEAVE_REPS},
           "benchmarks": [{"name": name, "run_name": name,
                           "run_type": "iteration",
                           "repetitions": INTERLEAVE_REPS,
                           "items_per_second": rate}
                          for name, rate in sorted(rates.items())]}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)


# Runs per benchmark and side, and google-benchmark's minimum time per
# run: about 90 s for bench_engine_micro's 22 benchmarks.
INTERLEAVE_REPS = 5
INTERLEAVE_MIN_TIME = "0.2"


def run_interleaved(opts):
    on_bin, off_bin = opts.interleave
    shared = sorted(set(list_benchmarks(on_bin)) &
                    set(list_benchmarks(off_bin)))
    if not shared:
        print("perf_smoke: %s and %s share no benchmark" % (on_bin, off_bin))
        return 2
    samples = {side: {name: [] for name in shared} for side in ("on", "off")}
    binaries = {"on": on_bin, "off": off_bin}
    for rep in range(INTERLEAVE_REPS):
        # Alternate which side runs first, so a steady drift in the host
        # favours neither.
        order = ("off", "on") if rep % 2 == 0 else ("on", "off")
        for name in shared:
            for side in order:
                samples[side][name].append(
                    run_one(binaries[side], name, INTERLEAVE_MIN_TIME))
    on = {name: statistics.median(v) for name, v in samples["on"].items()}
    off = {name: statistics.median(v) for name, v in samples["off"].items()}
    if opts.save_on:
        save_rates(opts.save_on, on)
    print("per-benchmark medians over %d interleaved OFF/ON runs"
          % INTERLEAVE_REPS)
    return overhead_gate(on, off, "%s and %s" % (on_bin, off_bin),
                         opts.budget)


def overhead_gate(on, off, sources, budget):
    shared = sorted(set(on) & set(off))
    if not shared:
        print("perf_smoke: no common benchmarks between %s" % sources)
        return 2

    print("%-44s %14s %14s %8s" % ("benchmark", "off items/s", "on items/s",
                                   "ratio"))
    rows = []
    for name in shared:
        ratio = on[name] / off[name] if off[name] > 0 else 1.0
        flag = "  <-- slow" if ratio < 1.0 - budget else ""
        print("%-44s %14.0f %14.0f %7.3fx%s"
              % (name, off[name], on[name], ratio, flag))
        rows.append((name, off[name], on[name]))
    session_rows = [row for row in rows if row[0].startswith(SESSION_PREFIX)]
    if session_rows:
        print("session-path geomean ratio over %d benchmarks: %.4fx"
              % (len(session_rows), geomean_ratio(session_rows)))
    else:
        print("perf_smoke: note — no %s* benchmarks, so the session path "
              "is not measured" % SESSION_PREFIX)
    return gate(rows, "benchmarks", 1.0 - budget,
                "telemetry overhead exceeds the %.0f%% budget"
                % (budget * 100))


def run_columnar(opts):
    rates = load_items_per_second(opts.columnar_path)
    pairs = columnar_pairs(rates)
    if not pairs:
        print("perf_smoke: no scalar/columnar benchmark pairs in %s"
              % opts.columnar_path)
        return 2

    print("%-44s %14s %14s %8s" % ("benchmark pair", "scalar items/s",
                                   "columnar it/s", "ratio"))
    rows = []
    for scalar, columnar in pairs:
        ratio = rates[columnar] / rates[scalar] if rates[scalar] > 0 else 1.0
        flag = "  <-- slow" if ratio < opts.min_ratio else ""
        print("%-44s %14.0f %14.0f %7.3fx%s"
              % (scalar, rates[scalar], rates[columnar], ratio, flag))
        rows.append((scalar, rates[scalar], rates[columnar]))
    return gate(rows, "pairs", opts.min_ratio,
                "columnar ingestion speedup fell below the %.2fx floor"
                % opts.min_ratio)


DURABLE_BENCH = "BM_DurableIngest/fsync_none"
BASELINE_BENCH = "BM_DurableIngest/baseline"


def run_durable(opts):
    floor = opts.min_ratio
    runs = []
    for path in opts.durable_paths:
        rates = load_items_per_second(path)
        missing = [n for n in (BASELINE_BENCH, DURABLE_BENCH) if n not in rates]
        if missing:
            print("perf_smoke: %s lacks %s — not a bench_durability result"
                  % (path, ", ".join(missing)))
            return 2
        runs.append((path, rates))

    print("%-44s %14s %14s %8s" % ("run", "baseline it/s", "fsync_none it/s",
                                   "ratio"))
    ratios = []
    for path, rates in runs:
        ratio = rates[DURABLE_BENCH] / rates[BASELINE_BENCH]
        flag = "  <-- slow" if ratio < floor else ""
        print("%-44s %14.0f %14.0f %7.3fx%s"
              % (path, rates[BASELINE_BENCH], rates[DURABLE_BENCH], ratio,
                 flag))
        ratios.append(ratio)
    median = statistics.median(ratios)
    print("median fsync_none/baseline ratio over %d run(s): %.4fx "
          "(floor %.2fx)" % (len(ratios), median, floor))
    if median < floor:
        print("perf_smoke: FAIL — durable ingest fell below %.2fx of the "
              "non-durable baseline" % floor)
        return 1
    print("perf_smoke: OK")
    return 0


def run_check(paths):
    """Shape gate: every file must load as a benchmark result with at
    least one positive items_per_second entry (load_items_per_second
    exits 2 otherwise). Prints the rates it found for the CI log."""
    for path in paths:
        rates = load_items_per_second(path)
        for name in sorted(rates):
            print("%-44s %14.0f items/s" % (name, rates[name]))
        print("perf_smoke: %s OK (%d benchmarks)" % (path, len(rates)))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=float, default=0.03,
                        help="allowed fractional slowdown (default 0.03)")
    parser.add_argument("--interleave", nargs=2,
                        metavar=("ON_BIN", "OFF_BIN"),
                        help="run the telemetry-ON and -OFF benchmark "
                             "binaries one benchmark at a time, "
                             "alternating, and gate on the medians")
    parser.add_argument("--save-on", metavar="FILE",
                        help="--interleave: write the ON medians here")
    parser.add_argument("--columnar", dest="columnar_path",
                        help="benchmark json holding scalar and *Columns "
                             "twins; gates columnar/scalar speedup")
    parser.add_argument("--durable", dest="durable_paths", nargs="+",
                        metavar="FILE",
                        help="bench_durability json(s); gates the median "
                             "fsync_none/baseline throughput ratio")
    parser.add_argument("--min-ratio", type=float, default=None,
                        help="floor for --columnar (geomean speedup, "
                             "default 1.15) or --durable (median ratio, "
                             "default 0.5)")
    parser.add_argument("--check", dest="check_paths", nargs="+",
                        metavar="FILE",
                        help="validate benchmark result files: each needs "
                             "a non-empty 'benchmarks' array with positive "
                             "items_per_second entries")
    opts = parser.parse_args(argv)

    modes = [bool(opts.check_paths), bool(opts.columnar_path),
             bool(opts.durable_paths), bool(opts.interleave)]
    if sum(modes) > 1:
        print("perf_smoke: --check, --columnar, --durable and --interleave "
              "are mutually exclusive")
        return 2
    if opts.check_paths:
        return run_check(opts.check_paths)
    if opts.columnar_path:
        if opts.min_ratio is None:
            opts.min_ratio = 1.15
        return run_columnar(opts)
    if opts.durable_paths:
        if opts.min_ratio is None:
            opts.min_ratio = 0.5
        return run_durable(opts)
    if not opts.interleave:
        print("perf_smoke: need --check FILE..., --columnar FILE, "
              "--durable FILE..., or --interleave ON_BIN OFF_BIN")
        return 2
    return run_interleaved(opts)

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
