#!/usr/bin/env python3
"""perf_smoke: CI performance gates over benchmark JSON output.

Two modes, both gating on a *geometric mean* of per-benchmark
items_per_second ratios (single micro-benchmarks are noisy in shared CI
runners; individual outliers are still printed for triage):

* Telemetry overhead budget (DESIGN.md §13). Compares two result files —
  one from a default (telemetry ON) build, one from -DFW_TELEMETRY=OFF —
  and fails if ON falls more than the budget below OFF:

      perf_smoke.py --on on.json --off off.json [--budget 0.03]

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


def gate(rows, count_label, geomean_floor, fail_message):
    """Prints a ratio table and applies the geomean floor. `rows` is a
    list of (label, denominator_rate, numerator_rate)."""
    if not rows:
        print("perf_smoke: no %s to gate on" % count_label)
        return 2
    log_sum = 0.0
    for _, denom, num in rows:
        ratio = num / denom if denom > 0 else 1.0
        log_sum += math.log(ratio)
    geomean = math.exp(log_sum / len(rows))
    print("geomean ratio over %d %s: %.4fx (floor %.2fx)"
          % (len(rows), count_label, geomean, geomean_floor))
    if geomean < geomean_floor:
        print("perf_smoke: FAIL — %s" % fail_message)
        return 1
    print("perf_smoke: OK")
    return 0


def run_overhead(opts):
    on = load_items_per_second(opts.on_path)
    off = load_items_per_second(opts.off_path)
    shared = sorted(set(on) & set(off))
    if not shared:
        print("perf_smoke: no common benchmarks between %s and %s"
              % (opts.on_path, opts.off_path))
        return 2

    print("%-44s %14s %14s %8s" % ("benchmark", "off items/s", "on items/s",
                                   "ratio"))
    rows = []
    for name in shared:
        ratio = on[name] / off[name] if off[name] > 0 else 1.0
        flag = "  <-- slow" if ratio < 1.0 - opts.budget else ""
        print("%-44s %14.0f %14.0f %7.3fx%s"
              % (name, off[name], on[name], ratio, flag))
        rows.append((name, off[name], on[name]))
    return gate(rows, "benchmarks", 1.0 - opts.budget,
                "telemetry overhead exceeds the %.0f%% budget"
                % (opts.budget * 100))


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
    parser.add_argument("--on", dest="on_path",
                        help="benchmark json from the telemetry-ON build")
    parser.add_argument("--off", dest="off_path",
                        help="benchmark json from the -DFW_TELEMETRY=OFF build")
    parser.add_argument("--budget", type=float, default=0.03,
                        help="allowed fractional slowdown (default 0.03)")
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
             bool(opts.durable_paths), bool(opts.on_path or opts.off_path)]
    if sum(modes) > 1:
        print("perf_smoke: --check, --columnar, --durable, and --on/--off "
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
    if not opts.on_path or not opts.off_path:
        print("perf_smoke: need --check FILE..., --columnar FILE, "
              "--durable FILE..., or both --on and --off")
        return 2
    return run_overhead(opts)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
