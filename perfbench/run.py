#!/usr/bin/env python3
"""Builds the benchmark from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it reads and writes only inside
the checkout. The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench) and scratch files to .bench_work/. Build output
goes to stderr; the benchmark's own output, ending in one JSON line, goes
to stdout. Extra flags (--tiny for the benchmark's tests) pass through.
Exits non-zero without a result if the build or the run fails.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "-j", jobs, "--target", "perfbench"],
    ]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT, check=False)
        except OSError as error:
            print(f"run.py: cannot run {step[0]}: {error}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print("run.py: build failed", file=sys.stderr)
            return None
    return out / "perfbench"


def main():
    binary = build()
    if binary is None:
        return 1
    command = [str(binary), *sys.argv[1:], "--work-dir",
               str(ROOT / ".bench_work")]
    sys.stdout.flush()
    with subprocess.Popen(command, cwd=ROOT) as child:
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"run.py: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
