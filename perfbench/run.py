#!/usr/bin/env python3
"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The script builds perfbench/gsino_perf
from source (dune, into .bench_build/), then:

  --trace 0  runs the workload once untraced and reports every end-to-end
             metric.  It also times the set-up alone in SETUP_PROBES
             separate processes, half before and half after that run, and
             reports as setup_s the median over the probes and the run.
  --trace 1  runs the traced per-layer run and reports every per-layer
             metric; the span trace is written to .bench_out/.

The result line is one JSON object with the keys correct, attempted, failed
and metrics.  Any build or run failure exits non-zero without printing it.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("tables-ibm04", "serve-warm")
SETUP_PROBES = 2
BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "gsino_perf.exe")
BUILD_TIMEOUT_S = 840
RUN_BUDGET_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a source tree")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune not found on PATH")
    cmd = [dune, "build", "--root", ".", "--profile", "release", "--no-config",
           "--cache=disabled", "--build-dir", BUILD_DIR, "--display", "quiet",
           "./perfbench/gsino_perf.exe"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def run_exe(args, deadline):
    """Run the benchmark program; return the JSON object on its last line."""
    try:
        proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"exit {proc.returncode}: {' '.join(args)}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"no result line: {' '.join(args)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", a.workload, "--seed", str(a.seed)]
    probes = []

    def probe():
        if a.trace == 0:
            probes.extend(run_exe(base + ["--setup-only"], deadline)["setup_s"]
                          for _ in range(SETUP_PROBES // 2))

    probe()
    result = run_exe(base + ["--seconds", str(a.seconds), "--trace", str(a.trace)],
                     deadline)
    probe()
    if a.trace == 0:
        setup = result["metrics"]["setup_s"]
        print(f"set-up samples: {probes + [setup['value']]}", file=sys.stderr)
        setup["value"] = statistics.median(probes + [setup["value"]])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
