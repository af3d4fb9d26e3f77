#!/usr/bin/env python3
"""Test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

Runs every workload at the shortest length (--seconds 1) twice on one seed,
both the end-to-end run (--trace 0) and the traced run (--trace 1).  It
asserts that

  * each result line has exactly the keys correct / attempted / failed /
    metrics, and exactly the metrics BENCHMARK.json lists for that mode,
    with their units;
  * every output check passed: correct is true, failed is 0, and the traced
    run reports residual_violations = 0 and failed_pct = 0;
  * the deterministic counts repeat exactly between the two runs: shields,
    total_wl_um, area_overhead_pct, id_router.pops / .reweights,
    phase2.panels and refine.*_resolves.

Exits 0 when every assertion holds.  Takes about five minutes on two cores.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DETERMINISTIC = {
    0: ["total_wl_um"],
    1: ["shields", "area_overhead_pct", "id_router.pops", "id_router.reweights",
        "phase2.panels", "refine.pass1_resolves", "refine.pass2_resolves"],
}


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", action="append")
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    workloads = a.workload or [w["name"] for w in bench["workloads"]]
    problems = []
    for w in workloads:
        for trace in (0, 1):
            runs = [run(w, a.seed, trace) for _ in range(2)]
            tag = f"{w} --trace {trace}"
            for r in runs:
                if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"{tag}: result keys {sorted(r)}")
                units = {k: v["unit"] for k, v in r["metrics"].items()}
                if units != expected[trace]:
                    problems.append(f"{tag}: metrics {sorted(units)} differ from BENCHMARK.json")
                if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                    problems.append(f"{tag}: output checks failed: {r['correct']}, "
                                    f"{r['failed']} of {r['attempted']}")
                if trace == 1:
                    for k in ("residual_violations", "failed_pct"):
                        if r["metrics"][k]["value"] != 0:
                            problems.append(f"{tag}: {k} = {r['metrics'][k]['value']}")
            for k in DETERMINISTIC[trace]:
                a_, b_ = (r["metrics"][k]["value"] for r in runs)
                if a_ != b_:
                    problems.append(f"{tag}: {k} did not repeat: {a_} vs {b_}")
            print(f"{tag}: checked", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest: " + ("FAIL" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
