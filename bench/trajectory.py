#!/usr/bin/env python3
"""Measure every workload over several seeds and append the result to the
performance trajectory (bench/trajectory.json).

    python3 bench/trajectory.py --label baseline --seeds 0-9

Each (workload, seed) is one untraced `run.py` process measuring for
BENCHMARK.json's ``run_seconds``; one traced process per workload (at
the first seed) adds the per-layer figures.  A point records, per
workload and end-to-end metric, the median, the quartiles and the
quartile spread as a share of the median, next to the machine and
commit it was measured on.  It exits nonzero if any run failed a
check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import stats
from make_goldens import seed_range
from run import BENCH, NAMES, ROOT, machine

TRAJECTORY = os.path.join(BENCH, "trajectory.json")


def bench_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = stats.quartiles(values)
    return {"median": stats.median(values), "q1": q1, "q3": q3,
            "spread": stats.iqr_share(values), "runs": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    point = {"label": args.label, "seeds": args.seeds, "seconds": seconds,
             "workloads": {}}
    ok = True
    for name in NAMES:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        for seed in args.seeds:
            res = bench_run(name, seed, seconds, 0)
            ok = ok and res["correct"]
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {values[m][-1]:.4g}" for m in bounds), flush=True)
        entry = {m: summarize(v) for m, v in values.items()}
        for m, s in entry.items():
            flag = "" if s["spread"] < bounds[m] else "  OVER BOUND"
            print(f"  {name} {m}: median {s['median']:.4g}, spread "
                  f"{s['spread']:.3f} (bound {bounds[m]}){flag}", flush=True)
        res = bench_run(name, args.seeds[0], seconds, 1)
        ok = ok and res["correct"]
        entry["per_layer"] = {m: v["value"] for m, v in res["metrics"].items()}
        point["workloads"][name] = entry

    point["machine"] = {k: v for k, v in machine("", 0, seconds, 0).items()
                        if k not in ("workload", "seed", "trace")}
    points = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY, encoding="utf-8") as fh:
            points = json.load(fh)
    points.append(point)
    with open(TRAJECTORY, "w", encoding="utf-8") as fh:
        json.dump(points, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
