#!/usr/bin/env python3
"""Run one synthtop benchmark workload and print its metrics.

    python3 bench/run.py --workload gate|hyper-carriers|repair \
        --seed N --seconds S --trace 0|1

Run it from any directory; it builds nothing and imports synthtop from
the ``src`` directory beside ``bench``.  One client drives the program in
a closed loop: one process, no threads, the next operation starts when
the previous one has finished.

With ``--trace 0`` it sets up the workload several times, each in a
fresh interpreter (``ready.py``: start-up, import, inputs, goldens), and
reports the median as ``setup_s``; then it sets up once in its own
process and runs timed
passes over the workload's fixed input set until ``--seconds`` have
passed and reports the median pass as ``wall_s``; both are given at a
reference interpreter speed (see calib.py), and the raw figures are
printed beside them.  With ``--trace 1`` it
runs one traced pass of every workload, so that every per-layer metric
is measured, and brackets the traced pass of the named workload between
two untraced ones for ``bench.trace_overhead_ratio``.

Every metric is printed as ``name value unit``; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record (machine, commit, seed, pass times, every
metric) goes to ``bench/out/``, and a traced run also writes its spans
there.  The exit code is 0 when every check passed, 1 when one failed,
2 on a usage error or when the synthtop sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
SETUP_REPS = 7
NAMES = ("gate", "hyper-carriers", "repair")

import stats  # noqa: E402  (the script directory is first on sys.path)
from calib import Clock  # noqa: E402
from ready import GOLDENS, SRC, load_golden, setup  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# set-up


def fresh_setup(workload: str, seed: int, clock: Clock) -> tuple[float, float]:
    """One set-up in a fresh interpreter, from just before its process
    starts until its workload is ready; returns (reference-speed, raw)
    seconds."""
    p0, m0 = time.perf_counter(), time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "ready.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise OSError(f"set-up process exited {proc.returncode}: {proc.stderr}")
    raw = float(proc.stdout.split()[-1]) - m0
    return clock.tick(p0, p0 + raw, own=False), raw


# ---------------------------------------------------------------------------
# passes and their checks


def timed_pass(wl, run) -> tuple[tuple[float, float], dict]:
    """One pass; returns its (reference-speed, raw) seconds and summary."""
    s0, a0, l0 = run.steps, len(run.answers), len(run.lines)
    ref0, raw0 = run.clock.ref_s, run.clock.raw_s
    wl.run_pass(run)
    summary = run.pass_summary(s0, a0)
    if wl.name == "gate":
        summary = {"steps": summary["steps"], "lines": run.lines[l0:]}
    return (run.clock.ref_s - ref0, run.clock.raw_s - raw0), summary


# the layer charged when a pass disagrees with the golden or with an
# earlier pass of the same run
_STEP_LAYER = {"gate": "laws", "hyper-carriers": "sierpinski", "repair": "reals"}
_ANSWER_LAYER = {"gate": "laws", "hyper-carriers": "hyper", "repair": "reals"}


def check_replay(run, workload: str, summaries: list[dict],
                 golden: dict | None) -> None:
    """Every pass must repeat the golden's step total and answers (or,
    without a golden for this seed, the first pass's)."""
    ref = golden if golden is not None else summaries[0]
    start = 0 if golden is not None else 1
    for s in summaries[start:]:
        run.check(s["steps"] == ref["steps"], _STEP_LAYER[workload])
        if workload == "gate":
            for i, line in enumerate(ref["lines"]):
                got = s["lines"][i] if i < len(s["lines"]) else None
                run.check(got == line, "laws")
        else:
            run.check(s["digest"] == ref["digest"], _ANSWER_LAYER[workload])


# ---------------------------------------------------------------------------
# metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_latency(op_ms: list[float]) -> dict:
    out = {"op_samples": (len(op_ms), "count")}
    for pct in (50, 90):
        try:
            out[f"op_p{pct}_ms"] = (stats.percentile(op_ms, pct), "ms")
        except stats.TooFewSamples as e:
            print(f"op_p{pct}_ms not reported: {e}")
    return out


def layer_metrics(mod, traced: dict) -> dict:
    """Every per-layer metric but the error counts, from one traced pass
    of each workload.
    ``traced[name]`` is (run, tracer, (ref_s, raw_s), workload).  Span
    times are scaled to the reference speed by their pass's ref/raw."""
    m: dict = {}

    def unpack(name):
        run, tr, (ref, raw), wl = traced[name]
        return run, tr.by_name(), ref, (lambda ns: ns / 1e9 * ref / raw), wl

    run, spans, _, sec, _ = unpack("gate")
    for law in sorted(mod.GATE_SIZES):
        wall = sec(spans.get(f"laws.{law}", (0, 0, 0))[1])
        m[f"laws.{law}.wall_s"] = (wall, "s")
        if law in mod.FUEL_LAWS:
            m[f"laws.{law}.steps_per_s"] = (run.fuel.get(law, 0) / wall if wall else 0.0, "1/s")

    run, spans, wall, sec, _ = unpack("hyper-carriers")
    status = sec(sum(t for n, (_, t, _) in spans.items()
                     if n.startswith("sierpinski.status.")))
    m["sierpinski.status.calls"] = (run.status_calls, "count")
    m["sierpinski.status.steps_per_s"] = (run.status_steps / status, "1/s")
    m["sierpinski.status.busy_share"] = (status / wall, "ratio")
    m["sierpinski.status.accept_ratio"] = (run.status_accepted / run.status_calls, "ratio")
    m["sierpinski.status.pending_step_share"] = (run.pending_steps / run.status_steps, "ratio")
    build_all = eval_all = 0.0
    for op in mod.HYPER_OPS:
        build = sec(spans.get(mod.BUILD_SPAN[op], (0, 0, 0))[1])
        queries, ev, _ = spans.get(mod.EVAL_SPAN[op], (0, 0, 0))
        ev = sec(ev)
        build_all += build
        eval_all += ev
        m[f"hyper.{op}.build_us"] = (build * 1e6 / max(queries, 1), "us")
        m[f"hyper.{op}.eval_us"] = (ev * 1e6 / max(queries, 1), "us")
    m["hyper.build_share"] = (build_all / (build_all + eval_all), "ratio")
    oracle = 0.0
    for fn in mod.ORACLE_FNS:
        calls, total, _ = spans.get(f"oracle.{fn}", (0, 0, 0))
        oracle += sec(total)
        m[f"oracle.{fn}.us_per_call"] = (sec(total) * 1e6 / max(calls, 1), "us")
    m["oracle.busy_share"] = (oracle / wall, "ratio")

    _, spans, _, sec, wl = unpack("repair")
    levels = len(wl.inputs) * wl.BITS
    m["reals.repair_decimal.levels_per_s"] = (
        levels / sec(spans["reals.repair_decimal"][1]), "1/s")
    m["reals.interval.steps_per_s"] = (
        len(wl.inputs) * wl.BOUNDARY_FUEL / sec(spans["reals.interval.status"][1]), "1/s")
    m["reals.direct_oracle.us_per_level"] = (
        sec(spans["reals.direct_oracle"][1]) * 1e6 / levels, "us")
    m["kernel.decode_enum.steps_per_s"] = (
        len(wl.inputs) * wl.DECODE_FUEL / sec(spans["kernel.decode_enum"][1]), "1/s")
    calls, total, _ = spans["bases.kolmogorov_completion"]
    m["bases.kolmogorov_completion.us_per_call"] = (sec(total) * 1e6 / calls, "us")
    return m


def self_shares(tr: Tracer, raw_wall: float) -> dict:
    own = tr.layer_self_ns()
    return {f"self_share.{layer}": (ns / 1e9 / raw_wall, "ratio")
            for layer, ns in sorted(own.items())}


# ---------------------------------------------------------------------------
# the record


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "synthtop")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def machine(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": git_commit(),
            "source_sha256": source_digest(),
            "loop": "closed, 1 client, 1 process, no threads"}


def emit(meta: dict, metrics: dict, extra: dict, runs: list, record: dict) -> int:
    """Print every metric, save the full record, print the result line."""
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    errors = {k: sum(r.errors[k] for r in runs) for k in runs[0].errors}
    everything = {n: {"value": v, "unit": u}
                  for n, (v, u) in {**metrics, **extra}.items()}
    for key, val in meta.items():
        print(f"# {key}: {val}")
    for name, (val, unit) in {**metrics, **extra}.items():
        print(f"{name} {val:.6g} {unit}")
    err = failed / attempted if attempted else 0.0
    print(f"error_rate {err:.6g} ratio ({failed} of {attempted} checks)")
    os.makedirs(OUT, exist_ok=True)
    tag = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}"
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"machine": meta, "attempted": attempted, "failed": failed,
                   "error_rate": err, "errors": errors, "metrics": everything,
                   **record}, fh, indent=1, sort_keys=True)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {n: everything[n] for n in metrics}}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(mod, wl, golden, seconds: float, clock: Clock):
    run = mod.Run(NullTracer(), clock)
    walls, raws, summaries = [], [], []
    deadline = time.perf_counter() + seconds
    rss = None
    while True:
        (ref, raw), summary = timed_pass(wl, run)
        walls.append(ref)
        raws.append(raw)
        summaries.append(summary)
        if rss is None:
            # one pass is what one user run costs; later passes only add
            # cache and allocator growth that depends on the pass count
            rss = peak_rss_mb()
        if time.perf_counter() >= deadline:
            break
    check_replay(run, wl.name, summaries, golden)
    steps = summaries[0]["steps"]
    metrics = {"wall_s": (stats.median(walls), "s"), "peak_rss_mb": (rss, "MB")}
    extra = {"wall_raw_s": (stats.median(raws), "s"),
             "passes": (len(walls), "count"),
             "logical_steps": (steps, "count"),
             "logical_steps_per_s": (steps / stats.median(walls), "1/s"),
             **op_latency(run.op_ms)}
    return metrics, extra, [run], {"pass_walls_s": walls, "pass_raw_walls_s": raws,
                                   "passes": summaries}


def traced_run(mod, wl, golden, seed: int, clock: Clock):
    """One traced pass of every workload; the named one's sits between
    two untraced passes, which give the tracing overhead."""
    run = mod.Run(NullTracer(), clock)
    untraced: list[float] = []
    traced: dict = {}
    for name in [wl.name] + [n for n in NAMES if n != wl.name]:
        this = wl if name == wl.name else mod.WORKLOADS[name](seed)
        trun = mod.Run(Tracer(), clock)
        passes = []
        if name == wl.name:
            (ref, _), s = timed_pass(this, run)
            untraced.append(ref)
            passes.append(s)
        walls, s = timed_pass(this, trun)
        passes.append(s)
        if name == wl.name:
            (ref, _), s = timed_pass(this, run)
            untraced.append(ref)
            passes.append(s)
        check_replay(trun, name, passes,
                     golden if name == wl.name else load_golden(name, seed))
        traced[name] = (trun, trun.tr, walls, this)
    runs = [run] + [t[0] for t in traced.values()]
    metrics = layer_metrics(mod, traced)
    for layer in mod.LAYERS:
        metrics[f"{layer}.errors"] = (sum(r.errors[layer] for r in runs), "count")
    metrics["bench.trace_overhead_ratio"] = (
        traced[wl.name][2][0] / stats.median(untraced), "ratio")
    extra = {}
    os.makedirs(OUT, exist_ok=True)
    for name, (_, tr, (ref, raw), _) in traced.items():
        extra.update({f"{name}.{k}": v for k, v in self_shares(tr, raw).items()})
        extra[f"{name}.traced_wall_s"] = (ref, "s")
        extra[f"{name}.spans"] = (len(tr.names), "count")
        tr.write(os.path.join(OUT, f"{wl.name}-seed{seed}-trace1.{name}.spans.jsonl.gz"))
    return metrics, extra, runs, {"untraced_walls_s": untraced}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "synthtop", "__init__.py")):
        print(f"synthtop sources not found under {SRC}", file=sys.stderr)
        return 2
    with Clock() as clock:
        try:
            mod, wl, golden = setup(args.workload, args.seed)
            setups = [] if args.trace else [
                fresh_setup(args.workload, args.seed, clock)
                for _ in range(SETUP_REPS)]
        except (ImportError, OSError, KeyError, ValueError,
                subprocess.TimeoutExpired) as e:
            print(f"set-up failed: {e}", file=sys.stderr)
            return 2
        if golden is None:
            print(f"# no golden recorded for seed {args.seed}: passes are "
                  "checked against each other and the oracles only")
        if args.trace:
            metrics, extra, runs, record = traced_run(mod, wl, golden,
                                                      args.seed, clock)
        else:
            metrics, extra, runs, record = untraced_run(mod, wl, golden,
                                                        args.seconds, clock)
            setup_ref = [ref for ref, _ in setups]
            setup_raw = [raw for _, raw in setups]
            metrics = {"setup_s": (stats.median(setup_ref), "s"), **metrics}
            extra = {"setup_raw_s": (stats.median(setup_raw), "s"), **extra}
            record = {"setup_walls_s": setup_ref, **record}
    meta = machine(args.workload, args.seed, args.seconds, args.trace)
    return emit(meta, metrics, extra, runs, record)


if __name__ == "__main__":
    sys.exit(main())
