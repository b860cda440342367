"""The benchmark's own tests: seeded inputs, planted wrong answers, the
percentile rule, span self times and the refusal to run without sources.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
from array import array

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import calib  # noqa: E402
import run as runner  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from synthtop.oracle import enumerate_spaces, full_mask  # noqa: E402


def test_same_seed_same_inputs_other_seed_other_sample():
    for cls, inputs in ((workloads.HyperCarriers, lambda w: w.pairs),
                        (workloads.Repair, lambda w: w.inputs)):
        assert inputs(cls(5)) == inputs(cls(5))
        assert inputs(cls(5)) != inputs(cls(6))


def test_hyper_pairs_use_every_space_equally_often():
    wl = workloads.HyperCarriers(11)
    n = len(wl.spaces)
    assert n == 35
    for side in (0, 1):
        counts = [0] * n
        for pair in wl.pairs:
            counts[pair[side]] += 1
        assert counts == [wl.PERMUTATIONS] * n


def _two_point_pair():
    """The Sierpinski space and the discrete two-point space."""
    discrete, sierpinski = enumerate_spaces(2)[:2]
    assert len(discrete.opens) == 4 and len(sierpinski.opens) == 3
    return sierpinski, discrete


def test_pair_op_passes_at_this_commit():
    run = workloads.Run(NullTracer())
    f, g = _two_point_pair()
    workloads.HyperCarriers(0).pair(run, f, g, random.Random(1))
    assert run.attempted > 100
    assert run.failed == 0


def test_planted_complemented_oracle_mask_is_a_failed_check(monkeypatch):
    real = workloads.saturate
    monkeypatch.setattr(workloads, "saturate",
                        lambda f, a: full_mask(f.n) & ~real(f, a))
    run = workloads.Run(NullTracer())
    f, g = _two_point_pair()
    workloads.HyperCarriers(0).pair(run, f, g, random.Random(1))
    assert run.failed > 0
    assert run.errors["hyper"] == run.failed


def test_planted_wrong_repair_truth_is_a_failed_check(monkeypatch):
    real = workloads.decimal_to_cauchy_direct

    def shifted(spec):
        c = real(spec)
        return type(c)(lambda n: c.level(n) + 1)

    monkeypatch.setattr(workloads, "decimal_to_cauchy_direct", shifted)
    run = workloads.Run(NullTracer())
    wl = workloads.Repair(0)
    wl.one(run, *wl.inputs[0])
    assert run.errors["reals"] >= wl.BITS


def test_golden_mismatch_and_replay_drift_are_failed_checks():
    run = workloads.Run(NullTracer())
    golden = {"steps": 10, "lines": ['{"law":"a"}', '{"law":"b"}']}
    passes = [{"steps": 10, "lines": ['{"law":"a"}', '{"law":"B"}']}]
    runner.check_replay(run, "gate", passes, golden)
    assert (run.attempted, run.failed) == (3, 1)

    run = workloads.Run(NullTracer())
    passes = [{"steps": 7, "digest": "x"}, {"steps": 8, "digest": "x"}]
    runner.check_replay(run, "repair", passes, None)
    assert (run.attempted, run.failed) == (2, 1)


def test_exception_is_charged_to_the_raising_module():
    run = workloads.Run(NullTracer())
    from synthtop.kernel import unpair
    try:
        unpair(-1)
    except ValueError as exc:
        run.fail_exception(exc)
    assert run.errors["kernel"] == 1 and run.failed == 1


def test_percentile_needs_ten_samples_beyond():
    assert stats.percentile(list(range(100)), 90) == 89
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(99)), 90)
    assert stats.percentile(list(range(20)), 50) == 9
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(19)), 50)


def test_clock_scales_by_the_probes_sampled_during_an_op():
    clock = calib.Clock()
    ref = calib.REFERENCE_PROBE_S
    clock._at[:] = array("d", [0.0, 1.0, 2.0, 3.0])
    clock._probe[:] = array("d", [ref, 2 * ref, 2 * ref, ref])
    clock._spent[:] = array("d", [0.0, 0.1, 0.2, 0.3])
    # samples at 1.0 and 2.0 fall inside: half speed, 0.2 s of sampling
    assert clock.tick(0.5, 2.5) == pytest.approx((2.0 - 0.2) / 2)
    # no sample inside: the last state seen (reference speed) holds
    assert clock.tick(3.2, 3.7) == pytest.approx(0.5)
    assert clock.raw_s == pytest.approx(1.8 + 0.5)


def test_span_self_time_subtracts_direct_children():
    tr = Tracer()
    tr.new_op()
    outer = tr.begin("bench.op")
    inner = tr.begin("hyper.section.build")
    leaf = tr.begin("sierpinski.status.section")
    tr.end(leaf)
    tr.end(inner)
    tr.end(outer)
    tr.starts[:] = [0, 10, 20]
    tr.ends[:] = [100, 50, 30]
    assert tr.self_times() == [60, 30, 10]
    assert tr.layer_self_ns() == {"bench": 60, "hyper": 30, "sierpinski": 10}
    assert tr.parents == [-1, 0, 1] and tr.ops == [1, 1, 1]


def test_refuses_to_run_without_sources():
    bare = os.path.join(BENCH, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(os.path.join(bare, "bench"))
        for name in os.listdir(BENCH):
            if name.endswith((".py", ".json", ".md")):
                shutil.copy(os.path.join(BENCH, name), os.path.join(bare, "bench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "repair", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
