"""Acceptance gate: one test per criterion, at full stated size and
tolerance, each printing a single pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or via the CLI:
``synthtop verify --laws all --max-size 3``).
"""

import json
import time
from pathlib import Path

from synthtop.laws import run_law_suite

FUEL = 10 ** 6  # default step budget per semidecision query

# the stdout of `synthtop verify --laws all --max-size 3` (fuel 10^6, seed
# 0): one byte-stable report per law, keyed here by law id
GOLDEN = {json.loads(line)["law"]: line for line in
          (Path(__file__).parent / "golden" / "verify_all_max_size_3.jsonl")
          .read_text().splitlines()}


def _criterion(n, law, max_size, seed=0, budget_s=None, min_instances=None):
    started = time.perf_counter()
    rep = run_law_suite(law, max_size=max_size, fuel=FUEL, seed=seed)
    elapsed = time.perf_counter() - started
    ok = rep.passed
    if min_instances is not None:
        ok = ok and rep.instances >= min_instances
    if budget_s is not None:
        ok = ok and elapsed <= budget_s
    print(f"ACCEPTANCE {n} [{law}] "
          f"{'PASS' if ok else 'FAIL'} "
          f"({rep.instances} instances, {rep.checks} checks, {elapsed:.1f}s)")
    assert rep.passed, rep.counterexample
    assert rep.stable_json() == GOLDEN[law]
    if min_instances is not None:
        assert rep.instances >= min_instances, rep.instances
    if budget_s is not None:
        assert elapsed <= budget_s, f"{elapsed:.1f}s over budget {budget_s}s"


def test_criterion_1_presubbase_representation_suite():
    # all T0 index spaces |Y| <= 3, all carriers |X| <= 3, all well-defined
    # families: semideciders match the base sets; T0 iff injective
    _criterion(1, "presubbase-representation", max_size=3, budget_s=300)


def test_criterion_2_hyperspace_operations_suite():
    # the fifteen operations against set-theoretic truth on all spaces
    # with <= 3 points and their pairwise products/coproducts, including
    # the saturation-irrelevance identities
    _criterion(2, "hyper-ops-vs-oracle", max_size=3, budget_s=600)


def test_criterion_3_topology_chain():
    # subbase/convergence/compact topologies nest, the finite stand-in for
    # the final topology agrees, and all collapse under a discrete order
    _criterion(3, "figure1-chain", max_size=3)


def test_criterion_4_galois_connection():
    # >= 50 enumerated instances, witnesses validated on >= 100 sampled
    # names each, one planted non-reduction flagged
    _criterion(4, "galois-roundtrip", max_size=3, min_instances=51)


def test_criterion_5_completion_idempotence():
    # re-representing by neighborhood filters changes nothing extensionally
    # and is idempotent; completed bases are fixed points at oracle scale
    _criterion(5, "completion-idempotence", max_size=3)


def test_criterion_6_decimal_repair():
    # 0.5, 0.3(3), 0.142857(142857), 0.9(9) at 20 bits under default fuel;
    # boundary query pends at the full budget
    _criterion(6, "decimal-repair", max_size=3)


def test_criterion_7_scheduler_properties():
    # planted acceptors up to index 10^4 land exactly on the schedule
    # bound; reports are byte-identical across seeded runs
    _criterion(7, "scheduler-fairness", max_size=3)


def test_criterion_8_enumeration_crosscheck():
    # labeled topology and T0 counts for n <= 4 agree between the
    # closure-family and preorder/poset enumerators
    _criterion(8, "enumeration-crosscheck", max_size=3)
