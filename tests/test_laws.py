"""Planted faults in the hyper-ops-vs-oracle and galois-roundtrip suites.

Each fault makes one hyperspace operation, as the suite calls it, answer
wrongly on some carriers only, so the first counterexample lands in a
different part of the suite: the exhaustive one-space part, the product
part, the continuous-map part, or the seeded part on derived carriers
(sums and products of two spaces, which outgrow ``max_size``).  The
expected reports pin down the failure path exactly: the counterexample,
the check count at which the suite stopped and the fuel it had spent.
"""

import pytest

from synthtop import laws, oracle
from synthtop.hyper import CompactSat, OpenSet, OvertClosed
from synthtop.sierpinski import bot, top


def _n(space) -> int:
    """Carrier size of a finite represented space."""
    return space.parts[0].n


def _trace_embed(real):
    # accepts every open on two-point spaces: wrong where A misses U
    def op(a):
        w = real(a)
        if _n(a.space) != 2:
            return w
        return OpenSet(w.space, lambda upt: top())
    return op


def _filter_invert(real):
    # never inside anything on two-point spaces: trips at the first round
    # trip of a filter whose embedding checks have just passed
    def op(w):
        k = real(w)
        if _n(k.space) != 2:
            return k
        return CompactSat(k.space, lambda u: bot())
    return op


def _section(real):
    # empty slices of products of two two-point spaces
    def op(x, u):
        sec = real(x, u)
        if (_n(u.space.parts[0]), _n(u.space.parts[1])) != (2, 2):
            return sec
        return OpenSet(sec.space, lambda y: bot())
    return op


def _closed_image(real):
    # empty images of maps from a one-point into a two-point space
    def op(f, a):
        img = real(f, a)
        if (_n(f.space.parts[0]), _n(f.space.parts[1])) != (1, 2):
            return img
        return OvertClosed(img.space, lambda v: bot())
    return op


def _point_to_compact(real):
    # never inside anything on carriers with more than two points, which
    # only the seeded derived-carrier part reaches at max_size 2
    def op(x):
        k = real(x)
        if _n(x.space) <= 2:
            return k
        return CompactSat(k.space, lambda u: bot())
    return op


def _neighborhood_filter(real):
    # rejects every open at points of carriers with more than two points:
    # the first of the three point queries that make one seeded check, so
    # the other two must not run
    def op(x):
        flt = real(x)
        if _n(x.space) <= 2:
            return flt
        return OpenSet(flt.space, lambda upt: bot())
    return op


def _overt_union(real):
    # empty unions on carriers with more than two points; the sampled
    # check evaluates the intersection too before comparing
    def op(family):
        u = real(family)
        if _n(u.space) <= 2:
            return u
        return OpenSet(u.space, lambda x: bot())
    return op


def _compact_open_embed(real):
    # an empty compact-open graph for self-maps of carriers with more than
    # two points: trips after every seeded draw of its carrier
    def op(f):
        w = real(f)
        if _n(f.space.parts[0]) <= 2:
            return w
        return OpenSet(w.space, lambda p: bot())
    return op


FAULTS = {"trace_embed": _trace_embed, "filter_invert": _filter_invert,
          "section": _section,
          "closed_image": _closed_image,
          "point_to_compact": _point_to_compact,
          "neighborhood_filter": _neighborhood_filter,
          "overt_union": _overt_union,
          "compact_open_embed": _compact_open_embed}

# recorded from the suite's former hand-written checkers; the case table
# must reproduce every report byte for byte
EXPECTED = {
    "trace_embed": (
        '{"checks":185,"counterexample":{"a":[0,1],"case":"trace-embed",'
        '"space":{"n":2,"opens":[[],[0],[1],[0,1]]},"u":[]},'
        '"fuel_used":710,"instances":3,"law":"hyper-ops-vs-oracle",'
        '"passed":false}'),
    "filter_invert": (
        '{"checks":169,"counterexample":{"case":"filter-invert","got":[0,'
        '1],"k":[],"space":{"n":2,"opens":[[],[0],[1],[0,1]]}},'
        '"fuel_used":678,"instances":3,"law":"hyper-ops-vs-oracle",'
        '"passed":false}'),
    "section": (
        '{"checks":3915,"counterexample":{"case":"section",'
        '"space_x":{"n":2,"opens":[[],[0],[1],[0,1]]},"space_y":{"n":2,'
        '"opens":[[],[0],[1],[0,1]]},"w":[0],"x":0,"y":0},'
        '"fuel_used":13149,"instances":21,"law":"hyper-ops-vs-oracle",'
        '"passed":false}'),
    "closed_image": (
        '{"checks":1333,"counterexample":{"a":[0],"case":"closed-image",'
        '"f":[0],"got":[],"space_x":{"n":1,"opens":[[],[0]]},'
        '"space_y":{"n":2,"opens":[[],[0],[1],[0,1]]},"want":[0]},'
        '"fuel_used":3473,"instances":15,"law":"hyper-ops-vs-oracle",'
        '"passed":false}'),
    "point_to_compact": (
        '{"checks":1506,"counterexample":{"case":"carrier-point-ops",'
        '"space":{"n":3,"opens":[[],[0],[1],[0,1],[2],[0,2],[1,2],[0,1,'
        '2]]},"u":[0],"x":0},"fuel_used":3955,"instances":15,'
        '"law":"hyper-ops-vs-oracle","passed":false}'),
    "neighborhood_filter": (
        '{"checks":1506,"counterexample":{"case":"carrier-point-ops",'
        '"space":{"n":3,"opens":[[],[0],[1],[0,1],[2],[0,2],[1,2],[0,1,'
        '2]]},"u":[0],"x":0},"fuel_used":3953,"instances":15,'
        '"law":"hyper-ops-vs-oracle","passed":false}'),
    "overt_union": (
        '{"checks":1529,'
        '"counterexample":{"case":"carrier-union-intersection",'
        '"family":[[1],[0,1],[2],[0,2],[1,2]],"space":{"n":3,"opens":[[],'
        '[0],[1],[0,1],[2],[0,2],[1,2],[0,1,2]]},"x":0},"fuel_used":4028,'
        '"instances":15,"law":"hyper-ops-vs-oracle","passed":false}'),
    "compact_open_embed": (
        '{"checks":1811,"counterexample":{"case":"carrier-map-ops",'
        '"f":[0,1,2],"k":[],"space":{"n":3,"opens":[[],[0],[1],[0,1],[2],'
        '[0,2],[1,2],[0,1,2]]},"v":[]},"fuel_used":5219,"instances":15,'
        '"law":"hyper-ops-vs-oracle","passed":false}'),
}


@pytest.mark.parametrize("op", sorted(FAULTS))
def test_planted_fault_report_is_exact(monkeypatch, op):
    monkeypatch.setattr(laws, op, FAULTS[op](getattr(laws, op)))
    rep = laws.run_law_suite("hyper-ops-vs-oracle", 2)
    assert not rep.passed
    assert rep.stable_json() == EXPECTED[op]


def test_planted_transpose_fault_fails_the_galois_law(monkeypatch):
    # the law's point-side witness is `FinitePresubbase.transpose` as the
    # suite calls it: a transpose putting each point of a two-point carrier
    # in every member is caught on the first such carrier
    real = oracle.FinitePresubbase.transpose

    def transpose(b, x):
        t = real(b, x)
        if _n(b.carrier) != 2:
            return t
        return OpenSet(t.space, lambda y: top())

    monkeypatch.setattr(oracle.FinitePresubbase, "transpose", transpose)
    rep = laws.run_law_suite("galois-roundtrip", 2)
    assert not rep.passed
    assert rep.counterexample["case"] == "forward-input"
    assert rep.counterexample["space"]["n"] == 2
