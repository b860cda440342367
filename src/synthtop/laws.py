"""Exhaustive law suites: every kernel operation checked against the
brute-force finite oracle, plus the scheduler and exact-real checks.

Each suite is registered under a law id and returns a `LawReport`.  A
failing suite carries a replayable counterexample payload (finite-space
and subbase instances in their JSON form).  Reports are deterministic
given (max_size, fuel, seed); wall time is tracked but excluded from the
stable serialization so that identical runs are byte-identical.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import reduce
from operator import and_, or_
from types import SimpleNamespace
from typing import Callable, Optional

from . import oracle as orc
from .bases import (GaloisWitness, galois_backward, galois_forward,
                    kolmogorov_completion, presubbase_space, embed_point,
                    tau_k_open, transpose)
from .hyper import (OpenSet, box_embed, box_invert, compact_image,
                    compact_intersection, compact_open_embed,
                    compact_open_invert, compact_union, closed_image,
                    filter_embed, filter_invert, neighborhood_filter,
                    overt_project, overt_union, point_to_closed,
                    point_to_compact, product_closed, product_open, section,
                    trace_embed, trace_invert)
from .kernel import dovetail_bound, map_name
from .oracle import (FiniteSpace, FiniteSubbase, bits, budgeted, closure,
                     compact_family_of_compacts, compact_members,
                     decode_finite, enumerate_spaces, enumeration_crosscheck,
                     family_compact, family_overt, figure1_check,
                     finite_point, finite_presubbase, finite_repr, full_mask,
                     image_mask, is_T0, leaf_compact, leaf_open, leaf_overt,
                     mask_of, monotone_families, open_members, overt_members,
                     continuous_maps, product_space, saturate,
                     specialization, tau_K, up_sets)
from .sierpinski import (DEFAULT_FUEL, TALLY, accept_at, bot, or_countable,
                         read_table)
from .spaces import Point, apply_fun, fun_point, pair_point, product, read_first


@dataclass
class LawReport:
    law: str
    instances: int
    checks: int
    passed: bool
    counterexample: Optional[dict]
    fuel_used: int
    wall_ms: float

    def stable_dict(self) -> dict:
        # wall time deliberately excluded: reports must be byte-stable
        return {k: v for k, v in asdict(self).items() if k != "wall_ms"}

    def stable_json(self) -> str:
        return json.dumps(self.stable_dict(), sort_keys=True,
                          separators=(",", ":"))


class _Suite:
    """Shared bookkeeping for one suite run."""

    def __init__(self, law: str):
        self.law = law
        self.instances = 0
        self.checks = 0
        self.bad: Optional[dict] = None

    def check(self, ok: bool, payload: Callable[[], dict]) -> bool:
        self.checks += 1
        if not ok and self.bad is None:
            self.bad = payload()
        return ok

    def done(self, started: float, fuel_used: int) -> LawReport:
        return LawReport(self.law, self.instances, self.checks,
                         self.bad is None, self.bad, fuel_used,
                         (time.perf_counter() - started) * 1000.0)


def _run(law: str, body: Callable[[_Suite, int, int, int], None],
         max_size: int, fuel: int, seed: int) -> LawReport:
    s = _Suite(law)
    started = time.perf_counter()
    before = TALLY.n
    body(s, max_size, fuel, seed)
    return s.done(started, TALLY.n - before)


# ---------------------------------------------------------------------------
# Law: presubbase-representation


def _subbase_instances(max_size: int, t0_only: bool):
    """Every well-defined family over every index space with at most
    ``max_size`` points, on every carrier with at most ``max_size``."""
    for ny in range(max_size + 1):
        for ysp in enumerate_spaces(ny, t0_only=t0_only):
            order = specialization(ysp)
            for nx in range(max_size + 1):
                for fam in monotone_families(order, nx):
                    yield FiniteSubbase(nx, fam, order)


def _induced_points(sub: FiniteSubbase, tk: FiniteSpace):
    """The presubbase of a finite subbase over its carrier topology ``tk``
    (tau_K of ``sub``), the space it induces, and each carrier element as
    a point of that space."""
    b = finite_presubbase(sub, tk)
    return b, presubbase_space(b), [embed_point(b, finite_point(b.carrier, x))
                                    for x in range(sub.n)]


def law_presubbase_representation(s: _Suite, max_size: int, fuel: int, seed: int) -> None:
    """Over all T0 finite index spaces and all well-defined subbase
    families: membership semideciders of the induced representation accept
    exactly the oracle base sets, and the generated topology is T0 exactly
    when the transpose is injective."""
    for sub in _subbase_instances(max_size, t0_only=True):
        s.instances += 1
        tk = tau_K(sub)
        inj = sub.injective()
        if not s.check(is_T0(tk) == inj,
                       lambda: {"case": "t0-iff-injective", "subbase": sub.to_json()}):
            return
        if not inj:
            continue
        b, bsp, points = _induced_points(sub, tk)
        for k_mask in up_sets(sub.index_space()):
            want = reduce(and_, (sub.sets[y] for y in bits(k_mask)), full_mask(sub.n))
            u = tau_k_open(bsp, leaf_compact(b.index, k_mask))
            for x in range(sub.n):
                got = budgeted(u.chi(points[x]), fuel)
                if not s.check(got == bool(want >> x & 1), lambda: {
                        "case": "tau-k-membership", "subbase": sub.to_json(),
                        "index_set": sorted(bits(k_mask)), "x": x,
                        "expected": bool(want >> x & 1), "got": got}):
                    return
        # decode: candidates narrow to the specialization up-set
        rows = specialization(tk)
        for x in range(sub.n):
            cand = decode_finite(points[x], sub, fuel)
            if not s.check(cand == rows[x], lambda: {
                    "case": "decode-limit", "subbase": sub.to_json(), "x": x,
                    "expected": sorted(bits(rows[x])),
                    "got": sorted(bits(cand))}):
                return


# ---------------------------------------------------------------------------
# Law: hyper-ops-vs-oracle
#
# One case table and one driver.  The loops below walk the inputs and assign
# them, and the values built from them, straight onto one env ``e`` (``for
# e.x in ...``), yielding the id of each case to check there.  ``e.X`` and
# ``e.Y`` are the two sides (one side twice on a single space), and
# ``e.keys`` their keys in a counterexample.  A case names its other
# counterexample fields and gives its queries, each returning its answer and
# the oracle truth; they make one check, joined by a short-circuit `and`.


class _Side:
    """A finite space with its points, leaf opens, up-sets and closeds."""

    def __init__(self, f: FiniteSpace):
        self.f, self.sp, self.full = f, finite_repr(f), full_mask(f.n)
        self.pts = [finite_point(self.sp, x) for x in range(f.n)]
        self.los = {u: leaf_open(self.sp, u) for u in f.opens}
        self.lpts = {u: lo.as_point() for u, lo in self.los.items()}
        self.ups = up_sets(f)
        self.closeds = [self.full & ~u for u in f.opens]


def _fields(spec: str) -> Callable[[SimpleNamespace], dict]:
    """The counterexample fields named in ``spec``, read off the env: point
    indices as they are, the map as a list, masks as their elements."""
    def show(k: str, v):
        return (v if k in ("x", "y") else list(v) if k == "f"
                else [sorted(bits(m)) for m in v] if k == "family"
                else sorted(bits(v)))
    keys = spec.split()
    return lambda e: {k: show(k, getattr(e, k)) for k in keys}


_X_IN_U = lambda e: bool(e.u >> e.x & 1)
_K_IN_U = lambda e: e.k & ~e.u == 0
_POINT_OPS = (lambda e: (e.ask(e.flt.chi(e.X.lpts[e.u])), _X_IN_U(e)),
              lambda e: (e.ask(e.pc.exists_(e.X.los[e.u])), _X_IN_U(e)),
              lambda e: (e.ask(e.pk.forall_(e.X.los[e.u])), _X_IN_U(e)))
_UNION = lambda e: (open_members(
    e.X.sp, overt_union(family_overt(e.X.sp, e.unite)), e.fuel), e.union)
_INTERSECTION = lambda e: (open_members(
    e.X.sp, compact_intersection(family_compact(e.X.sp, e.meet)), e.fuel), e.inter)
_FILTER_EMBED = lambda e: (e.ask(e.emb.chi(e.X.lpts[e.u])), _K_IN_U(e))
_BOX_EMBED = lambda e: (e.ask(e.emb.chi(leaf_compact(e.X.sp, e.k).as_point())),
                        _K_IN_U(e))
_COMPACT_OPEN_EMBED = lambda e: (e.ask(e.emb.chi(pair_point(e.kpt, e.Y.lpts[e.v]))),
                                 image_mask(e.f, e.k) & ~e.v == 0)

_HYPER_CASES = {
    # (1)-(3) a point as a filter, a closed set and a compact set
    "neighborhood-filter": ("x u", _POINT_OPS[0]),
    "closed-injection": ("x u", _POINT_OPS[1]),
    "compact-injection": ("x u", _POINT_OPS[2]),
    # (9) overt union and (10) compact intersection of a family of opens,
    # and the same over its closure and its saturation
    "overt-union": ("family got", _UNION),
    "compact-intersection": ("family got", _INTERSECTION),
    "union-closure-irrelevance": ("family", _UNION),
    "intersection-saturation-irrelevance": ("family", _INTERSECTION),
    # (11) compact union of compacts
    "compact-union": ("family got want", lambda e: (compact_members(
        e.X.sp, compact_union(compact_family_of_compacts(
            e.X.sp, [leaf_compact(e.X.sp, k) for k in e.family])), e.fuel),
        saturate(e.X.f, mask_of(x for k in e.family for x in bits(k))))),
    # (12) filter, (13) trace, (14) box: agreement and round trips
    "filter-embed": ("k u", _FILTER_EMBED),
    "filter-invert": ("k got", lambda e: (
        compact_members(e.X.sp, e.back, e.fuel), e.k)),
    "trace-embed": ("a u", lambda e: (
        e.ask(e.emb.chi(e.X.lpts[e.u])), bool(e.a & e.u))),
    "trace-invert": ("a got", lambda e: (overt_members(e.X.sp, e.back, e.fuel), e.a)),
    "box-embed": ("u k", _BOX_EMBED),
    "box-invert": ("u got", lambda e: (open_members(e.X.sp, e.back, e.fuel), e.u)),
    # (6) sections, overt projection, (7) product opens, (8) product closeds
    "section": ("w x y", lambda e: (
        e.ask(e.sec.chi(e.Y.pts[e.y])), bool(e.w >> (e.x * e.Y.f.n + e.y) & 1))),
    "overt-project": ("w x", lambda e: (
        e.ask(e.proj.chi(e.X.pts[e.x])),
        any(e.w >> (e.x * e.Y.f.n + j) & 1 for j in range(e.Y.f.n)))),
    "product-open": ("u v x y", lambda e: (
        e.ask(e.pu.chi(pair_point(e.X.pts[e.x], e.Y.pts[e.y]))),
        bool(e.u >> e.x & 1) and bool(e.v >> e.y & 1))),
    "product-closed": ("a b w", lambda e: (
        e.ask(e.pv.exists_(e.wopen)), bool(e.w & e.ab))),
    # (4) compact and (5) closed images, (15) the compact-open embedding
    "compact-image": ("f k got want", lambda e: (compact_members(
        e.Y.sp, compact_image(e.fpt, leaf_compact(e.X.sp, e.k)), e.fuel),
        saturate(e.Y.f, image_mask(e.f, e.k)))),
    "closed-image": ("f a got want", lambda e: (overt_members(
        e.Y.sp, closed_image(e.fpt, leaf_overt(e.X.sp, e.a)), e.fuel),
        closure(e.Y.f, image_mask(e.f, e.a)))),
    "compact-open-embed": ("f k v", _COMPACT_OPEN_EMBED),
    "compact-open-invert": (lambda e: {"f": list(e.f), "x": e.x, "got": e.got},
                            lambda e: (read_first(apply_fun(e.inv, e.X.pts[e.x]),
                                                  DEFAULT_FUEL), e.f[e.x])),
    # the same operations on a derived carrier, per queried point or open
    "carrier-point-ops": ("x u", *_POINT_OPS),
    "carrier-union-intersection": ("x family", lambda e: (
        (e.ask(e.uni.chi(e.X.pts[e.x])), e.ask(e.cap.chi(e.X.pts[e.x]))),
        (bool(e.union >> e.x & 1), bool(e.inter >> e.x & 1)))),
    "carrier-compact-union": ("family u", lambda e: (
        e.ask(e.ku.forall_(e.X.los[e.u])), e.sat & ~e.u == 0)),
    "carrier-filter": ("k u", _FILTER_EMBED,
                       lambda e: (e.ask(e.back.forall_(e.X.los[e.u])), _K_IN_U(e))),
    "carrier-box": ("u k", _BOX_EMBED),
    "carrier-box-invert": ("u x", lambda e: (
        e.ask(e.back.chi(e.X.pts[e.x])), _X_IN_U(e))),
    "carrier-trace": ("a v",
                      lambda e: (e.ask(e.emb.chi(e.X.lpts[e.v])), bool(e.a & e.v)),
                      lambda e: (e.ask(e.back.exists_(e.X.los[e.v])), bool(e.a & e.v))),
    "carrier-map-ops": ("f k v",
                        lambda e: (e.ask(e.img.forall_(e.Y.los[e.v])),
                                   image_mask(e.f, e.k) & ~e.v == 0),
                        lambda e: (e.ask(e.acl.exists_(e.Y.los[e.v])),
                                   bool(image_mask(e.f, e.X.full & ~e.k) & e.v)),
                        _COMPACT_OPEN_EMBED),
}
_HYPER_CASES = {case: (_fields(row[0]) if isinstance(row[0], str) else row[0],
                       row[1:]) for case, row in _HYPER_CASES.items()}


def law_hyper_ops(s: _Suite, max_size: int, fuel: int, seed: int) -> None:
    """The hyperspace operations against set-theoretic truth."""
    e = SimpleNamespace(fuel=fuel, ask=lambda v: budgeted(v, fuel))
    for case in _hyper_inputs(s, e, max_size, seed):
        fields, queries = _HYPER_CASES[case]
        ok = True
        for query in queries:
            e.got, e.want = query(e)
            if e.got != e.want:
                ok = False
                break
        if not s.check(ok, lambda: {"case": case, **fields(e), **dict(zip(
                e.keys, (e.X.f.to_json(), e.Y.f.to_json())))}):
            return


def _hyper_inputs(s: _Suite, e: SimpleNamespace, max_size: int, seed: int):
    """Each space, then each pair of spaces with its product and sum as
    derived carriers; one instance per space and per pair."""
    sides = [_Side(f) for n in range(max_size + 1) for f in enumerate_spaces(n)]
    for x in sides:
        s.instances += 1
        e.X, e.Y, e.keys = x, x, ("space",)
        yield from _one_space(e, x)
    rng = random.Random(seed + 7)
    for x in sides:
        for y in sides:
            s.instances += 1
            e.X, e.Y, e.keys = x, y, ("space_x", "space_y")
            yield from _two_spaces(e, x, y)
            # seeded samples where the open-set lattice outgrows the budget
            for h in (product_space(x.f, y.f), orc.coproduct_space(x.f, y.f)):
                e.X = e.Y = c = _Side(h)
                e.keys = ("space",)
                yield from _derived_carrier(e, c, rng)


def _one_space(e: SimpleNamespace, c: _Side):
    yield from _point_ops(e, c.f.opens, ("neighborhood-filter",
                                         "closed-injection", "compact-injection"))
    opens = list(c.f.opens)
    for e.family in _subfamilies(opens):
        e.union, e.inter = reduce(or_, e.family, 0), reduce(and_, e.family, c.full)
        e.unite = e.meet = [c.los[u] for u in e.family]
        yield from ("overt-union", "compact-intersection")
        e.unite = [c.los[u] for u in opens if any(u & ~v == 0 for v in e.family)]
        e.meet = [c.los[u] for u in opens if any(v & ~u == 0 for v in e.family)]
        yield from ("union-closure-irrelevance", "intersection-saturation-irrelevance")
    yield from ("compact-union" for e.family in _subfamilies(c.ups))
    yield from _filters(e, c.ups, c.f.opens, "filter-embed", ("filter-invert",))
    for e.a in c.closeds:
        e.emb = trace_embed(leaf_overt(c.sp, e.a))
        e.back = trace_invert(e.emb)
        yield from ("trace-embed" for e.u in c.f.opens)
        yield "trace-invert"
    for e.u in c.f.opens:
        e.emb = box_embed(c.los[e.u])
        e.back = box_invert(e.emb)
        yield from ("box-embed" for e.k in c.ups)
        yield "box-invert"


def _two_spaces(e: SimpleNamespace, x: _Side, y: _Side):
    wopens = {w: _product_leaf_open(x.sp, y.sp, y.f.n, w)
              for w in product_space(x.f, y.f).opens}
    for e.w, e.wopen in wopens.items():
        for e.x in range(x.f.n):
            e.sec = section(x.pts[e.x], e.wopen)
            yield from ("section" for e.y in range(y.f.n))
        e.proj = overt_project(e.wopen)
        yield from ("overt-project" for e.x in range(x.f.n))
    for e.u in x.f.opens:
        for e.v in y.f.opens:
            e.pu = product_open(x.los[e.u], y.los[e.v])
            yield from ("product-open" for e.x in range(x.f.n)
                        for e.y in range(y.f.n))
    for e.a in x.closeds:
        for e.b in y.closeds:
            e.pv = product_closed(leaf_overt(x.sp, e.a), leaf_overt(y.sp, e.b))
            e.ab = reduce(or_, (e.b << i * y.f.n for i in bits(e.a)), 0)
            yield from ("product-closed" for e.w, e.wopen in wopens.items())
    for e.f in continuous_maps(x.f, y.f):
        e.fpt = _map_point(x.sp, y.sp, e.f)
        yield from ("compact-image" for e.k in x.ups)
        yield from ("closed-image" for e.a in x.closeds)
        e.emb = compact_open_embed(e.fpt)
        for e.k in x.ups:
            e.kpt = leaf_compact(x.sp, e.k).as_point()
            yield from ("compact-open-embed" for e.v in y.f.opens)
        # the inverse needs the codomain's Kolmogorov witness, which a
        # finite space carries exactly when it is T0
        if y.f.n > 0 and y.sp.filter_inverse is not None:
            e.inv = compact_open_invert(e.emb, e.fuel)
            yield from ("compact-open-invert" for e.x in range(x.f.n))


def _derived_carrier(e: SimpleNamespace, c: _Side, rng: random.Random):
    opens = _sample(rng, c.f.opens, 12, keep=(0, c.full))
    ups = _sample(rng, c.ups, 12, keep=(0, c.full))
    yield from _point_ops(e, opens, ("carrier-point-ops",))
    for _ in range(6):
        e.family = [u for u in opens if rng.random() < 0.5]
        e.union, e.inter = reduce(or_, e.family, 0), reduce(and_, e.family, c.full)
        members = [c.los[u] for u in e.family]
        e.uni = overt_union(family_overt(c.sp, members))
        e.cap = compact_intersection(family_compact(c.sp, members))
        yield from ("carrier-union-intersection" for e.x in range(c.f.n))
        e.family = [k for k in ups if rng.random() < 0.5]
        e.sat = saturate(c.f, mask_of(x for k in e.family for x in bits(k)))
        e.ku = compact_union(compact_family_of_compacts(
            c.sp, [leaf_compact(c.sp, k) for k in e.family]))
        yield from ("carrier-compact-union" for e.u in opens)
    yield from _filters(e, ups, opens, "carrier-filter", ())
    for e.u in opens:
        e.emb = box_embed(c.los[e.u])
        e.back = box_invert(e.emb)
        yield from ("carrier-box" for e.k in ups)
        yield from ("carrier-box-invert" for e.x in range(c.f.n))
        e.a = c.full & ~e.u
        e.emb = trace_embed(leaf_overt(c.sp, e.a))
        e.back = trace_invert(e.emb)
        yield from ("carrier-trace" for e.v in opens)
    for e.f in _self_maps(rng, c.f):
        e.fpt = _map_point(c.sp, c.sp, e.f)
        e.emb = compact_open_embed(e.fpt)
        for e.k in ups[:6]:
            e.kpt = leaf_compact(c.sp, e.k).as_point()
            e.img = compact_image(e.fpt, leaf_compact(c.sp, e.k))
            # any generator works; the value denotes its closure
            e.acl = closed_image(e.fpt, leaf_overt(c.sp, c.full & ~e.k))
            yield from ("carrier-map-ops" for e.v in opens[:6])


def _point_ops(e: SimpleNamespace, opens, cases: tuple):
    for e.x in range(e.X.f.n):
        p = e.X.pts[e.x]
        e.flt, e.pc, e.pk = (neighborhood_filter(p), point_to_closed(p),
                             point_to_compact(p))
        for e.u in opens:
            yield from cases


def _filters(e: SimpleNamespace, ups, opens, case: str, then: tuple):
    for e.k in ups:
        e.emb = filter_embed(leaf_compact(e.X.sp, e.k))
        e.back = filter_invert(e.emb)
        yield from (case for e.u in opens)
        yield from then


def _subfamilies(items: list) -> list:
    return [[m for i, m in enumerate(items) if pick >> i & 1]
            for pick in range(1 << len(items))]


def _sample(rng: random.Random, items: tuple, cap: int, keep=()):
    if len(items) <= cap:
        return items
    picked = set(rng.sample(range(len(items)), cap))
    out = [x for i, x in enumerate(items) if i in picked]
    return out + [k for k in dict.fromkeys(keep) if k not in out]


def _self_maps(rng: random.Random, h: FiniteSpace) -> list:
    """The identity and up to two seeded monotone self-maps."""
    maps, rows = [tuple(range(h.n))], specialization(h)
    for _ in range(12 if h.n else 0):
        cand = tuple(rng.randrange(h.n) for _ in range(h.n))
        if cand not in maps and all(
                not (rows[i] >> j & 1) or (rows[cand[i]] >> cand[j] & 1)
                for i in range(h.n) for j in range(h.n)):
            maps.append(cand)
        if len(maps) == 3:
            return maps
    return maps


def _product_leaf_open(spx, spy, g_n: int, mask: int) -> OpenSet:
    """An arbitrary subset of a product carrier as a membership
    semidecider: read both coordinates, then decide."""
    member = lambda i, j: mask >> (i * g_n + j) & 1
    return OpenSet(product(spx, spy), lambda p: read_table(
        (p.payload[0].payload, p.payload[1].payload), member))


def _map_point(spx, spy, fmap) -> Point:
    """A finite map as a function point: an image is the argument's name
    mapped through the table (`map_name`)."""
    return fun_point(spx, spy, lambda p: Point(spy, map_name(p.payload, fmap)))


# ---------------------------------------------------------------------------
# Law: figure1-chain


_FIGURE1_CASES = (("chain", "chain_ok"), ("sequential-collapse", "inf_equals_K"),
                  ("final", "final_equals_tau_K"),
                  ("t0-iff-injective", "t0_iff_injective"))


def law_figure1(s: _Suite, max_size: int, fuel: int, seed: int) -> None:
    """Inclusion chain of the four topologies induced by a presubbase, the
    finite-instance equalities, and discrete-order collapse."""
    for sub in _subbase_instances(max_size, t0_only=False):
        s.instances += 1
        rep = figure1_check(sub)
        if not s.check(rep["well_defined"],
                       lambda: {"case": "well-defined", "subbase": sub.to_json()}):
            return
        cases = _FIGURE1_CASES + ((("discrete-collapse", "all_equal"),)
                                  if rep["discrete_order"] else ())
        for case, key in cases:
            if not s.check(rep[key], lambda: {"case": case, "subbase": sub.to_json(),
                                              **rep}):
                return


# ---------------------------------------------------------------------------
# Law: galois-roundtrip


def _galois_instances(max_carrier: int):
    """All pairs of a T0 finite carrier topology and a family of one or two
    of its opens over a discrete index: exactly the finite instances on
    which the representation refines the induced one."""
    for nx in range(max_carrier + 1):
        for f in enumerate_spaces(nx, t0_only=True):
            for m in (1, 2):
                for fam in itertools.product(f.opens, repeat=m):
                    yield f, fam


def _rep_to_base_witness(f: FiniteSpace, fam: tuple) -> GaloisWitness:
    """The canonical point-side witness: a point's transpose (`transpose`)
    in the finite presubbase of ``fam`` over a discrete index, with
    carrier topology ``f``."""
    iorder = tuple(1 << y for y in range(len(fam)))
    b = finite_presubbase(FiniteSubbase(f.n, fam, iorder), f)
    return GaloisWitness("rep_to_base", b.carrier, b.index,
                         lambda x: transpose(b, x))


def _validate_rep_to_base(w: GaloisWitness, f: FiniteSpace, fam: tuple,
                          rng: random.Random, samples: int, fuel: int) -> bool:
    """Check the translator's denotation on sampled delayed names."""
    if not f.n:
        return True
    for _ in range(samples):
        x = rng.randrange(f.n)
        xp = finite_point(w.x_space, x, delay=rng.randrange(4))
        tx = w.translator(xp)
        if not fam:
            continue
        y = rng.randrange(len(fam))
        yp = finite_point(w.y_space, y, delay=rng.randrange(4))
        want = bool(fam[y] >> x & 1)
        if budgeted(tx.chi(yp), fuel) != want:
            return False
    return True


def _validate_base_to_rep(w: GaloisWitness, f: FiniteSpace, fam: tuple,
                          rng: random.Random, samples: int, fuel: int) -> bool:
    """The family-side witness must produce genuine opens of the carrier
    topology with the right members."""
    for _ in range(samples):
        if not fam:
            return True
        y = rng.randrange(len(fam))
        yp = finite_point(w.y_space, y, delay=rng.randrange(4))
        u = w.translator(yp)
        got = open_members(w.x_space, u, fuel)
        if got != fam[y] or got not in f.opens:
            return False
    return True


def law_galois(s: _Suite, max_size: int, fuel: int, seed: int) -> None:
    rng = random.Random(seed)
    samples = 100
    for f, fam in _galois_instances(min(max_size, 2)):
        s.instances += 1
        t = _rep_to_base_witness(f, fam)
        if not s.check(
                _validate_rep_to_base(t, f, fam, rng, samples, fuel),
                _galois_case("forward-input", f, fam)):
            return
        u = galois_forward(t)
        if not s.check(
                _validate_base_to_rep(u, f, fam, rng, samples, fuel),
                _galois_case("forward-output", f, fam)):
            return
        t2 = galois_backward(u)
        if not s.check(
                _validate_rep_to_base(t2, f, fam, rng, samples, fuel),
                _galois_case("roundtrip", f, fam)):
            return

    # planted non-reduction: a family member that is not open in the
    # carrier topology must be flagged by validation
    s.instances += 1
    f = orc.make_space(2, [0, 0b10, 0b11])
    fam = (0b01,)  # {0} is not open here
    t = _rep_to_base_witness(f, fam)
    u = galois_forward(t)
    flagged = not _validate_base_to_rep(u, f, fam, rng, 20, fuel)
    s.check(flagged, _galois_case("planted-non-reduction-not-flagged", f, fam))


def _galois_case(case: str, f: FiniteSpace, fam: tuple) -> Callable[[], dict]:
    return lambda: {"case": case, "space": f.to_json(),
                    "family": [sorted(bits(b)) for b in fam]}


# ---------------------------------------------------------------------------
# Law: completion-idempotence


def law_completion(s: _Suite, max_size: int, fuel: int, seed: int) -> None:
    for n in range(max_size + 1):
        for f in enumerate_spaces(n, t0_only=True):
            s.instances += 1
            sp = finite_repr(f)
            comp = kolmogorov_completion(sp)
            comp2 = kolmogorov_completion(comp.space)
            for u in f.opens:
                u1 = comp.open_back(leaf_open(sp, u))
                u2 = comp2.open_back(u1)
                for x in range(f.n):
                    x1 = comp.forward(finite_point(sp, x))
                    x2 = comp2.forward(x1)
                    want = bool(u >> x & 1)
                    got1 = budgeted(u1.chi(x1), fuel)
                    got2 = budgeted(u2.chi(x2), fuel)
                    if not s.check(got1 == want and got2 == want and got1 == got2,
                                   lambda: {"case": "double-completion",
                                            "space": f.to_json(),
                                            "u": sorted(bits(u)), "x": x,
                                            "once": got1, "twice": got2}):
                        return

    # base completion: completing twice adds no new range sets, and the
    # completion of the point-open family is a base of the Scott topology
    for sub in _subbase_instances(min(max_size, 2), t0_only=True):
        if not sub.injective():
            continue
        s.instances += 1
        tk = tau_K(sub)
        got = _base_completion_range(sub, tk, fuel)
        if not s.check(got == set(tk.opens), lambda: {
                "case": "base-completion-range", "subbase": sub.to_json(),
                "got": sorted(sorted(bits(u)) for u in got),
                "want": sorted(sorted(bits(u)) for u in tk.opens)}):
            return
        # a second completion of the induced space is extensionally inert:
        # every base open agrees on forwarded points
        b, bsp, points = _induced_points(sub, tk)
        comp = kolmogorov_completion(bsp)
        for k_mask in up_sets(sub.index_space()):
            u = tau_k_open(bsp, leaf_compact(b.index, k_mask))
            u2 = comp.open_back(u)
            for x in range(sub.n):
                once = budgeted(u.chi(points[x]), fuel)
                twice = budgeted(u2.chi(comp.forward(points[x])), fuel)
                if not s.check(once == twice, lambda: {
                        "case": "induced-space-recompletion",
                        "subbase": sub.to_json(),
                        "index_set": sorted(bits(k_mask)), "x": x}):
                    return

    for n in range(min(max_size, 3) + 1):
        for f in enumerate_spaces(n):
            s.instances += 1
            # the point-membership family, indexed by the space itself,
            # generates the Scott topology (up-sets of inclusion) on opens
            opens_list = list(f.opens)
            order = specialization(f)
            sets = tuple(mask_of(i for i, u in enumerate(opens_list)
                                 if u >> x & 1) for x in range(f.n))
            usub = FiniteSubbase(len(opens_list), sets, order)
            got = set(tau_K(usub).opens)
            incl_rows = tuple(mask_of(j for j, v in enumerate(opens_list)
                                      if opens_list[i] & ~v == 0)
                              for i in range(len(opens_list)))
            scott = set(orc.topology_from_preorder(incl_rows).opens)
            if not s.check(got == scott, lambda: {
                    "case": "point-open-to-scott", "space": f.to_json()}):
                return


def _base_completion_range(sub: FiniteSubbase, tk: FiniteSpace,
                           fuel: int) -> set[int]:
    """Denotations of the members of the completed base: every open of the
    induced space, read back as a carrier subset.  Completing once already
    exhausts the generated topology, so completing twice adds nothing; we
    verify by checking the range equals tau_K exactly (and hence is a
    fixed point of completion).  ``tk`` is tau_K of ``sub``."""
    b, bsp, points = _induced_points(sub, tk)
    out = {0, full_mask(sub.n)}
    for k_mask in up_sets(sub.index_space()):
        u = tau_k_open(bsp, leaf_compact(b.index, k_mask))
        out.add(mask_of(x for x in range(sub.n)
                        if budgeted(u.chi(points[x]), fuel)))
    # close under union/intersection: the identity base of the induced
    # space realizes every open the base sets generate
    return set(orc.generate_topology(list(out), sub.n).opens)


# ---------------------------------------------------------------------------
# Law: decimal-repair


def law_decimal_repair(s: _Suite, max_size: int, fuel: int, seed: int) -> None:
    from .reals import (decimal_point, decimal_to_cauchy_direct,
                        interval_open_decimal, parse_decimal, repair_decimal)

    bits_depth = 20
    for text in ("0.5", "0.3(3)", "0.142857(142857)", "0.9(9)"):
        s.instances += 1
        spec = parse_decimal(text)
        d = decimal_point(spec)
        direct = decimal_to_cauchy_direct(spec)
        levels = repair_decimal(d, bits_depth, fuel=fuel)
        for k, q in enumerate(levels, start=1):
            tol = Fraction(2) ** (-(k - 1))
            delta = abs(q - direct.level(k))
            if not s.check(delta <= tol, lambda: {
                    "case": "repair-delta", "input": text, "level": k,
                    "delta": str(delta), "tol": str(tol)}):
                return
        deepest = abs(levels[-1] - direct.level(bits_depth))
        if not s.check(deepest <= Fraction(2) ** (-(bits_depth - 1)),
                       lambda: {"case": "repair-deepest", "input": text,
                                "delta": str(deepest)}):
            return

    # boundary divergence: 1/3 against (1/3, 1) stays pending at full fuel
    s.instances += 1
    spec = parse_decimal("0.3(3)")
    d = decimal_point(spec)
    u = interval_open_decimal(Fraction(1, 3), Fraction(1))
    st = u.chi(d).status(fuel)
    s.check(st is None, lambda: {"case": "boundary", "status": st})


# ---------------------------------------------------------------------------
# Law: scheduler-fairness


def law_scheduler(s: _Suite, max_size: int, fuel: int, seed: int) -> None:
    """Planted acceptors land exactly on the schedule bound (the top index
    scales with max_size, reaching 10^4 at the acceptance size), and
    seeded report rendering is byte-stable."""
    rng = random.Random(seed)
    big = 10 ** min(4, max_size + 1)
    cases = [(big, 3)]
    for _ in range(3):
        cases.append((rng.randrange(1, max(2, big // 4)),
                      rng.randrange(1, 1000)))
    for idx, k in cases:
        s.instances += 1
        v = or_countable(lambda i, _idx=idx, _k=k:
                         accept_at(_k) if i == _idx else bot())
        want = dovetail_bound(idx, k)
        got = v.status(want + 1)
        if not s.check(got == want, lambda: {"case": "planted-acceptor",
                                             "index": idx, "accept_step": k,
                                             "got": got, "bound": want}):
            return

    # byte-identical reports across two runs with the same seed
    s.instances += 1
    def render() -> str:
        return "\n".join(
            run_law_suite(law, max_size=2, fuel=fuel, seed=seed).stable_json()
            for law in ("enumeration-crosscheck", "figure1-chain"))

    s.check(render() == render(), lambda: {"case": "report-stability"})


# ---------------------------------------------------------------------------
# Law: enumeration-crosscheck


def law_enumeration(s: _Suite, max_size: int, fuel: int, seed: int) -> None:
    for n in range(min(max_size + 1, orc.MAX_EXHAUSTIVE) + 1):
        s.instances += 1
        rep = enumeration_crosscheck(n)
        ok = (rep["topologies_closure"] == rep["topologies_preorders"]
              and rep["t0_closure"] == rep["t0_posets"]
              and rep["bijection_ok"])
        if not s.check(ok, lambda: {"case": "counts", **rep}):
            return


# ---------------------------------------------------------------------------
# Registry


LAWS: dict[str, Callable] = {
    "presubbase-representation": law_presubbase_representation,
    "hyper-ops-vs-oracle": law_hyper_ops,
    "figure1-chain": law_figure1,
    "galois-roundtrip": law_galois,
    "completion-idempotence": law_completion,
    "decimal-repair": law_decimal_repair,
    "scheduler-fairness": law_scheduler,
    "enumeration-crosscheck": law_enumeration,
}


def run_law_suite(law: str, max_size: int = 3, fuel: int = DEFAULT_FUEL,
                  seed: int = 0) -> LawReport:
    """Run one registered law suite and return its report."""
    body = LAWS.get(law)
    if body is None:
        raise KeyError(f"unknown law {law!r}; known: {', '.join(sorted(LAWS))}")
    return _run(law, body, max_size, fuel, seed)
