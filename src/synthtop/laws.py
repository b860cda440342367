"""Exhaustive law suites: every kernel operation checked against the
brute-force finite oracle, plus the scheduler and exact-real checks.

Each suite is registered under a law id and returns a `LawReport`.  A
failing suite carries a replayable counterexample payload (finite-space
and subbase instances in their JSON form).  Reports are deterministic
given (max_size, fuel, seed); wall time is tracked but excluded from the
stable serialization so that identical runs are byte-identical.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import oracle as orc
from .bases import (GaloisWitness, galois_backward, galois_forward,
                    kolmogorov_completion, presubbase_space, embed_point,
                    tau_k_open)
from .hyper import (OpenSet, box_embed, box_invert, compact_image,
                    compact_intersection, compact_open_embed,
                    compact_open_invert, compact_union, closed_image,
                    filter_embed, filter_invert, neighborhood_filter,
                    overt_project, overt_union, point_to_closed,
                    point_to_compact, product_closed, product_open, section,
                    trace_embed, trace_invert)
from .kernel import Name, NameReader, dovetail_bound
from .oracle import (FiniteSpace, FiniteSubbase, bits, budgeted, closure,
                     compact_family_of_compacts, compact_members,
                     decode_finite, enumerate_spaces, enumeration_crosscheck,
                     family_compact, family_overt, figure1_check,
                     finite_point, finite_presubbase, finite_repr, full_mask,
                     image_mask, is_T0, leaf_compact, leaf_open, leaf_overt,
                     mask_of, monotone_families, open_members, overt_members,
                     continuous_maps, product_space, saturate,
                     specialization, tau_K, up_sets)
from .sierpinski import (DEFAULT_FUEL, SValue, TALLY, accept_at, bot,
                         or_countable, read_table)
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
        return {
            "law": self.law,
            "instances": self.instances,
            "checks": self.checks,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "fuel_used": self.fuel_used,
        }

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


def _subbase_instances(max_index: int, max_carrier: int, t0_only: bool):
    for ny in range(max_index + 1):
        for ysp in enumerate_spaces(ny, t0_only=t0_only):
            order = specialization(ysp)
            for nx in range(max_carrier + 1):
                for fam in monotone_families(order, nx):
                    yield FiniteSubbase(nx, fam, order)


def law_presubbase_representation(s: _Suite, max_size: int, fuel: int, seed: int) -> None:
    """Over all T0 finite index spaces and all well-defined subbase
    families: membership semideciders of the induced representation accept
    exactly the oracle base sets, and the generated topology is T0 exactly
    when the transpose is injective."""
    for sub in _subbase_instances(max_size, max_size, t0_only=True):
        s.instances += 1
        tk = tau_K(sub)
        inj = sub.injective()
        if not s.check(is_T0(tk) == inj,
                       lambda: {"case": "t0-iff-injective", "subbase": sub.to_json()}):
            return
        if not inj:
            continue
        b = finite_presubbase(sub)
        bsp = presubbase_space(b)
        isp = b.index
        csp = b.carrier
        points = [embed_point(b, finite_point(csp, x)) for x in range(sub.n)]
        for k_mask in up_sets(sub.index_space()):
            want = full_mask(sub.n)
            for y in bits(k_mask):
                want &= sub.sets[y]
            u = tau_k_open(bsp, leaf_compact(isp, k_mask))
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


def _space_points(f: FiniteSpace):
    sp = finite_repr(f)
    pts = [finite_point(sp, e) for e in range(f.n)]
    los = {u: leaf_open(sp, u) for u in f.opens}
    return sp, pts, los


def law_hyper_ops(s: _Suite, max_size: int, fuel: int, seed: int) -> None:
    spaces = [f for n in range(max_size + 1) for f in enumerate_spaces(n)]

    for f in spaces:
        s.instances += 1
        if not _hyper_unary(s, f, fuel):
            return
    rng = random.Random(seed + 7)
    for f in spaces:
        for g in spaces:
            s.instances += 1
            if not _hyper_pair(s, f, g, fuel):
                return
            if not _hyper_maps(s, f, g, fuel):
                return
            # the operations also live on the derived carriers themselves;
            # exhaustive where small, seeded samples where the open-set
            # lattice outgrows the budget
            for h in (product_space(f, g), orc.coproduct_space(f, g)):
                if not _hyper_on_carrier(s, h, fuel, rng):
                    return


def _hyper_unary(s: _Suite, f: FiniteSpace, fuel: int) -> bool:
    sp, pts, los = _space_points(f)
    ups = up_sets(f)
    closeds = [full_mask(f.n) & ~u for u in f.opens]
    ce = lambda case, **kw: {"case": case, "space": f.to_json(), **kw}

    # (1) neighborhood map, (2) closed injection, (3) compact injection
    for x in range(f.n):
        flt = neighborhood_filter(pts[x])
        pc = point_to_closed(pts[x])
        pk = point_to_compact(pts[x])
        for u in f.opens:
            inu = bool(u >> x & 1)
            if not s.check(budgeted(flt.chi(los[u].as_point()), fuel) == inu,
                           lambda: ce("neighborhood-filter", x=x, u=sorted(bits(u)))):
                return False
            if not s.check(budgeted(pc.exists_(los[u]), fuel) == inu,
                           lambda: ce("closed-injection", x=x, u=sorted(bits(u)))):
                return False
            if not s.check(budgeted(pk.forall_(los[u]), fuel) == inu,
                           lambda: ce("compact-injection", x=x, u=sorted(bits(u)))):
                return False

    # (9) overt union / (10) compact intersection over every family of opens
    opens_list = list(f.opens)
    for pick in range(1 << len(opens_list)):
        fam = [opens_list[i] for i in range(len(opens_list)) if pick >> i & 1]
        union_mask = 0
        inter_mask = full_mask(f.n)
        for u in fam:
            union_mask |= u
            inter_mask &= u
        members = [los[u] for u in fam]
        got_u = open_members(sp, overt_union(family_overt(sp, members)), fuel)
        if not s.check(got_u == union_mask,
                       lambda: ce("overt-union", family=[sorted(bits(u)) for u in fam],
                                  got=sorted(bits(got_u)))):
            return False
        got_i = open_members(sp, compact_intersection(family_compact(sp, members)), fuel)
        if not s.check(got_i == inter_mask,
                       lambda: ce("compact-intersection",
                                  family=[sorted(bits(u)) for u in fam],
                                  got=sorted(bits(got_i)))):
            return False
        # saturation irrelevance: union over the closure, intersection over
        # the saturation of the family (in the open-set lattice)
        down = [los[u] for u in opens_list if any(u & ~v == 0 for v in fam)]
        got_cl = open_members(sp, overt_union(family_overt(sp, down)), fuel)
        if not s.check(got_cl == union_mask,
                       lambda: ce("union-closure-irrelevance",
                                  family=[sorted(bits(u)) for u in fam])):
            return False
        up = [los[u] for u in opens_list if any(v & ~u == 0 for v in fam)]
        got_sat = open_members(sp, compact_intersection(family_compact(sp, up)), fuel)
        if not s.check(got_sat == inter_mask,
                       lambda: ce("intersection-saturation-irrelevance",
                                  family=[sorted(bits(u)) for u in fam])):
            return False

    # (11) compact union of compacts, over every family of up-sets
    for pick in range(1 << len(ups)):
        fam = [ups[i] for i in range(len(ups)) if pick >> i & 1]
        want = saturate(f, mask_of(e for k in fam for e in bits(k)))
        kk = compact_family_of_compacts(sp, [leaf_compact(sp, k) for k in fam])
        got = compact_members(sp, compact_union(kk), fuel)
        if not s.check(got == want,
                       lambda: ce("compact-union", family=[sorted(bits(k)) for k in fam],
                                  got=sorted(bits(got)), want=sorted(bits(want)))):
            return False

    # (12) filter, (13) trace, (14) box: agreement and round-trips
    for k_mask in ups:
        kv = leaf_compact(sp, k_mask)
        w = filter_embed(kv)
        for u in f.opens:
            want = k_mask & ~u == 0
            if not s.check(budgeted(w.chi(los[u].as_point()), fuel) == want,
                           lambda: ce("filter-embed", k=sorted(bits(k_mask)),
                                      u=sorted(bits(u)))):
                return False
        back = compact_members(sp, filter_invert(w), fuel)
        if not s.check(back == k_mask,
                       lambda: ce("filter-invert", k=sorted(bits(k_mask)),
                                  got=sorted(bits(back)))):
            return False
    for a_mask in closeds:
        av = leaf_overt(sp, a_mask)
        w = trace_embed(av)
        for u in f.opens:
            want = bool(a_mask & u)
            if not s.check(budgeted(w.chi(los[u].as_point()), fuel) == want,
                           lambda: ce("trace-embed", a=sorted(bits(a_mask)),
                                      u=sorted(bits(u)))):
                return False
        back = overt_members(sp, trace_invert(w), fuel)
        if not s.check(back == a_mask,
                       lambda: ce("trace-invert", a=sorted(bits(a_mask)),
                                  got=sorted(bits(back)))):
            return False
    for u in f.opens:
        w = box_embed(los[u])
        for k_mask in ups:
            want = k_mask & ~u == 0
            if not s.check(
                    budgeted(w.chi(leaf_compact(sp, k_mask).as_point()), fuel) == want,
                    lambda: ce("box-embed", u=sorted(bits(u)), k=sorted(bits(k_mask)))):
                return False
        back = open_members(sp, box_invert(w), fuel)
        if not s.check(back == u,
                       lambda: ce("box-invert", u=sorted(bits(u)),
                                  got=sorted(bits(back)))):
            return False
    return True


def _product_leaf_open(spx, spy, g_n: int, mask: int) -> OpenSet:
    """An arbitrary subset of a product carrier as a membership
    semidecider: read both coordinates, then decide."""

    def member(i: int, j: int) -> int:
        return mask >> (i * g_n + j) & 1

    def chi(p: Point) -> SValue:
        xp, yp = p.payload
        return read_table((xp.payload, yp.payload), member)

    return OpenSet(product(spx, spy), chi)


def _hyper_pair(s: _Suite, f: FiniteSpace, g: FiniteSpace, fuel: int) -> bool:
    spx, ptsx, losx = _space_points(f)
    spy, ptsy, losy = _space_points(g)
    fg = product_space(f, g)
    ce = lambda case, **kw: {"case": case, "space_x": f.to_json(),
                             "space_y": g.to_json(), **kw}

    prod_opens = {w: _product_leaf_open(spx, spy, g.n, w) for w in fg.opens}

    # (6) sections of every open of the product
    for w, wopen in prod_opens.items():
        for i in range(f.n):
            sec = section(ptsx[i], wopen)
            for j in range(g.n):
                want = bool(w >> (i * g.n + j) & 1)
                got = budgeted(sec.chi(ptsy[j]), fuel)
                if not s.check(got == want,
                               lambda: ce("section", w=sorted(bits(w)), x=i, y=j)):
                    return False
        # overt projection: {i : some j pairs into w}
        projected = overt_project(wopen)
        for i in range(f.n):
            want = any(w >> (i * g.n + j) & 1 for j in range(g.n))
            got = budgeted(projected.chi(ptsx[i]), fuel)
            if not s.check(got == want,
                           lambda: ce("overt-project", w=sorted(bits(w)), x=i)):
                return False

    # (7) products of opens
    for u in f.opens:
        for v in g.opens:
            pu = product_open(losx[u], losy[v])
            for i in range(f.n):
                for j in range(g.n):
                    want = bool(u >> i & 1) and bool(v >> j & 1)
                    got = budgeted(pu.chi(pair_point(ptsx[i], ptsy[j])), fuel)
                    if not s.check(got == want,
                                   lambda: ce("product-open", u=sorted(bits(u)),
                                              v=sorted(bits(v)), x=i, y=j)):
                        return False

    # (8) products of overt closed sets, generators ranging over closed sets
    closeds_x = [full_mask(f.n) & ~u for u in f.opens]
    closeds_y = [full_mask(g.n) & ~v for v in g.opens]
    for a in closeds_x:
        for b in closeds_y:
            pv = product_closed(leaf_overt(spx, a), leaf_overt(spy, b))
            for w, wopen in prod_opens.items():
                want = any(w >> (i * g.n + j) & 1
                           for i in bits(a) for j in bits(b))
                got = budgeted(pv.exists_(wopen), fuel)
                if not s.check(got == want,
                               lambda: ce("product-closed", a=sorted(bits(a)),
                                          b=sorted(bits(b)), w=sorted(bits(w)))):
                    return False
    return True


def _hyper_maps(s: _Suite, f: FiniteSpace, g: FiniteSpace, fuel: int) -> bool:
    spx, ptsx, losx = _space_points(f)
    spy, ptsy, losy = _space_points(g)
    ups_x = up_sets(f)
    closeds_x = [full_mask(f.n) & ~u for u in f.opens]
    ce = lambda case, **kw: {"case": case, "space_x": f.to_json(),
                             "space_y": g.to_json(), **kw}

    for fmap in continuous_maps(f, g):
        fpt = fun_point(spx, spy, lambda p, _m=fmap: _apply_finite(spy, _m, p))

        # (4) compact images
        for k in ups_x:
            img = compact_image(fpt, leaf_compact(spx, k))
            want = saturate(g, image_mask(fmap, k))
            got = compact_members(spy, img, fuel)
            if not s.check(got == want,
                           lambda: ce("compact-image", f=list(fmap),
                                      k=sorted(bits(k)), got=sorted(bits(got)),
                                      want=sorted(bits(want)))):
                return False
        # (5) closed images
        for a in closeds_x:
            img = closed_image(fpt, leaf_overt(spx, a))
            want = closure(g, image_mask(fmap, a))
            got = overt_members(spy, img, fuel)
            if not s.check(got == want,
                           lambda: ce("closed-image", f=list(fmap),
                                      a=sorted(bits(a)), got=sorted(bits(got)),
                                      want=sorted(bits(want)))):
                return False
        # (15) compact-open embedding and its inverse
        w = compact_open_embed(fpt)
        for k in ups_x:
            kpt = leaf_compact(spx, k).as_point()
            for v in g.opens:
                want = image_mask(fmap, k) & ~v == 0
                got = budgeted(w.chi(pair_point(kpt, losy[v].as_point())), fuel)
                if not s.check(got == want,
                               lambda: ce("compact-open-embed", f=list(fmap),
                                          k=sorted(bits(k)), v=sorted(bits(v)))):
                    return False
        # the inverse needs the codomain's Kolmogorov witness, which a
        # finite space carries exactly when it is T0
        if g.n > 0 and spy.filter_inverse is not None:
            f2 = compact_open_invert(w, fuel)
            for x in range(f.n):
                got = read_first(apply_fun(f2, ptsx[x]), DEFAULT_FUEL)
                if not s.check(got == fmap[x],
                               lambda: ce("compact-open-invert", f=list(fmap),
                                          x=x, got=got)):
                    return False
    return True


def _sample(rng: random.Random, items, cap: int, keep=()):
    items = list(items)
    if len(items) <= cap:
        return items
    picked = set(rng.sample(range(len(items)), cap))
    out = [x for i, x in enumerate(items) if i in picked]
    for k in keep:
        if k not in out:
            out.append(k)
    return out


def _hyper_on_carrier(s: _Suite, h: FiniteSpace, fuel: int,
                      rng: random.Random) -> bool:
    """Point, set and map operations over one (possibly derived) finite
    carrier, checked directly per queried open rather than by decoding."""
    sp, pts, los = _space_points(h)
    full = full_mask(h.n)
    opens_s = _sample(rng, h.opens, 12, keep=(0, full))
    ups_s = _sample(rng, up_sets(h), 12, keep=(0, full))
    ce = lambda case, **kw: {"case": case, "space": h.to_json(), **kw}

    for x in range(h.n):
        flt = neighborhood_filter(pts[x])
        pc = point_to_closed(pts[x])
        pk = point_to_compact(pts[x])
        for u in opens_s:
            inu = bool(u >> x & 1)
            ok = (budgeted(flt.chi(los[u].as_point()), fuel) == inu
                  and budgeted(pc.exists_(los[u]), fuel) == inu
                  and budgeted(pk.forall_(los[u]), fuel) == inu)
            if not s.check(ok, lambda: ce("carrier-point-ops", x=x,
                                          u=sorted(bits(u)))):
                return False

    for _ in range(6):
        fam = [u for u in opens_s if rng.random() < 0.5]
        members = [los[u] for u in fam]
        union_mask, inter_mask = 0, full
        for u in fam:
            union_mask |= u
            inter_mask &= u
        uni = overt_union(family_overt(sp, members))
        inter = compact_intersection(family_compact(sp, members))
        for x in range(h.n):
            got_u = budgeted(uni.chi(pts[x]), fuel)
            got_i = budgeted(inter.chi(pts[x]), fuel)
            if not s.check(got_u == bool(union_mask >> x & 1)
                           and got_i == bool(inter_mask >> x & 1),
                           lambda: ce("carrier-union-intersection", x=x,
                                      family=[sorted(bits(u)) for u in fam])):
                return False
        kfam = [k for k in ups_s if rng.random() < 0.5]
        want = saturate(h, mask_of(e for k in kfam for e in bits(k)))
        ku = compact_union(compact_family_of_compacts(
            sp, [leaf_compact(sp, k) for k in kfam]))
        for u in opens_s:
            got = budgeted(ku.forall_(los[u]), fuel)
            if not s.check(got == (want & ~u == 0),
                           lambda: ce("carrier-compact-union",
                                      family=[sorted(bits(k)) for k in kfam],
                                      u=sorted(bits(u)))):
                return False

    for k_mask in ups_s:
        w = filter_embed(leaf_compact(sp, k_mask))
        back = filter_invert(w)
        for u in opens_s:
            want = k_mask & ~u == 0
            upt = los[u].as_point()
            ok = (budgeted(w.chi(upt), fuel) == want
                  and budgeted(back.forall_(los[u]), fuel) == want)
            if not s.check(ok, lambda: ce("carrier-filter",
                                          k=sorted(bits(k_mask)),
                                          u=sorted(bits(u)))):
                return False
    for u in opens_s:
        w = box_embed(los[u])
        back = box_invert(w)
        for k_mask in ups_s:
            want = k_mask & ~u == 0
            if not s.check(
                    budgeted(w.chi(leaf_compact(sp, k_mask).as_point()), fuel) == want,
                    lambda: ce("carrier-box", u=sorted(bits(u)),
                               k=sorted(bits(k_mask)))):
                return False
        for x in range(h.n):
            if not s.check(budgeted(back.chi(pts[x]), fuel) == bool(u >> x & 1),
                           lambda: ce("carrier-box-invert", u=sorted(bits(u)), x=x)):
                return False
        a_mask = full & ~u
        w = trace_embed(leaf_overt(sp, a_mask))
        back2 = trace_invert(w)
        for v in opens_s:
            want = bool(a_mask & v)
            vpt = los[v].as_point()
            ok = (budgeted(w.chi(vpt), fuel) == want
                  and budgeted(back2.exists_(los[v]), fuel) == want)
            if not s.check(ok, lambda: ce("carrier-trace",
                                          a=sorted(bits(a_mask)),
                                          v=sorted(bits(v)))):
                return False

    # a few self-maps: images and the compact-open graph on this carrier
    maps = [tuple(range(h.n))]
    rows = specialization(h)
    for _ in range(12):
        if len(maps) >= 3 or h.n == 0:
            break
        cand = tuple(rng.randrange(h.n) for _ in range(h.n))
        monotone = all(not (rows[i] >> j & 1) or (rows[cand[i]] >> cand[j] & 1)
                       for i in range(h.n) for j in range(h.n))
        if monotone and cand not in maps:
            maps.append(cand)
    for fmap in maps:
        fpt = fun_point(sp, sp, lambda p, _m=fmap: _apply_finite(sp, _m, p))
        w = compact_open_embed(fpt)
        for k in ups_s[:6]:
            img = compact_image(fpt, leaf_compact(sp, k))
            a_gen = full & ~k  # any generator works; the value denotes its closure
            acl = closed_image(fpt, leaf_overt(sp, a_gen))
            for v in opens_s[:6]:
                want_img = image_mask(fmap, k) & ~v == 0
                ok = budgeted(img.forall_(los[v]), fuel) == want_img
                want_cl = bool(image_mask(fmap, a_gen) & v)
                ok = ok and budgeted(acl.exists_(los[v]), fuel) == want_cl
                ok = ok and budgeted(
                    w.chi(pair_point(leaf_compact(sp, k).as_point(),
                                     los[v].as_point())), fuel) == want_img
                if not s.check(ok, lambda: ce("carrier-map-ops", f=list(fmap),
                                              k=sorted(bits(k)),
                                              v=sorted(bits(v)))):
                    return False
    return True


def _apply_finite(spy, fmap, p: Point) -> Point:
    """Image point of a finite map, lazily reading the argument's name."""
    src: Point = p

    def gen():
        r = NameReader(src.payload)
        while True:
            v = r.step()
            if v is None:
                yield None
            else:
                yield fmap[v]

    def cost(i: int):
        return src.payload.cost(i) if src.payload.cost else None

    return Point(spy, Name(gen, cost=cost))


# ---------------------------------------------------------------------------
# Law: figure1-chain


def law_figure1(s: _Suite, max_size: int, fuel: int, seed: int) -> None:
    """Inclusion chain of the four topologies induced by a presubbase, the
    finite-instance equalities, and discrete-order collapse."""
    for sub in _subbase_instances(max_size, max_size, t0_only=False):
        s.instances += 1
        rep = figure1_check(sub)
        if not s.check(rep["well_defined"],
                       lambda: {"case": "well-defined", "subbase": sub.to_json()}):
            return
        if not s.check(rep["chain_ok"],
                       lambda: {"case": "chain", "subbase": sub.to_json(), **rep}):
            return
        if not s.check(rep["inf_equals_K"],
                       lambda: {"case": "sequential-collapse",
                                "subbase": sub.to_json(), **rep}):
            return
        if not s.check(rep["final_equals_tau_K"],
                       lambda: {"case": "final", "subbase": sub.to_json(), **rep}):
            return
        if not s.check(rep["t0_iff_injective"],
                       lambda: {"case": "t0-iff-injective",
                                "subbase": sub.to_json(), **rep}):
            return
        if rep["discrete_order"]:
            if not s.check(rep["all_equal"],
                           lambda: {"case": "discrete-collapse",
                                    "subbase": sub.to_json(), **rep}):
                return


# ---------------------------------------------------------------------------
# Law: galois-roundtrip


def _galois_instances(max_carrier: int = 2, max_index: int = 2):
    """All pairs of a T0 finite carrier topology and a family of its opens
    over a discrete index: exactly the finite instances on which the
    representation refines the induced one."""
    for nx in range(max_carrier + 1):
        for f in enumerate_spaces(nx, t0_only=True):
            for m in range(1, max_index + 1):
                opens_list = list(f.opens)
                idx = [0] * m

                def rec(i: int):
                    if i == m:
                        yield tuple(opens_list[j] for j in idx)
                        return
                    for j in range(len(opens_list)):
                        idx[i] = j
                        yield from rec(i + 1)

                for fam in rec(0):
                    yield f, fam


def _rep_to_base_witness(f: FiniteSpace, fam: tuple, spx, isp) -> GaloisWitness:
    """The canonical point-side witness: read the point, emit its transpose
    set over the index space."""

    def member(yv: int, xv: int) -> int:
        return fam[yv] >> xv & 1

    def t(x: Point) -> OpenSet:
        return OpenSet(isp, lambda y: read_table((y.payload, x.payload),
                                                 member))

    return GaloisWitness("rep_to_base", spx, isp, t)


def _validate_rep_to_base(w: GaloisWitness, f: FiniteSpace, fam: tuple,
                          spx, isp, rng: random.Random, samples: int,
                          fuel: int) -> bool:
    """Check the translator's denotation on sampled delayed names."""
    for _ in range(samples):
        x = rng.randrange(f.n) if f.n else None
        if x is None:
            return True
        xp = finite_point(spx, x, delay=rng.randrange(4))
        tx = w.translator(xp)
        y = rng.randrange(len(fam)) if fam else None
        if y is None:
            continue
        yp = finite_point(isp, y, delay=rng.randrange(4))
        want = bool(fam[y] >> x & 1)
        if budgeted(tx.chi(yp), fuel) != want:
            return False
    return True


def _validate_base_to_rep(w: GaloisWitness, f: FiniteSpace, fam: tuple,
                          spx, isp, rng: random.Random, samples: int,
                          fuel: int) -> bool:
    """The family-side witness must produce genuine opens of the carrier
    topology with the right members."""
    for _ in range(samples):
        if not fam:
            return True
        y = rng.randrange(len(fam))
        yp = finite_point(isp, y, delay=rng.randrange(4))
        u = w.translator(yp)
        got = open_members(spx, u, fuel)
        if got != fam[y]:
            return False
        if got not in f.opens:
            return False
    return True


def law_galois(s: _Suite, max_size: int, fuel: int, seed: int) -> None:
    rng = random.Random(seed)
    samples = 100
    for f, fam in _galois_instances(min(max_size, 2), 2):
        s.instances += 1
        spx = finite_repr(f)
        m = len(fam)
        iorder = tuple(1 << y for y in range(m))
        isub = FiniteSubbase(f.n, fam, iorder)
        isp = finite_repr(isub.index_space())
        t = _rep_to_base_witness(f, fam, spx, isp)
        if not s.check(
                _validate_rep_to_base(t, f, fam, spx, isp, rng, samples, fuel),
                lambda: {"case": "forward-input", "space": f.to_json(),
                         "family": [sorted(bits(b)) for b in fam]}):
            return
        u = galois_forward(t)
        if not s.check(
                _validate_base_to_rep(u, f, fam, spx, isp, rng, samples, fuel),
                lambda: {"case": "forward-output", "space": f.to_json(),
                         "family": [sorted(bits(b)) for b in fam]}):
            return
        t2 = galois_backward(u)
        if not s.check(
                _validate_rep_to_base(t2, f, fam, spx, isp, rng, samples, fuel),
                lambda: {"case": "roundtrip", "space": f.to_json(),
                         "family": [sorted(bits(b)) for b in fam]}):
            return

    # planted non-reduction: a family member that is not open in the
    # carrier topology must be flagged by validation
    s.instances += 1
    f = orc.make_space(2, [0, 0b10, 0b11])
    fam = (0b01,)  # {0} is not open here
    spx = finite_repr(f)
    isp = finite_repr(orc.make_subbase(2, [0b01]).index_space())
    t = _rep_to_base_witness(f, fam, spx, isp)
    u = galois_forward(t)
    flagged = not _validate_base_to_rep(u, f, fam, spx, isp, rng, 20, fuel)
    s.check(flagged, lambda: {"case": "planted-non-reduction-not-flagged",
                              "space": f.to_json(),
                              "family": [sorted(bits(b)) for b in fam]})


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
                base = leaf_open(sp, u)
                u1 = comp.open_back(base)
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
    for sub in _subbase_instances(min(max_size, 2), min(max_size, 2), t0_only=True):
        if not sub.injective():
            continue
        s.instances += 1
        got = _base_completion_range(sub, fuel)
        tk = set(tau_K(sub).opens)
        if not s.check(got == tk, lambda: {
                "case": "base-completion-range", "subbase": sub.to_json(),
                "got": sorted(sorted(bits(u)) for u in got),
                "want": sorted(sorted(bits(u)) for u in tk)}):
            return
        # a second completion of the induced space is extensionally inert:
        # every base open agrees on forwarded points
        b = finite_presubbase(sub)
        bsp = presubbase_space(b)
        comp = kolmogorov_completion(bsp)
        isp, csp = b.index, b.carrier
        points = [embed_point(b, finite_point(csp, x)) for x in range(sub.n)]
        for k_mask in up_sets(sub.index_space()):
            u = tau_k_open(bsp, leaf_compact(isp, k_mask))
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


def _base_completion_range(sub: FiniteSubbase, fuel: int) -> set[int]:
    """Denotations of the members of the completed base: every open of the
    induced space, read back as a carrier subset.  Completing once already
    exhausts the generated topology, so completing twice adds nothing; we
    verify by checking the range equals tau_K exactly (and hence is a
    fixed point of completion)."""
    b = finite_presubbase(sub)
    bsp = presubbase_space(b)
    isp = b.index
    csp = b.carrier
    points = [embed_point(b, finite_point(csp, x)) for x in range(sub.n)]
    got = set()
    for k_mask in up_sets(sub.index_space()):
        u = tau_k_open(bsp, leaf_compact(isp, k_mask))
        members = mask_of(x for x in range(sub.n)
                          if budgeted(u.chi(points[x]), fuel))
        got.add(members)
    out = set(got)
    # close under union/intersection: the identity base of the induced
    # space realizes every open the base sets generate
    changed = True
    while changed:
        changed = False
        items = list(out)
        for i, a in enumerate(items):
            for bmask in items[i + 1:]:
                for c in (a | bmask, a & bmask):
                    if c not in out:
                        out.add(c)
                        changed = True
    out.add(0)
    out.add(full_mask(sub.n))
    return out


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
