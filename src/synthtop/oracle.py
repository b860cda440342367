"""Brute-force ground truth on finite topological spaces.

Subsets of the carrier {0..n-1} are bitmasks.  A finite topology is the
same thing as the family of up-sets of its specialization preorder, which
is what makes every construction here exhaustively checkable: saturation
is up-closure, compact saturated sets are up-sets, continuity is
monotonicity, and two independent enumerations (closed set-families vs.
preorders) must produce the same counts.

The second half of the module bridges finite data into the kernel:
name-backed points, leaf semideciders for opens / overt / compact values,
denotation decoders, and the positive-information decoder for presubbase
points.  Negative queries are budgeted by each semidecision's certified
horizon where one exists, falling back to `NEGATIVE_FUEL`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .bases import Presubbase
from .kernel import delayed_name, dovetail_bound, literal_name
from .sierpinski import (NEGATIVE_FUEL, NEVER, SValue, and_finite,
                         or_countable, read_table)
from .spaces import Point, Space, compacts, opens
from .hyper import CompactSat, OpenSet, OvertClosed, as_open


class SchemaError(ValueError):
    """A JSON instance does not match the documented schema."""


MAX_EXHAUSTIVE = 4
# Largest carrier and largest family a subbase file may give: the index
# space, its up-sets and the generated topology grow exponentially in
# both, and a query on 12 singleton sets already takes seconds.
MAX_SUBBASE_SIZE = 10
# Largest carrier a plain-space file may give: the specialization order
# alone has up to n^2 pairs to compute and print.
MAX_SPACE_SIZE = 64


def full_mask(n: int) -> int:
    return (1 << n) - 1


def bits(mask: int) -> Iterable[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


# ---------------------------------------------------------------------------
# Finite spaces


@dataclass(frozen=True)
class FiniteSpace:
    """Carrier {0..n-1} with an explicit family of open sets (bitmasks,
    sorted, containing 0 and the full carrier, closed under union and
    intersection)."""

    n: int
    opens: tuple[int, ...]

    def __post_init__(self):
        assert self.opens == tuple(sorted(set(self.opens)))

    def to_json(self) -> dict:
        return {"n": self.n,
                "opens": [sorted(bits(u)) for u in self.opens]}


def make_space(n: int, opens: Iterable[int]) -> FiniteSpace:
    return FiniteSpace(n, tuple(sorted(set(opens))))


def generate_topology(sets: Iterable[int], n: int) -> FiniteSpace:
    """Smallest topology containing the given subsets of the carrier: the
    up-sets of the preorder whose row x is the meet of the sets holding x,
    since a finite topology is the family of up-sets of its
    specialization preorder."""
    return topology_from_preorder(_rows(n, sets))


def is_topology(n: int, fam: frozenset) -> bool:
    if 0 not in fam or full_mask(n) not in fam:
        return False
    items = list(fam)
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            if (a | b) not in fam or (a & b) not in fam:
                return False
    return True


def _rows(n: int, sets: Iterable[int]) -> tuple[int, ...]:
    """Row x is the meet of the carrier and every given set holding x: the
    minimal open of x in the topology the sets generate."""
    rows = [full_mask(n)] * n
    for u in sets:
        for x in bits(u):
            rows[x] &= u
    return tuple(rows)


@lru_cache(maxsize=None)
def specialization(space: FiniteSpace) -> tuple[int, ...]:
    """Row i is the mask {j : i <= j}, i.e. the minimal open of i:
    i <= j iff every open containing i contains j.  Computed once per
    space (spaces are frozen); saturation, closure, up-sets and minimal
    opens all read these rows."""
    return _rows(space.n, space.opens)


def _up_closure(rows: tuple[int, ...], a: int) -> int:
    out = 0
    for x in bits(a):
        out |= rows[x]
    return out


def is_T0(space: FiniteSpace) -> bool:
    rows = specialization(space)
    return len(set(rows)) == space.n


def saturate(space: FiniteSpace, a: int) -> int:
    """Intersection of all opens containing a = up-closure under the
    specialization order."""
    return _up_closure(specialization(space), a)


def closure(space: FiniteSpace, a: int) -> int:
    rows = specialization(space)
    return mask_of(x for x in range(space.n) if rows[x] & a)


def up_sets(space: FiniteSpace) -> tuple[int, ...]:
    """All up-closed subsets = all saturated sets = all compact saturated
    sets of a finite space: its opens, since a finite topology is the
    family of up-sets of its specialization preorder."""
    return space.opens


def continuous_maps(dom: FiniteSpace, cod: FiniteSpace) -> list[tuple[int, ...]]:
    """All continuous (= specialization-monotone) maps dom -> cod."""
    return list(_monotone_maps(specialization(dom), specialization(cod)))


def _monotone_maps(dom_rows: Sequence[int],
                   cod_rows: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All monotone maps between two preorders (rows as in
    `specialization`), lazily, in lexicographic order.  The candidates
    for f(i) are one mask: the meet of the up-rows of f(j) over placed
    j <= i and the down-rows of f(j) over placed j with i <= j."""
    n, m = len(dom_rows), len(cod_rows)
    down = [mask_of(u for u in range(m) if cod_rows[u] >> v & 1)
            for v in range(m)]
    fs = [0] * n

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(fs)
            return
        cand = full_mask(m)
        for j in range(i):
            if dom_rows[j] >> i & 1:
                cand &= cod_rows[fs[j]]
            if dom_rows[i] >> j & 1:
                cand &= down[fs[j]]
        for v in bits(cand):
            fs[i] = v
            yield from rec(i + 1)

    return rec(0)


def image_mask(f: Sequence[int], a: int) -> int:
    return mask_of(f[x] for x in bits(a))


# ---------------------------------------------------------------------------
# Products and coproducts of finite spaces


def product_space(f: FiniteSpace, g: FiniteSpace) -> FiniteSpace:
    """Product topology; element (i, j) is coded as i * g.n + j."""
    rects = []
    for u in f.opens:
        for v in g.opens:
            m = 0
            for i in bits(u):
                m |= v << (i * g.n)
            rects.append(m)
    return generate_topology(rects, f.n * g.n)


def coproduct_space(f: FiniteSpace, g: FiniteSpace) -> FiniteSpace:
    """Disjoint union; g's elements are shifted by f.n."""
    return make_space(f.n + g.n,
                      (u | (v << f.n) for u in f.opens for v in g.opens))


# ---------------------------------------------------------------------------
# Enumeration, two independent ways


def _families(n: int) -> Iterable[frozenset]:
    middle = [s for s in range(1, full_mask(n))]
    base = {0, full_mask(n)} if n > 0 else {0}
    for pick in range(1 << len(middle)):
        fam = set(base)
        for i, s in enumerate(middle):
            if pick >> i & 1:
                fam.add(s)
        yield frozenset(fam)


def enumerate_spaces(n: int, t0_only: bool = False) -> list[FiniteSpace]:
    """All (labeled) topologies on {0..n-1}, each exactly once, via closed
    set-family enumeration."""
    if n > MAX_EXHAUSTIVE:
        raise ValueError(f"exhaustive enumeration capped at n <= {MAX_EXHAUSTIVE}")
    if n == 0:
        return [make_space(0, [0])]
    out = []
    for fam in _families(n):
        if is_topology(n, fam):
            sp = make_space(n, fam)
            if t0_only and not is_T0(sp):
                continue
            out.append(sp)
    out.sort(key=lambda s: s.opens)
    return out


def enumerate_preorders(n: int) -> list[tuple[int, ...]]:
    """All reflexive transitive relations on {0..n-1}, rows as masks."""
    if n > MAX_EXHAUSTIVE:
        raise ValueError(f"exhaustive enumeration capped at n <= {MAX_EXHAUSTIVE}")
    if n == 0:
        return [()]
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for pick in range(1 << len(offdiag)):
        rows = [1 << i for i in range(n)]
        for b, (i, j) in enumerate(offdiag):
            if pick >> b & 1:
                rows[i] |= 1 << j
        ok = True
        for i in range(n):
            reach = rows[i]
            for j in bits(rows[i]):
                if rows[j] & ~reach:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(rows))
    return out


def preorder_is_partial_order(rows: Sequence[int]) -> bool:
    for i in range(len(rows)):
        for j in bits(rows[i]):
            if j != i and rows[j] >> i & 1:
                return False
    return True


@lru_cache(maxsize=None)
def topology_from_preorder(rows: tuple[int, ...]) -> FiniteSpace:
    """The up-sets of a preorder (rows as in `specialization`) as a
    topology: the one up-set enumerator, computed once per preorder.
    `generate_topology`, `FiniteSubbase.index_space` and Figure 1 read it."""
    return make_space(len(rows), (s for s in range(1 << len(rows))
                                  if _up_closure(rows, s) == s))


def enumeration_crosscheck(n: int) -> dict:
    """Counts from the closure-family enumerator vs. the preorder/poset
    enumerator; finite topologies biject with preorders (T0 with posets)."""
    spaces = enumerate_spaces(n)
    t0 = [s for s in spaces if is_T0(s)]
    pre = enumerate_preorders(n)
    posets = [r for r in pre if preorder_is_partial_order(r)]
    # the bijection itself, not just the counts
    via_orders = sorted(topology_from_preorder(r).opens for r in pre)
    via_closure = sorted(s.opens for s in spaces)
    return {
        "n": n,
        "topologies_closure": len(spaces),
        "topologies_preorders": len(pre),
        "t0_closure": len(t0),
        "t0_posets": len(posets),
        "bijection_ok": via_orders == via_closure,
    }


# ---------------------------------------------------------------------------
# Finite subbases and the associated topologies


@dataclass(frozen=True)
class FiniteSubbase:
    """A family of subsets of the carrier {0..n-1}, indexed by a finite
    preordered index set: ``sets[y]`` is the member at index y and
    ``order[y]`` the mask {y' : y <= y'}."""

    n: int
    sets: tuple[int, ...]
    order: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.sets)

    def index_space(self) -> FiniteSpace:
        return topology_from_preorder(self.order)

    def transpose(self, x: int) -> int:
        return mask_of(y for y, b in enumerate(self.sets) if b >> x & 1)

    def well_defined(self) -> bool:
        """Transposes must be up-sets of the index order, i.e. the family
        must be monotone along the order."""
        for y in range(self.m):
            for y2 in bits(self.order[y]):
                if self.sets[y] & ~self.sets[y2]:
                    return False
        return True

    def injective(self) -> bool:
        seen = set()
        for x in range(self.n):
            t = self.transpose(x)
            if t in seen:
                return False
            seen.add(t)
        return True

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "sets": [sorted(bits(b)) for b in self.sets],
            "index_order": [[y, y2] for y in range(self.m)
                            for y2 in bits(self.order[y]) if y2 != y],
        }


def make_subbase(n: int, sets: Sequence[int],
                 order_pairs: Iterable[tuple[int, int]] = ()) -> FiniteSubbase:
    """Build a subbase from <= pairs; the order is closed reflexively and
    transitively."""
    m = len(sets)
    rows = [1 << y for y in range(m)]
    for a, b in order_pairs:
        if not (0 <= a < m and 0 <= b < m):
            raise SchemaError(f"index_order pair ({a},{b}) out of range")
        rows[a] |= 1 << b
    for k in range(m):  # Warshall: close through index k, one k at a time
        for i in range(m):
            if rows[i] >> k & 1:
                rows[i] |= rows[k]
    return FiniteSubbase(n, tuple(int(s) for s in sets), tuple(rows))


def tau_B(sub: FiniteSubbase) -> FiniteSpace:
    """Topology generated by the raw family."""
    return generate_topology(sub.sets, sub.n)


def tau_K(sub: FiniteSubbase) -> FiniteSpace:
    """Topology generated by the carrier plus intersections of the family
    over the compact saturated (= up-closed) index sets."""
    isp = sub.index_space()
    gens = [full_mask(sub.n)]
    for k in up_sets(isp):
        inter = full_mask(sub.n)
        for y in bits(k):
            inter &= sub.sets[y]
        gens.append(inter)
    return generate_topology(gens, sub.n)


def tau_inf(sub: FiniteSubbase) -> FiniteSpace:
    """Topology generated by intersections along convergent index
    sequences.  On a finite index space a sequence converging to y can
    visit an arbitrary finite junk set before settling, so the generated
    sets are exactly the intersections over S + {y} for finite S: over
    every nonempty index set.  ``gens[t]`` is the intersection over the
    index set t, built from t less its lowest index."""
    gens = [full_mask(sub.n)]
    for t in range(1, 1 << sub.m):
        low = t & -t
        gens.append(gens[t ^ low] & sub.sets[low.bit_length() - 1])
    return generate_topology(gens, sub.n)


def figure1_check(sub: FiniteSubbase) -> dict:
    """The inclusion chain of the four topologies a presubbase generates,
    plus the T0-iff-injective equivalence."""
    tb, ti, tk = tau_B(sub), tau_inf(sub), tau_K(sub)
    # stand-in for the final topology of the subbase representation:
    # finite spaces are sequential, so it is the up-sets of tau_K's order
    fin = topology_from_preorder(specialization(tk))
    sb, si, sk, sf = (set(t.opens) for t in (tb, ti, tk, fin))
    report = {
        "well_defined": sub.well_defined(),
        "injective": sub.injective(),
        "tau_B_size": len(sb),
        "tau_inf_size": len(si),
        "tau_K_size": len(sk),
        "chain_ok": sb <= si <= sk,
        # finite spaces are sequential, so the right-hand three topologies
        # of the chain collapse on every finite instance
        "inf_equals_K": si == sk,
        "final_equals_tau_K": sk == sf,
        "t0_iff_injective": is_T0(tk) == sub.injective(),
        "discrete_order": all(sub.order[y] == 1 << y for y in range(sub.m)),
    }
    report["all_equal"] = sb == si == sk == sf
    return report


# ---------------------------------------------------------------------------
# JSON interface


def _is_int(v) -> bool:
    """A JSON integer; JSON ``true``/``false`` are not (Python's bool is)."""
    return isinstance(v, int) and not isinstance(v, bool)


def space_from_json(doc: dict) -> FiniteSpace:
    if not isinstance(doc, dict):
        raise SchemaError("expected a JSON object")
    if "n" not in doc or "opens" not in doc:
        raise SchemaError("missing field: need 'n' and 'opens'")
    n = doc["n"]
    if not _is_int(n) or n < 0:
        raise SchemaError("field 'n': expected a nonnegative integer")
    opens = doc["opens"]
    if not isinstance(opens, list):
        raise SchemaError("field 'opens': expected a list of element lists")
    for i, u in enumerate(opens):
        if not isinstance(u, list) or not all(_is_int(e) for e in u):
            raise SchemaError(f"field 'opens[{i}]': expected a list of integers")
        if any(e < 0 or e >= n for e in u):
            raise SchemaError(f"field 'opens[{i}]': element out of range 0..{n - 1}")
    missing = "field 'opens': must include [] and the full carrier"
    # the full carrier lists n elements, so a larger n is refused before
    # any mask of n bits is built
    if n > max(map(len, opens), default=0):
        raise SchemaError(missing)
    if n > MAX_SPACE_SIZE:
        raise SchemaError(f"field 'n': a space carrier has at most "
                          f"{MAX_SPACE_SIZE} points, got {n}")
    masks = {mask_of(u) for u in opens}
    if 0 not in masks or full_mask(n) not in masks:
        raise SchemaError(missing)
    if not is_topology(n, frozenset(masks)):
        raise SchemaError("field 'opens': not closed under union/intersection")
    return make_space(n, masks)


def subbase_from_json(doc: dict) -> FiniteSubbase:
    if not isinstance(doc, dict):
        raise SchemaError("expected a JSON object")
    for field in ("n", "sets"):
        if field not in doc:
            raise SchemaError(f"missing field: '{field}'")
    n = doc["n"]
    if not _is_int(n) or n < 0:
        raise SchemaError("field 'n': expected a nonnegative integer")
    if n > MAX_SUBBASE_SIZE:
        raise SchemaError(f"field 'n': a subbase carrier has at most "
                          f"{MAX_SUBBASE_SIZE} points, got {n}")
    sets = doc["sets"]
    if not isinstance(sets, list):
        raise SchemaError("field 'sets': expected a list of element lists")
    if len(sets) > MAX_SUBBASE_SIZE:
        raise SchemaError(f"field 'sets': at most {MAX_SUBBASE_SIZE} sets, "
                          f"got {len(sets)}")
    masks = []
    for i, s in enumerate(sets):
        if not isinstance(s, list) or not all(_is_int(e) for e in s):
            raise SchemaError(f"field 'sets[{i}]': expected a list of integers")
        if any(e < 0 or e >= n for e in s):
            raise SchemaError(f"field 'sets[{i}]': element out of range 0..{n - 1}")
        masks.append(mask_of(s))
    order = doc.get("index_order", [])
    if not isinstance(order, list):
        raise SchemaError("field 'index_order': expected a list of [y, y'] pairs")
    pairs = []
    for i, p in enumerate(order):
        if (not isinstance(p, list) or len(p) != 2
                or not all(_is_int(e) for e in p)):
            raise SchemaError(f"field 'index_order[{i}]': expected a [y, y'] pair")
        pairs.append((p[0], p[1]))
    return make_subbase(n, masks, pairs)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise SchemaError(f"invalid JSON at line {e.lineno}, column {e.colno}: {e.msg}")
        except UnicodeDecodeError as e:
            raise SchemaError(f"not UTF-8 text: byte {e.start}: {e.reason}")
        except RecursionError:
            raise SchemaError("JSON nested too deeply")
        except ValueError:
            # the interpreter refuses to convert an integer of more than
            # 4300 digits; every other decoding error is caught above
            raise SchemaError("JSON integer has too many digits")


# ---------------------------------------------------------------------------
# Bridge: finite data as kernel spaces, points and hyperspace values


@lru_cache(maxsize=None)
def finite_repr(f: FiniteSpace) -> Space:
    """The finite space as a represented space: points are name-backed and
    denote their first emitted value.  Always overt (disjunction over
    elements); carries the neighborhood-map inverse (candidate narrowing
    plus least element) exactly when the topology is T0 -- otherwise the
    filter does not determine the point and the space is genuinely not a
    computable Kolmogorov space.  Built once per (frozen) ``f``; its
    undelayed points are built with it and kept in ``parts[1]``, their
    names' first values read (`Name.peek`), so `leaf_overt` and
    `leaf_compact` fold from ``first`` without reading again."""
    sp = Space("finite", (f,), label=f"Fin({f.n})")
    pts = tuple(Point(sp, literal_name([e], tail=e)) for e in range(f.n))
    for p in pts:
        p.payload.peek()
    sp.parts = (f, pts)
    sp.overt = OvertClosed(sp, lambda u: or_countable(map(u.chi, sp.parts[1])))
    if is_T0(f):
        sp.filter_inverse = lambda flt, fuel=None: _finite_filter_inverse(sp, f, flt, fuel)
    return sp


def finite_point(sp: Space, elem: int, delay: int = 0) -> Point:
    f: FiniteSpace = sp.parts[0]
    if not 0 <= elem < f.n:
        raise ValueError(f"element {elem} outside carrier of size {f.n}")
    if delay == 0:
        return sp.parts[1][elem]
    return Point(sp, delayed_name([(delay, elem)], tail=elem))


def _points(sp: Space, mask: int) -> list:
    """The undelayed points of the elements of ``mask``, lowest first."""
    f, pts = sp.parts
    if mask >> f.n:
        raise ValueError(f"mask {mask:#b} outside carrier of size {f.n}")
    out = []
    while mask:
        low = mask & -mask
        out.append(pts[low.bit_length() - 1])
        mask ^= low
    return out


class LeafOpen(OpenSet):
    """A `leaf_open`: its membership semidecider plus the ``mask`` it
    reads, from which `leaf_overt` and `leaf_compact` fold."""

    __slots__ = ("mask",)

    def __init__(self, space: Space, chi, mask: int):
        self.space = space
        self.chi = chi
        self.mask = mask


class ShiftedLeaf(LeafOpen):
    """A `LeafOpen` whose members are each read with one more warm name,
    which first emits at ``step`` with ``cost(0)`` ``cost``: the transpose
    of a warm carrier point (`FinitePresubbase.transpose`)."""

    __slots__ = ("step", "cost")

    def __init__(self, space: Space, chi, mask: int, step: int, cost: int):
        self.space = space
        self.chi = chi
        self.mask = mask
        self.step = step
        self.cost = cost


def leaf_open(sp: Space, mask: int) -> LeafOpen:
    """Membership semidecider of a subset given as a bitmask (only opens of
    the topology denote opens, but the semidecider is definable for any
    mask; validity is the caller's concern).  A warm point's answer is
    read straight off its name's shared known pair (`Name.leaves`, built
    by `read_table`), one call less per warm query than asking it.  The
    open keeps its mask, so a finite overt or compact leaf of the same
    space answers it by mask arithmetic (`leaf_overt`, `leaf_compact`)."""

    def member(v: int) -> int:
        return mask >> v & 1

    def chi(p: Point) -> SValue:
        nm = p.payload
        pair = nm.leaves
        if pair is None:
            return read_table((nm,), member)
        return pair[~mask >> nm.first[0] & 1]  # (accept, never)

    return LeafOpen(sp, chi, mask)


def leaf_overt(sp: Space, mask: int) -> OvertClosed:
    """The overt value generated by the elements of ``mask``; denotes the
    closure of that set.  Asked about a `leaf_open` (of ``sp``, as
    `OvertClosed.exists_` checks) it builds no child: member i, whose name
    emits its first value at step k, meets the open's mask at
    ``dovetail_bound(i, k, size)``, and the known outcome and bound are
    the `or_countable` fold of those landings.  Any other open, a
    `ShiftedLeaf` included (no program asks an overt leaf about one), is
    asked point by point through `or_countable`."""
    pts = _points(sp, mask)

    def exists(u: OpenSet) -> SValue:
        if type(u) is not LeafOpen:
            return or_countable(map(u.chi, pts))
        m = u.mask
        size = len(pts)
        known = NEVER
        bound = 0
        for i, p in enumerate(pts):
            e, k, c = p.payload.first
            t = dovetail_bound(i, c, size)
            if t > bound:
                bound = t
            if m >> e & 1:
                if k != c:
                    t = dovetail_bound(i, k, size)
                if t < known:
                    known = t
        return SValue(None, bound, known)

    return OvertClosed(sp, exists)


def leaf_compact(sp: Space, mask: int) -> CompactSat:
    """The compact value generated by the elements of ``mask``; denotes the
    saturation of that set.  Asked about a `leaf_open` (of ``sp``, as
    `CompactSat.forall_` checks) it builds no child: it accepts at the sum
    of its members' first steps if ``mask`` lies inside the open's mask,
    and never otherwise, with the sum of their ``cost(0)`` as bound, as
    `and_finite` folds them; a `ShiftedLeaf` adds its ``step`` and
    ``cost`` once per member.  Any other open is asked point by point
    through `and_finite`."""
    pts = _points(sp, mask)

    def forall(u: OpenSet) -> SValue:
        if type(u) is LeafOpen:
            known = bound = 0
        elif type(u) is ShiftedLeaf:
            known, bound = len(pts) * u.step, len(pts) * u.cost
        else:
            return and_finite(map(u.chi, pts))
        for p in pts:
            _, k, c = p.payload.first
            known += k
            bound += c
        return SValue(None, bound, NEVER if mask & ~u.mask else known)

    return CompactSat(sp, forall)


def budgeted(sv: SValue, fuel: Optional[int] = None) -> bool:
    """Accept-or-certified-never, preferring the value's own horizon.
    Without a horizon, ``fuel`` (default NEGATIVE_FUEL) bounds the
    observation -- honest only against processes with known bounds."""
    budget = sv.bound
    if budget is None:
        budget = fuel if fuel is not None else NEGATIVE_FUEL
    return sv.status(budget) is not None


def open_members(sp: Space, u: OpenSet, fuel: Optional[int] = None) -> int:
    """Decode the denoted subset of a finite-space open."""
    f: FiniteSpace = sp.parts[0]
    return mask_of(e for e in range(f.n)
                   if budgeted(u.chi(finite_point(sp, e)), fuel))


def overt_members(sp: Space, a: OvertClosed, fuel: Optional[int] = None) -> int:
    """Denotation of an overt value over a finite space: x lies in the
    closed set iff the set meets the minimal open of x."""
    rows = specialization(sp.parts[0])
    return mask_of(e for e, row in enumerate(rows)
                   if budgeted(a.exists_(leaf_open(sp, row)), fuel))


def compact_members(sp: Space, k: CompactSat, fuel: Optional[int] = None) -> int:
    """Denotation of a compact value over a finite space: the intersection
    of the opens it certifiably sits inside."""
    f: FiniteSpace = sp.parts[0]
    out = full_mask(f.n)
    for u in f.opens:
        if budgeted(k.forall_(leaf_open(sp, u)), fuel):
            out &= u
    return out


def _finite_filter_inverse(sp: Space, f: FiniteSpace, flt: OpenSet,
                           fuel: Optional[int]) -> Point:
    """Candidate narrowing from positive information only: keep the points
    lying in every open the filter has accepted, then take the least
    candidate in the specialization order (unique for a T0 space when the
    input is a genuine neighborhood filter)."""
    cand = full_mask(f.n)
    for u in f.opens:
        if budgeted(flt.chi(leaf_open(sp, u).as_point()), fuel):
            cand &= u
    rows = specialization(f)
    for x in bits(cand):
        if cand & ~rows[x] == 0:
            return finite_point(sp, x)
    raise ValueError("filter is not a neighborhood filter of this space")


def family_overt(sp: Space, members: Sequence[OpenSet]) -> OvertClosed:
    """An overt family of opens (a value over O(sp)) generated by the given
    members; denotes the closure of the member set in the open-set space."""
    pts = [u.as_point() for u in members]
    return OvertClosed(opens(sp), lambda w: or_countable(map(w.chi, pts)))


def family_compact(sp: Space, members: Sequence[OpenSet]) -> CompactSat:
    """A compact family of opens (a value over O(sp)); denotes the
    saturation of the member set in the open-set space."""
    pts = [u.as_point() for u in members]
    return CompactSat(opens(sp), lambda w: and_finite(map(w.chi, pts)))


def compact_family_of_compacts(sp: Space, members: Sequence["CompactSat"]) -> CompactSat:
    """A compact family of compact sets (a value over K-(sp))."""
    pts = [k.as_point() for k in members]
    return CompactSat(compacts(sp), lambda w: and_finite(map(w.chi, pts)))


def monotone_families(order: Sequence[int], n_carrier: int) -> Iterator[tuple[int, ...]]:
    """All families of subsets of the carrier indexed by the preordered set
    whose transpose is well-defined, i.e. monotone along the order: the
    monotone maps into the subsets ordered by inclusion."""
    subsets = range(1 << n_carrier)
    return _monotone_maps(order, [mask_of(t for t in subsets if s & ~t == 0)
                                  for s in subsets])


@dataclass(eq=False)
class FinitePresubbase(Presubbase):
    """A `finite_presubbase`; ``masks[x]`` is carrier element x's
    transpose {y : x in sets[y]}."""

    masks: tuple[int, ...] = ()

    def __post_init__(self):
        self._leaves = {}  # warm carrier name -> its transpose

    def transpose(self, x: Point) -> OpenSet:
        """At a carrier point whose first value xv (an element) and its
        ``cost(0)`` are cached, a `ShiftedLeaf` with mask ``masks[xv]``,
        built once per name; its ``chi`` answers a warm y as the family's
        two-name `read_table` would and asks the family otherwise.  Any
        other point gets `Presubbase.transpose`."""
        first = x.payload.first if x.space is self.carrier else None
        if first is None or first[0] >= len(self.masks) or first[2] is None:
            return Presubbase.transpose(self, x)
        leaf = self._leaves.get(x.payload)
        if leaf is None:
            _, dk, dc = first
            mask = self.masks[first[0]]
            m = self.index.parts[0].n
            family = self.family

            def chi(y: Point) -> SValue:
                f = y.payload.first
                if f is None or f[0] >= m or f[2] is None:
                    return family(y).chi(x)
                return SValue(None, f[2] + dc,
                              f[1] + dk if mask >> f[0] & 1 else NEVER)

            leaf = self._leaves[x.payload] = ShiftedLeaf(self.index, chi,
                                                         mask, dk, dc)
        return leaf


def finite_presubbase(sub: FiniteSubbase,
                      carrier_topology: Optional[FiniteSpace] = None
                      ) -> FinitePresubbase:
    """The subbase as a kernel presubbase: index and carrier become
    name-backed finite spaces, the family reads the index element and then
    semidecides membership, and the transpose inverse narrows candidates
    from positive information, returning the least one.  The carrier's
    topology is ``carrier_topology``, else `tau_K` of ``sub``.  A warm
    carrier point's transpose is a mask (`FinitePresubbase.transpose`)."""
    isp = finite_repr(sub.index_space())
    ctop = carrier_topology if carrier_topology is not None else tau_K(sub)
    csp = finite_repr(ctop)

    def member(yv: int, xv: int) -> int:
        return sub.sets[yv] >> xv & 1

    def family(ypt: Point) -> OpenSet:
        return OpenSet(csp, lambda x: read_table((ypt.payload, x.payload),
                                                 member))

    masks = tuple(map(sub.transpose, range(sub.n)))

    def transpose_inverse(w: OpenSet, fuel: Optional[int] = None) -> Point:
        accepted = mask_of(
            y for y in range(sub.m)
            if budgeted(w.chi(finite_point(isp, y)), fuel))
        cands = [x for x in range(sub.n) if accepted & ~masks[x] == 0]
        for x in cands:
            if all(masks[x] & ~masks[x2] == 0 for x2 in cands):
                return finite_point(csp, x)
        raise ValueError("no least candidate; not in range or underfueled")

    return FinitePresubbase(index=isp, carrier=csp, family=family,
                            transpose_inverse=transpose_inverse, masks=masks)


def decode_finite(point: Point, sub: FiniteSubbase, fuel: int) -> int:
    """Candidate set of a presubbase-represented point: every carrier
    element consistent with the indices accepted so far.  Always contains
    the denoted point; antitone in fuel; its limit is the specialization
    up-set of the point in the generated topology."""
    q = as_open(point.payload)
    isp = finite_repr(sub.index_space())

    def seen(y: int) -> bool:
        sv = q.chi(finite_point(isp, y))
        budget = fuel if sv.bound is None else min(sv.bound, fuel)
        return sv.status(budget) is not None

    accepted = mask_of(y for y in range(sub.m) if seen(y))
    return mask_of(x for x in range(sub.n)
                   if accepted & ~sub.transpose(x) == 0)
