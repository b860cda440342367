"""Presubbases, prebases, Lacombe bases, the representation they induce,
and the closure machinery connecting representations with bases.

A presubbase is an index space Y together with a continuous family
B: Y -> O(X) whose transpose x |-> {y : x in B_y} is injective.  The
induced representation names a point by its transpose set as a value of
O(Y); the space of such points is `presubbase_space`.  Everything a
presubbase-represented point can do flows through two facts:

* membership in an intersection of family members over a compact index
  set is one forall-query against the point's payload;
* the neighborhood map of the induced space has a lazy inverse, obtained
  by pulling a filter back along the family -- this is what makes the
  induced space a computable Kolmogorov space, and what the completion
  operator exploits.

Multivalued maps (prebase resolvers, union inverses, translators) are
realized as single-valued selectors returning some correct value per
query; tests check the defining equation of whatever comes back.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .sierpinski import (DEFAULT_FUEL, SValue, and_finite, bot,
                         first_accepting, or_countable, top)
from .spaces import (MissingWitnessError, Point, Space, SpaceMismatch,
                     check_space, compacts, fun_point, inj0, inj1, intern,
                     meet, meet_left, meet_point, meet_right, opens,
                     pair_point, product, coproduct, proj1, proj2, seq_at,
                     seq_point, sequence)
from .hyper import (CompactSat, OpenSet, OvertClosed, as_compact, as_open,
                    as_overt, box_invert, compact_image, compact_intersection,
                    compact_union, coproduct_closed, overt_project,
                    overt_union, point_to_closed, product_closed,
                    product_open, attach_product_witnesses)


@dataclass(eq=False)
class Presubbase:
    """index: the space Y; family: the map B as a transformer from
    Y-points to opens over ``carrier``; transpose_inverse: partial inverse
    of the transpose (the computable-embedding witness), taking an O(Y)
    value in the range of the transpose plus a fuel budget.

    A prebase is a presubbase whose ``resolver`` is set: its
    compact-indexed intersections resolve to overt unions of family
    members, the resolver returning, for each compact index set, one overt
    index set with the same union."""

    index: Space
    carrier: Space
    family: Callable[[Point], OpenSet]
    transpose_inverse: Optional[Callable[[OpenSet, Optional[int]], Point]] = None
    resolver: Optional[Callable[[CompactSat, Optional[int]], OvertClosed]] = None

    def transpose(self, x: Point) -> OpenSet:
        """The open index set {y : x in B_y}, asking ``family(y)`` about x
        for each y.  The one place a presubbase may answer it otherwise:
        `oracle.FinitePresubbase` returns a finite leaf of the index
        (`oracle.LeafOpen`, with the point's name as ``via``) at a warm
        point of its carrier, and this open everywhere else."""
        return OpenSet(self.index, lambda y: self.family(y).chi(x))


@dataclass(eq=False)
class LacombeBase:
    """A family whose overt-indexed unions exhaust O(X), with a selected
    inverse."""

    index: Space
    carrier: Space
    union_map: Callable[[OvertClosed], OpenSet]
    union_inverse: Callable[[OpenSet], OvertClosed]

    def family(self, y: Point) -> OpenSet:
        return self.union_map(point_to_closed(y))


# ---------------------------------------------------------------------------
# The transpose and the induced space


def presubbase_space(b: Presubbase) -> Space:
    """The space of presubbase-represented points: payloads are O(Y)
    values in the range of the transpose.  Carries the neighborhood-map
    inverse, so the result is a computable Kolmogorov space."""
    sp = getattr(b, "_space", None)
    if sp is not None:
        return sp
    sp = Space("presubbase", (b,), label=f"Sub^B({b.index!r})")

    def filter_inverse(flt: OpenSet, fuel: Optional[int] = None) -> Point:
        # pull the filter back along the family: {y : B_y in the filter}
        payload = OpenSet(b.index,
                          lambda y: flt.chi(subbase_open(sp, y).as_point()))
        return Point(sp, payload)

    sp.filter_inverse = filter_inverse
    b._space = sp
    return sp


def embed_point(b: Presubbase, x: Point) -> Point:
    """The canonical name of a carrier point in the induced space."""
    check_space(x, b.carrier)
    return Point(presubbase_space(b), b.transpose(x))


def point_transpose(p: Point) -> OpenSet:
    if p.space.tag != "presubbase":
        raise SpaceMismatch(f"not a presubbase-space point: {p.space!r}")
    return p.payload


def subbase_open(bspace: Space, y: Point) -> OpenSet:
    """The family member at index y as an open of the induced space."""
    return OpenSet(bspace, lambda p: point_transpose(p).chi(y))


def tau_k_open(bspace: Space, k: CompactSat) -> OpenSet:
    """A base open of the induced topology: the intersection of the family
    over a compact index set, semidecided by one forall-query."""
    k = as_compact(k)
    return OpenSet(bspace, lambda p: k.forall_(point_transpose(p)))


# ---------------------------------------------------------------------------
# Prebases


def prebase_from_presubbase(base: Presubbase) -> Presubbase:
    """Close a presubbase under compact intersections: the new family maps
    a compact index set K to the intersection of the original members over
    K, with the empty K denoting the whole carrier.  Any resolver of
    ``base`` is ignored; the result resolves by compact unions, and it has
    a transpose inverse when ``base`` does."""
    index, inv = base.index, base.transpose_inverse

    def family(kpt: Point) -> OpenSet:
        k = as_compact(kpt, index)
        return OpenSet(base.carrier, lambda x: k.forall_(base.transpose(x)))

    def transpose_inverse(w: OpenSet, fuel: Optional[int] = None) -> Point:
        # the original transpose is recovered through singleton saturations
        return inv(box_invert(w), fuel)

    def resolver(kk: CompactSat, fuel: Optional[int] = None) -> OvertClosed:
        z = compact_union(kk)
        return point_to_closed(z.as_point())

    return Presubbase(compacts(index), base.carrier, family,
                      None if inv is None else transpose_inverse, resolver)


def prebase_from_point_closure(base: Presubbase,
                               r: Callable[[CompactSat], Point]) -> Presubbase:
    """A presubbase closed under compact intersections pointwise: ``r``
    selects, for each compact index set, a single index whose member is
    the intersection.  The resolver is then the closure of that point;
    ``base`` itself is left as it is."""

    def resolver(k: CompactSat, fuel: Optional[int] = None) -> OvertClosed:
        return point_to_closed(r(k))

    return replace(base, resolver=resolver)


def lacombe_to_prebase(l: LacombeBase) -> Presubbase:
    """Every Lacombe base is a base: intersect the compact image of the
    family inside O(X), then select an overt index set via the union
    inverse.  Needs the carrier's neighborhood-map inverse to recover
    points from their transposes."""
    if l.carrier.filter_inverse is None:
        raise MissingWitnessError(f"{l.carrier!r} is not computably Kolmogorov")
    bfun = fun_point(l.index, opens(l.carrier),
                     lambda y: l.family(y).as_point())

    def transpose_inverse(w: OpenSet, fuel: Optional[int] = None) -> Point:
        # x's neighborhood filter, read off the transpose: x lies in U iff
        # the selected index set of U meets {y : x in B_y}
        flt = OpenSet(opens(l.carrier),
                      lambda upt: l.union_inverse(as_open(upt)).exists_(w))
        return l.carrier.filter_inverse(flt, fuel)

    def resolver(k: CompactSat, fuel: Optional[int] = None) -> OvertClosed:
        kk = compact_image(bfun, k)
        return l.union_inverse(compact_intersection(kk))

    return Presubbase(l.index, l.carrier, l.family, transpose_inverse,
                      resolver)


def identity_base(x: Space) -> LacombeBase:
    """The identity on O(X) as a Lacombe base, available exactly for
    computable Kolmogorov spaces: unions of overt families of opens are
    computable, and the closure of a single open selects itself."""
    if x.filter_inverse is None:
        raise MissingWitnessError(f"{x!r} carries no neighborhood-map inverse")
    return LacombeBase(
        index=opens(x), carrier=x,
        union_map=lambda a: overt_union(as_overt(a)),
        union_inverse=lambda u: point_to_closed(u.as_point()))


def identity_presubbase(x: Space) -> Presubbase:
    """The identity family U |-> U over index O(X); its transpose is the
    neighborhood map."""
    return Presubbase(index=opens(x), carrier=x, family=as_open,
                      transpose_inverse=x.filter_inverse)


# ---------------------------------------------------------------------------
# Constructions of presubbases and prebases


def _need_overt(sp: Space, who: str) -> OvertClosed:
    if sp.overt is None:
        raise MissingWitnessError(f"{who} needs an overt index, {sp!r} has no witness")
    return sp.overt


def _pairwise_prebase(basex: Presubbase, basey: Presubbase, who: str,
                      carrier_of: Callable[[Space, Space], Space],
                      combine: Callable[[Space, OpenSet, OpenSet], OpenSet],
                      point_of: Callable[[Point, Point], Point]) -> Presubbase:
    """Members of two presubbases combined pairwise over the product of
    their (overt) indices.  Transposes invert through overt projections
    and compact intersections resolve, componentwise, each when both
    factors carry the witness."""
    invx, invy = basex.transpose_inverse, basey.transpose_inverse
    resx, resy = basex.resolver, basey.resolver
    _need_overt(basex.index, who)
    _need_overt(basey.index, who)
    index = attach_product_witnesses(product(basex.index, basey.index))
    carrier = carrier_of(basex.carrier, basey.carrier)

    def family(rs: Point) -> OpenSet:
        return combine(carrier, basex.family(proj1(rs)),
                       basey.family(proj2(rs)))

    def transpose_inverse(w: OpenSet, fuel: Optional[int] = None) -> Point:
        wr = overt_project(w)

        def right_slice(s: Point) -> OpenSet:
            # {r : (r, s) in w}, the slice of w at s in the other coordinate
            check_space(s, w.space.parts[1])
            return OpenSet(w.space.parts[0], lambda r: w.chi(pair_point(r, s)))

        ws = OpenSet(basey.index,
                     lambda s: basex.index.overt.exists_(right_slice(s)))
        return point_of(invx(wr, fuel), invy(ws, fuel))

    def resolver(k: CompactSat, fuel: Optional[int] = None) -> OvertClosed:
        a1 = resx(compact_image(fun_point(index, basex.index, proj1), k), fuel)
        a2 = resy(compact_image(fun_point(index, basey.index, proj2), k), fuel)
        return product_closed(a1, a2)

    return Presubbase(index, carrier, family,
                      None if invx is None or invy is None else transpose_inverse,
                      None if resx is None or resy is None else resolver)


def product_prebase(bx: Presubbase, by: Presubbase) -> Presubbase:
    """Pairwise products of members, indexed by the product of the index
    spaces (both overt).  Compact intersections resolve componentwise."""
    return _pairwise_prebase(bx, by, "product_prebase", product,
                             lambda _carrier, u, v: product_open(u, v),
                             pair_point)


def _meet_open(carrier: Space, ux: OpenSet, uy: OpenSet) -> OpenSet:
    return OpenSet(carrier, lambda z: and_finite(
        [ux.chi(meet_left(z)), uy.chi(meet_right(z))]))


def meet_prebase(bx: Presubbase, by: Presubbase) -> Presubbase:
    """Pairwise intersections of members of two presubbases of the same
    carrier set, as a presubbase of the meet space."""
    return _pairwise_prebase(bx, by, "meet_prebase", meet, _meet_open,
                             meet_point)


def subspace_prebase(basex: Presubbase, zspace: Space) -> Presubbase:
    """Members restricted to a subspace; no index overtness needed and
    both witnesses carry over unchanged."""
    if zspace.tag != "subspace":
        raise SpaceMismatch(f"subspace_prebase needs a subspace, got {zspace!r}")
    inv = basex.transpose_inverse

    def as_base(z: Point) -> Point:
        return Point(basex.carrier, z.payload)

    def family(r: Point) -> OpenSet:
        u = basex.family(r)
        return OpenSet(zspace, lambda z: u.chi(as_base(z)))

    def transpose_inverse(w: OpenSet, fuel: Optional[int] = None) -> Point:
        return Point(zspace, inv(w, fuel).payload)

    return Presubbase(basex.index, zspace, family,
                      None if inv is None else transpose_inverse,
                      basex.resolver)


def coproduct_prebase(basex: Presubbase, basey: Presubbase) -> Presubbase:
    """Tagged union of two families over the coproduct of their (overt)
    indices; transposes invert and compact intersections resolve per
    summand, each when both summands carry the witness."""
    invx, invy = basex.transpose_inverse, basey.transpose_inverse
    resx, resy = basex.resolver, basey.resolver
    wx = _need_overt(basex.index, "coproduct_prebase")
    wy = _need_overt(basey.index, "coproduct_prebase")
    index = coproduct(basex.index, basey.index)
    if index.overt is None:
        index.overt = coproduct_closed(index, wx, wy)
    carrier = coproduct(basex.carrier, basey.carrier)

    def family(t: Point) -> OpenSet:
        tag, inner = t.payload

        def chi(z: Point) -> SValue:
            ztag, zin = z.payload
            if ztag != tag:
                return bot()
            fam = basex.family if tag == 0 else basey.family
            return fam(inner).chi(zin)

        return OpenSet(carrier, chi)

    def transpose_inverse(w: OpenSet, fuel: Optional[int] = None) -> Point:
        w0 = OpenSet(basex.index, lambda r: w.chi(inj0(r, basey.index)))
        w1 = OpenSet(basey.index, lambda s: w.chi(inj1(basex.index, s)))
        # exactly one section is nonempty on the image; race the two
        races = [wx.exists_(w0), wy.exists_(w1)]
        hit = first_accepting(races.__getitem__, 2,
                              fuel if fuel is not None else DEFAULT_FUEL)
        if hit is None:
            raise ValueError("transpose inverse search exhausted its fuel")
        if hit[0] == 0:
            return inj0(invx(w0, fuel), basey.carrier)
        return inj1(basex.carrier, invy(w1, fuel))

    def part(k: CompactSat, tag: int, sp: Space, res, fuel) -> OvertClosed:
        # the summand's resolved index set, empty unless K lies in the
        # summand: a K meeting both summands has an empty intersection
        kt = CompactSat(sp, lambda u: k.forall_(OpenSet(
            index, lambda t: u.chi(t.payload[1]) if t.payload[0] == tag else top())))
        a = res(kt, fuel)
        inside = k.forall_(OpenSet(
            index, lambda t: top() if t.payload[0] == tag else bot()))
        return OvertClosed(sp, lambda u: and_finite([inside, a.exists_(u)]))

    def resolver(k: CompactSat, fuel: Optional[int] = None) -> OvertClosed:
        return coproduct_closed(index, part(k, 0, basex.index, resx, fuel),
                                part(k, 1, basey.index, resy, fuel))

    return Presubbase(index, carrier, family,
                      None if invx is None or invy is None else transpose_inverse,
                      None if resx is None or resy is None else resolver)


# --- finite tuples of an overt space, for the sequence construction ------


def star(s: Space) -> Space:
    """Finite tuples over s, the index space of the sequence construction;
    payloads are tuples of points."""
    sp = intern("star", s, None, "{0!r}*")
    if sp.overt is None and s.overt is not None:
        sw = s.overt
        sp.overt = OvertClosed(sp, lambda w: or_countable(lambda n: _exists_tuple(
            s, (sw,) * n, lambda t: w.chi(star_point(sp, t)))))
    return sp


def _exists_tuple(s: Space, overts: Sequence[OvertClosed],
                  chi: Callable[[tuple], SValue], prefix: tuple = ()) -> SValue:
    """Some tuple of s-points, the j-th meeting ``overts[j]``, has
    ``chi(prefix + tuple)``: nested overt existentials, outermost first."""
    j = len(prefix)
    if j == len(overts):
        return chi(prefix)
    return overts[j].exists_(OpenSet(
        s, lambda x: _exists_tuple(s, overts, chi, prefix + (x,))))


def star_point(star_space: Space, points: tuple) -> Point:
    return Point(star_space, tuple(points))


# Longest index tuple the sequence resolver tries as a certified length
# bound of a compact index set.
SEQUENCE_LENGTH_CAP = 64


def sequence_prebase(basey: Presubbase) -> Presubbase:
    """Cylinder opens over the sequence space: a tuple of indices
    constrains that many leading components and leaves the tail free;
    each witness is there when ``basey`` carries it."""
    invy, resy = basey.transpose_inverse, basey.resolver
    sw = _need_overt(basey.index, "sequence_prebase")
    index = star(basey.index)
    carrier = sequence(basey.carrier)

    def family(t: Point) -> OpenSet:
        idxs = t.payload
        return OpenSet(carrier, lambda q: and_finite(
            [basey.family(idxs[i]).chi(seq_at(q, i)) for i in range(len(idxs))]))

    def component_open(w: OpenSet, n: int) -> OpenSet:
        """{s : some length-(n+1) tuple in w ends with s}: the overt
        projection of the length-(n+1) slice onto its last component."""
        return OpenSet(basey.index, lambda s_last: _exists_tuple(
            basey.index, (sw,) * n,
            lambda t: w.chi(star_point(index, t + (s_last,)))))

    def transpose_inverse(w: OpenSet, fuel: Optional[int] = None) -> Point:
        return seq_point(basey.carrier,
                         lambda n: invy(component_open(w, n), fuel))

    def resolver(k: CompactSat, fuel: Optional[int] = None) -> OvertClosed:
        budget = fuel if fuel is not None else DEFAULT_FUEL
        # certify an upper bound on the tuple lengths occurring in k
        m = None
        for cap in range(SEQUENCE_LENGTH_CAP + 1):
            short = OpenSet(index, lambda t, _c=cap: top() if len(t.payload) <= _c else bot())
            sv = k.forall_(short)
            lim = budget if sv.bound is None else min(sv.bound, budget)
            if sv.status(lim) is not None:
                m = cap
                break
        if m is None:
            raise ValueError("no length bound certified within the cap")
        ais = []
        for i in range(m):
            ki = CompactSat(basey.index, lambda u, _i=i: k.forall_(OpenSet(
                index,
                lambda t: u.chi(t.payload[_i]) if len(t.payload) > _i else top())))
            ais.append(resy(ki, fuel))

        return OvertClosed(index, lambda w: _exists_tuple(
            basey.index, ais, lambda t: w.chi(star_point(index, t))))

    return Presubbase(index, carrier, family,
                      None if invy is None else transpose_inverse,
                      None if resy is None else resolver)


# ---------------------------------------------------------------------------
# The completion operator


@dataclass(eq=False)
class Completion:
    """The induced space of the identity presubbase, with the two
    translators making the operation a closure: points map forward through
    their neighborhood filters, opens pull back by evaluation."""

    space: Space
    forward: Callable[[Point], Point]
    open_back: Callable[[OpenSet], OpenSet]


def kolmogorov_completion(x: Space) -> Completion:
    """Re-represent points by their neighborhood filters.  For a space
    whose final topology is T0 this changes nothing topologically but
    equips the space with the neighborhood-map inverse; non-T0 inputs are
    only detectable at oracle scale."""
    b = identity_presubbase(x)
    sp = presubbase_space(b)
    return Completion(sp, lambda p: embed_point(b, p),
                      lambda u: subbase_open(sp, u.as_point()))


def base_completion(b: Presubbase) -> LacombeBase:
    """Close a presubbase into a Lacombe base: the identity base of the
    space the presubbase induces."""
    return identity_base(presubbase_space(b))


# ---------------------------------------------------------------------------
# The Galois connection between representations and presubbases


@dataclass(eq=False)
class GaloisWitness:
    """A realizer for one side of the adjunction between representations
    and presubbases of the same carrier.

    direction "rep_to_base": ``translator`` maps a carrier point to its
    transpose set as an O(Y) value (the representation refines the induced
    one).  direction "base_to_rep": ``translator`` maps an index point to
    the family member as an open of the carrier (the family factors
    through the open-set space)."""

    direction: str
    x_space: Space
    y_space: Space
    translator: Callable


def _swap(w: GaloisWitness, want: str, to: str, index: Space,
          carrier: Space) -> GaloisWitness:
    """The other side of the adjunction: ``w``'s translator read as a
    family from ``index`` to opens of ``carrier``, and transposed."""
    if w.direction != want:
        raise ValueError(f"expected a {want} witness, got {w.direction}")
    b = Presubbase(index, carrier, w.translator)
    return GaloisWitness(to, w.x_space, w.y_space, b.transpose)


def galois_forward(w: GaloisWitness) -> GaloisWitness:
    """Transpose a point-side witness into a family-side witness."""
    return _swap(w, "rep_to_base", "base_to_rep", w.x_space, w.y_space)


def galois_backward(w: GaloisWitness) -> GaloisWitness:
    """Transpose a family-side witness into a point-side witness."""
    return _swap(w, "base_to_rep", "rep_to_base", w.y_space, w.x_space)
