"""Hyperspace values and the computable operations connecting them.

An `OpenSet` over X carries its membership semidecider chi; an
`OvertClosed` (A+) carries the meets-this-open semidecider; a
`CompactSat` (K-) carries the inside-this-open semidecider.  These
positive views are the only hyperspace values: there are no negative
(A-) or two-sided closed and compact values.

Every operation below is a realizer composition; none of them decides
anything.  The inverse embeddings perform unbounded dovetailed search, so
callers supply fuel where a concrete point must come out.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from .kernel import Name
from .sierpinski import SValue, and_finite, or_countable, read_table, top
from .spaces import (NAT, Point, SIERP, Space, SpaceMismatch,
                     MissingWitnessError, apply_fun, check_space, compacts,
                     fun_point, inj0, inj1, nat_point, opens, overts,
                     pair_point, product, sierp_point,
                     sierp_value)


class OpenSet:
    """An open subset of a space: a continuous chi into Sierpinski.
    chi must be extensional -- points with extensionally equal payloads
    get the same acceptance-ever outcome.

    An `OpenSet` is its own payload as a point of O(X): calling it is the
    function-space transformer x |-> chi(x) as a Sierpinski point, and
    `as_open` hands such a point back as this very object."""

    __slots__ = ("space", "chi")

    def __init__(self, space: Space, chi: Callable[[Point], SValue]):
        self.space = space
        self.chi = chi

    def __call__(self, x: Point) -> Point:
        return sierp_point(self.chi(x))

    def as_point(self) -> Point:
        return Point(opens(self.space), self)

    def __repr__(self):
        return f"OpenSet({self.space!r})"


class OvertClosed:
    """A+ value: the closed set A seen through U |-> [A meets U]."""

    __slots__ = ("space", "exists_fn")

    def __init__(self, space: Space, exists_fn):
        self.space = space
        self.exists_fn = exists_fn

    def exists_(self, u: Union[OpenSet, Point]) -> SValue:
        if not isinstance(u, OpenSet) or u.space is not self.space:
            u = as_open(u, self.space)
        return self.exists_fn(u)

    def as_point(self) -> Point:
        return Point(overts(self.space), self)

    def __repr__(self):
        return f"OvertClosed({self.space!r})"


class CompactSat:
    """K- value: the saturated compact K seen through U |-> [K inside U]."""

    __slots__ = ("space", "forall_fn")

    def __init__(self, space: Space, forall_fn):
        self.space = space
        self.forall_fn = forall_fn

    def forall_(self, u: Union[OpenSet, Point]) -> SValue:
        if not isinstance(u, OpenSet) or u.space is not self.space:
            u = as_open(u, self.space)
        return self.forall_fn(u)

    def as_point(self) -> Point:
        return Point(compacts(self.space), self)

    def __repr__(self):
        return f"CompactSat({self.space!r})"


# ---------------------------------------------------------------------------
# Coercions


def as_open(u, space: Optional[Space] = None) -> OpenSet:
    if isinstance(u, OpenSet):
        o = u
    elif isinstance(u, Point) and isinstance(u.payload, OpenSet):
        o = u.payload
    elif isinstance(u, Point) and u.space.tag == "function" and u.space.parts[1] is SIERP:
        base = u.space.parts[0]
        o = OpenSet(base, lambda x, _f=u.payload: sierp_value(_f(x)))
    else:
        raise SpaceMismatch(f"not an open-set value: {u!r}")
    if space is not None and o.space is not space:
        raise SpaceMismatch(f"open over {o.space!r}, expected {space!r}")
    return o


def as_overt(a, space: Optional[Space] = None) -> OvertClosed:
    if isinstance(a, Point) and a.space.tag == "overts":
        a = a.payload
    if not isinstance(a, OvertClosed):
        raise SpaceMismatch(f"not an overt value: {a!r}")
    if space is not None and a.space is not space:
        raise SpaceMismatch(f"overt over {a.space!r}, expected {space!r}")
    return a


def as_compact(k, space: Optional[Space] = None) -> CompactSat:
    if isinstance(k, Point) and k.space.tag == "compacts":
        k = k.payload
    if not isinstance(k, CompactSat):
        raise SpaceMismatch(f"not a compact value: {k!r}")
    if space is not None and k.space is not space:
        raise SpaceMismatch(f"compact over {k.space!r}, expected {space!r}")
    return k


# ---------------------------------------------------------------------------
# The computable hyperspace operations


def neighborhood_filter(x: Point) -> OpenSet:
    """The filter of x as an open subset of O(X): accepts U iff x is in U."""
    return OpenSet(opens(x.space), lambda upt: as_open(upt).chi(x))


def point_to_closed(x: Point) -> OvertClosed:
    """Closure of a singleton: meets U exactly when x lies in U."""
    return OvertClosed(x.space, lambda u: u.chi(x))


def point_to_compact(x: Point) -> CompactSat:
    """Saturation of a singleton: inside U exactly when x lies in U."""
    return CompactSat(x.space, lambda u: u.chi(x))


def preimage(f: Point, v: OpenSet) -> OpenSet:
    """f^-1(V), the open making images computable."""
    if f.space.tag != "function":
        raise SpaceMismatch(f"preimage needs a function point, got {f.space!r}")
    return OpenSet(f.space.parts[0], lambda x: v.chi(apply_fun(f, x)))


def compact_image(f: Point, k: CompactSat) -> CompactSat:
    """sat f(K): inside V iff K is inside f^-1(V)."""
    check_fun(f, k.space)
    return CompactSat(f.space.parts[1], lambda v: k.forall_(preimage(f, v)))


def closed_image(f: Point, a: OvertClosed) -> OvertClosed:
    """cl f(A): meets V iff A meets f^-1(V)."""
    check_fun(f, a.space)
    return OvertClosed(f.space.parts[1], lambda v: a.exists_(preimage(f, v)))


def check_fun(f: Point, dom: Space) -> None:
    if f.space.tag != "function" or f.space.parts[0] is not dom:
        raise SpaceMismatch(f"function over {f.space!r} applied to {dom!r} value")


def section(x: Point, u: OpenSet) -> OpenSet:
    """The slice {y : (x, y) in U} of an open over a product; each pair is
    built over U's own space, so a y over another space is refused here."""
    sp = u.space
    if sp.tag != "product":
        raise SpaceMismatch(f"section over {sp!r}")
    ys = sp.parts[1]
    check_space(x, sp.parts[0])

    def chi(y: Point) -> SValue:
        if y.space is not ys:
            raise SpaceMismatch(f"point lives over {y.space!r}, expected {ys!r}")
        return u.chi(Point(sp, (x, y)))

    return OpenSet(ys, chi)


def product_open(v: OpenSet, u: OpenSet) -> OpenSet:
    """V x U via finite conjunction of the two memberships."""
    sp = product(v.space, u.space)

    def chi(p: Point) -> SValue:
        check_space(p, sp)
        a, b = p.payload
        return and_finite([v.chi(a), u.chi(b)])

    return OpenSet(sp, chi)


def product_closed(a: OvertClosed, b: OvertClosed) -> OvertClosed:
    """cl(A x B): meets W iff A meets {x : B meets the slice of W at x}.
    This route is uniformly computable; no extra witness is needed."""
    sp = product(a.space, b.space)

    def ex(w: OpenSet) -> SValue:
        inner = OpenSet(a.space, lambda x: b.exists_(section(x, w)))
        return a.exists_(inner)

    return OvertClosed(sp, ex)


def coproduct_closed(sp: Space, a: OvertClosed, b: OvertClosed) -> OvertClosed:
    """cl(A + B) over the coproduct space ``sp`` of A's and B's spaces:
    meets W iff A meets the left slice of W or B meets the right one."""
    x, y = sp.parts

    def ex(w: OpenSet) -> SValue:
        left = OpenSet(x, lambda xp: w.chi(inj0(xp, y)))
        right = OpenSet(y, lambda yp: w.chi(inj1(x, yp)))
        return or_countable([a.exists_(left), b.exists_(right)])

    return OvertClosed(sp, ex)


def overt_union(family: OvertClosed) -> OpenSet:
    """Union of an overt family of opens: x is in the union iff the family
    meets the filter of x."""
    base = _base_of_hyper(family.space, "overt_union")
    return OpenSet(base, lambda x: family.exists_(neighborhood_filter(x)))


def compact_intersection(family: CompactSat) -> OpenSet:
    """Intersection of a compact family of opens: x is in it iff the family
    sits inside the filter of x."""
    base = _base_of_hyper(family.space, "compact_intersection")
    return OpenSet(base, lambda x: family.forall_(neighborhood_filter(x)))


def _base_of_hyper(space: Space, op: str) -> Space:
    if space.tag == "function" and space.parts[1] is SIERP:
        return space.parts[0]
    raise SpaceMismatch(f"{op} needs a value over O(X), got {space!r}")


def compact_union(family: CompactSat) -> CompactSat:
    """sat of the union of a compact family of compacts: inside U iff the
    family sits inside Box(U)."""
    if family.space.tag != "compacts":
        raise SpaceMismatch(f"compact_union over {family.space!r}")
    base = family.space.parts[0]
    return CompactSat(base, lambda u: family.forall_(box_embed(u)))


# --- the three embeddings and their partial inverses ---


def filter_embed(k: CompactSat) -> OpenSet:
    """K as the open {U : K inside U} of O(X), coerced once by K.forall_."""
    return OpenSet(opens(k.space), k.forall_)


def filter_invert(w: OpenSet) -> CompactSat:
    """Partial inverse of `filter_embed`: only meaningful on its image."""
    return CompactSat(_base_of_hyper(w.space, "filter_invert"),
                      lambda u: w.chi(u.as_point()))


def trace_embed(a: OvertClosed) -> OpenSet:
    """A as the open {U : A meets U} of O(X), coerced once by A.exists_."""
    return OpenSet(opens(a.space), a.exists_)


def trace_invert(w: OpenSet) -> OvertClosed:
    return OvertClosed(_base_of_hyper(w.space, "trace_invert"),
                       lambda u: w.chi(u.as_point()))


def box_embed(u: OpenSet) -> OpenSet:
    """U as the open {K : K inside U} of K-(X)."""
    return OpenSet(compacts(u.space), lambda kpt: as_compact(kpt).forall_(u))


def box_invert(w: OpenSet) -> OpenSet:
    """Partial inverse of `box_embed`, via membership of singleton
    saturations: x in U iff sat{x} is in Box(U)."""
    if w.space.tag != "compacts":
        raise SpaceMismatch(f"box_invert over {w.space!r}")
    base = w.space.parts[0]
    return OpenSet(base, lambda x: w.chi(point_to_compact(x).as_point()))


def compact_open_embed(f: Point) -> OpenSet:
    """The graph-like open {(K, U) : f(K) inside U} over K-(X) x O(Y)."""
    if f.space.tag != "function":
        raise SpaceMismatch(f"compact_open_embed needs a function point")
    x, y = f.space.parts
    sp = product(compacts(x), opens(y))

    def chi(p: Point) -> SValue:
        check_space(p, sp)
        kpt, upt = p.payload
        return as_compact(kpt).forall_(preimage(f, as_open(upt)))

    return OpenSet(sp, chi)


def compact_open_invert(w: OpenSet, fuel: Optional[int] = None) -> Point:
    """Recover f from its compact-open open.  Needs the codomain's
    neighborhood-map inverse witness; undefined off the image."""
    sp = w.space
    if sp.tag != "product" or sp.parts[0].tag != "compacts":
        raise SpaceMismatch(f"compact_open_invert over {sp!r}")
    x = sp.parts[0].parts[0]
    y = _base_of_hyper(sp.parts[1], "compact_open_invert")
    inv = y.filter_inverse
    if inv is None:
        raise MissingWitnessError(f"{y!r} carries no neighborhood-map inverse")

    def transform(xp: Point) -> Point:
        return inv(section(point_to_compact(xp).as_point(), w), fuel)

    return fun_point(x, y, transform)


# ---------------------------------------------------------------------------
# Overt projection (a property-with-data of the projected-away space)


def overt_project(u: OpenSet) -> OpenSet:
    """{y : some x pairs with y into U}, for U over Y x X with X overt."""
    if u.space.tag != "product":
        raise SpaceMismatch(f"overt_project over {u.space!r}")
    y, x = u.space.parts
    if x.overt is None:
        raise MissingWitnessError(f"{x!r} carries no overtness witness")
    wit = x.overt
    return OpenSet(y, lambda yp: wit.exists_(section(yp, u)))


# ---------------------------------------------------------------------------
# Witness constructors for the ground spaces


def whole_open(sp: Space) -> OpenSet:
    """The whole space as an open set."""
    return OpenSet(sp, lambda _x: top())


def attach_product_witnesses(sp: Space) -> Space:
    """Fill in composable witnesses on a product space in place."""
    x, y = sp.parts
    if sp.overt is None and x.overt is not None and y.overt is not None:
        sp.overt = product_closed(x.overt, y.overt)
    if sp.filter_inverse is None:
        if x.filter_inverse is not None and y.filter_inverse is not None:

            def inv(flt: OpenSet, fuel=None) -> Point:
                fx = OpenSet(opens(x), lambda upt: flt.chi(
                    product_open(as_open(upt), whole_open(y)).as_point()))
                fy = OpenSet(opens(y), lambda upt: flt.chi(
                    product_open(whole_open(x), as_open(upt)).as_point()))
                return pair_point(x.filter_inverse(fx, fuel),
                                  y.filter_inverse(fy, fuel))

            sp.filter_inverse = inv
    return sp


# --- witnesses for the ground spaces -----------------------------------
#
# Sierpinski: the whole space is overt (every nonempty open contains the
# accepting point), and a point is recovered from its filter by asking
# about the open {accepting point}.  N: overt by dovetailing over all
# naturals; a point is recovered by searching for the accepted singleton.


def nat_singleton_open(n: int) -> OpenSet:
    return OpenSet(NAT, lambda p: read_table((p.payload,), lambda v: v == n))


def _install_ground_witnesses() -> None:
    SIERP.overt = OvertClosed(SIERP, lambda u: u.chi(sierp_point(top())))
    SIERP.filter_inverse = lambda flt, fuel=None: sierp_point(
        flt.chi(OpenSet(SIERP, sierp_value).as_point()))

    NAT.overt = OvertClosed(
        NAT, lambda u: or_countable(lambda i: u.chi(nat_point(i))))

    def nat_inv(flt: OpenSet, fuel=None) -> Point:
        # lazily emit the index whose singleton open the filter accepts;
        # the point is pending until the race over all singletons lands
        def gen():
            race = or_countable(
                lambda i: flt.chi(nat_singleton_open(i).as_point())).make()
            while not race.step():
                yield None
            while True:
                yield race.winner

        return Point(NAT, Name(gen))

    NAT.filter_inverse = nat_inv


_install_ground_witnesses()
