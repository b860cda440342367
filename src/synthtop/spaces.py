"""Represented-space constructors and the cartesian-closed plumbing.

A `Space` is a constructor tree telling us how a `Point`'s payload is
read; a `Point` is a payload tagged with its space.  All maps between
spaces are shallow transformers (Python callables on points): the
machinery composes realizers, it does not serialize them.

Shapes are interned: every constructor built on a left part ``x``
returns the one space of that shape, kept in a dict on ``x`` keyed by
the tag and the right part (a space, a subspace predicate, or nothing).
A derived space therefore lives exactly as long as its left part (and
keeps its right part alive that long), there is no module-level table
of spaces, and "same space?" is ``is``.  ``opens(x)`` and ``compacts(x)``,
asked for on every hyperspace query, read their shape from that dict
under its key, and call `intern` only to make it.

A function point applies its transformer once per argument point: the
image is kept on the function point, so every query asking for f(x)
reads the same image.  Sharing it is sound because names replay by step
count (`kernel.Name`): an image some other query has already driven
answers each reader as a fresh one would.

Capability witnesses are attached to spaces where available rather than
derived: ``overt`` is a whole-space overt value and ``filter_inverse``
a partial inverse of the neighborhood map.  Since a shape is one object,
a witness is per shape: it is filled in only while the slot is empty.
Spaces without a witness simply lack the corresponding operations.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

from .kernel import delayed_name
from .sierpinski import SValue, read_names


class SpaceMismatch(ValueError):
    """A point or hyperspace value was used over the wrong space."""


class MissingWitnessError(ValueError):
    """The operation needs a capability witness this space does not carry."""


class Space:
    """A space shape.  ``derived`` holds the spaces built on this one,
    keyed by tag and right part (`intern`, the one place that makes
    them); `opens` and `compacts` read O(self) and K-(self) from it
    directly once made.  They get no slots: two more slots would move
    every space into a larger allocator size class."""

    __slots__ = ("tag", "parts", "label", "overt", "filter_inverse",
                 "derived", "__weakref__")

    def __init__(self, tag: str, parts: tuple = (), label: str = ""):
        self.tag = tag
        self.parts = parts
        self.label = label
        self.overt = None            # OvertClosed over self, or None
        self.filter_inverse = None   # (OpenSet over opens(self), fuel) -> Point
        self.derived: dict = {}      # (tag, right part) -> space built on self

    def __repr__(self):
        return self.label or f"Space<{self.tag}>"


NAT = Space("nat", label="N")
SIERP = Space("sierp", label="S")


def intern(tag: str, x: Space, right, label: str) -> Space:
    """The one space of shape ``tag`` on ``x`` and ``right`` (None for a
    one-part shape).  ``label`` is formatted with x and right, once."""
    key = (tag, right)
    sp = x.derived.get(key)
    if sp is None:
        parts = (x,) if right is None else (x, right)
        sp = x.derived[key] = Space(tag, parts, label.format(x, right))
    return sp


def product(x: Space, y: Space) -> Space:
    return intern("product", x, y, "({0!r} x {1!r})")


def coproduct(x: Space, y: Space) -> Space:
    return intern("coproduct", x, y, "({0!r} + {1!r})")


def meet(x: Space, y: Space) -> Space:
    return intern("meet", x, y, "({0!r} & {1!r})")


def subspace(x: Space, member: Callable[["Point"], bool]) -> Space:
    """A subspace: points are x-points asserted to satisfy ``member``.
    The predicate is only usable at oracle scale; no new names appear.
    Two predicates give two subspaces, even if they agree."""
    return intern("subspace", x, member, "Sub({0!r})")


def sequence(x: Space) -> Space:
    return intern("sequence", x, None, "{0!r}^N")


def function(x: Space, y: Space) -> Space:
    return intern("function", x, y,
                  "O({0!r})" if y is SIERP else "C({0!r},{1!r})")


def opens(x: Space) -> Space:
    """O(x), realized as the function space into Sierpinski."""
    return x.derived.get(("function", SIERP)) or function(x, SIERP)


def overts(x: Space) -> Space:
    """A+(x): closed sets given by their meets-this-open semidecider."""
    return intern("overts", x, None, "A+({0!r})")


def compacts(x: Space) -> Space:
    """K-(x): saturated compacts given by their inside-this-open semidecider."""
    return (x.derived.get(("compacts", None))
            or intern("compacts", x, None, "K-({0!r})"))


def check_space(point: "Point", space: Space, what: str = "point") -> None:
    if point.space is not space:
        raise SpaceMismatch(f"{what} lives over {point.space!r}, expected {space!r}")


class Point:
    __slots__ = ("space", "payload")

    def __init__(self, space: Space, payload):
        self.space = space
        self.payload = payload

    def __repr__(self):
        return f"Point({self.space!r})"


# ---------------------------------------------------------------------------
# Base spaces


def nat_point(k: int, delay: int = 0) -> Point:
    return Point(NAT, delayed_name([(delay, k)], tail=k))


def read_first(p: Point, fuel: int) -> Optional[int]:
    """First value of a name-backed point within fuel steps (`Name.prefix`)."""
    vals = p.payload.prefix(1, fuel)
    return vals[0] if vals else None


def sierp_point(v: SValue) -> Point:
    return Point(SIERP, v)


def sierp_value(p: Point) -> SValue:
    check_space(p, SIERP)
    return p.payload


def on_value(p: Point, k: Callable[[int], SValue],
             inner_bound: Optional[int] = None) -> SValue:
    """Semidecision reading the first value of a name-backed point and
    continuing with ``k(value)``; ``inner_bound`` must dominate the bound
    of every continuation ``k`` can return (`read_names`)."""
    return read_names((p.payload,), k, inner_bound)


# ---------------------------------------------------------------------------
# Products, coproducts, meets


def pair_point(x: Point, y: Point) -> Point:
    return Point(product(x.space, y.space), (x, y))


def proj1(p: Point) -> Point:
    if p.space.tag != "product":
        raise SpaceMismatch(f"proj1 on {p.space!r}")
    return p.payload[0]


def proj2(p: Point) -> Point:
    if p.space.tag != "product":
        raise SpaceMismatch(f"proj2 on {p.space!r}")
    return p.payload[1]


def inj0(x: Point, other: Space) -> Point:
    return Point(coproduct(x.space, other), (0, x))


def inj1(other: Space, y: Point) -> Point:
    return Point(coproduct(other, y.space), (1, y))


def meet_point(x_view: Point, y_view: Point) -> Point:
    """Both views must denote the same carrier element; that obligation is
    the caller's, since the kernel cannot detect a mismatch."""
    return Point(meet(x_view.space, y_view.space), (x_view, y_view))


def meet_left(p: Point) -> Point:
    if p.space.tag != "meet":
        raise SpaceMismatch(f"meet_left on {p.space!r}")
    return p.payload[0]


def meet_right(p: Point) -> Point:
    if p.space.tag != "meet":
        raise SpaceMismatch(f"meet_right on {p.space!r}")
    return p.payload[1]


# ---------------------------------------------------------------------------
# Sequences


def seq_point(x: Space, terms: Union[Sequence[Point], Callable[[int], Point]]) -> Point:
    """A sequence point; a callable ``terms`` is asked for each term once."""
    if callable(terms):
        return Point(sequence(x), lru_cache(maxsize=None)(terms))
    return Point(sequence(x), list(terms).__getitem__)


def seq_at(p: Point, n: int) -> Point:
    if p.space.tag != "sequence":
        raise SpaceMismatch(f"seq_at on {p.space!r}")
    return p.payload(n)


# ---------------------------------------------------------------------------
# Function spaces


def fun_point(dom: Space, cod: Space, transformer: Callable[[Point], Point]) -> Point:
    """A point of C(dom, cod) applying ``transformer`` once per argument
    point: each image is kept in a dict of this point's own, keyed by the
    argument (by identity), and dies with it.  A transformer that raises
    keeps nothing, so the next application calls it, and raises, again."""
    return Point(function(dom, cod), lru_cache(maxsize=None)(transformer))


def apply_fun(f: Point, x: Point) -> Point:
    """f(x): the one image of ``x`` under a `fun_point` (any other
    function point's payload is called as it is)."""
    if f.space.tag != "function":
        raise SpaceMismatch(f"apply on {f.space!r}")
    check_space(x, f.space.parts[0], "argument")
    return f.payload(x)


def curry(f: Point) -> Point:
    fs = f.space
    if fs.tag != "function" or fs.parts[0].tag != "product":
        raise SpaceMismatch(f"curry on {fs!r}")
    x, y = fs.parts[0].parts
    z = fs.parts[1]

    def outer(xp: Point) -> Point:
        return fun_point(y, z, lambda yp: apply_fun(f, pair_point(xp, yp)))

    return fun_point(x, function(y, z), outer)


def uncurry(f: Point) -> Point:
    fs = f.space
    if fs.tag != "function" or fs.parts[1].tag != "function":
        raise SpaceMismatch(f"uncurry on {fs!r}")
    x = fs.parts[0]
    y, z = fs.parts[1].parts

    def flat(p: Point) -> Point:
        return apply_fun(apply_fun(f, proj1(p)), proj2(p))

    return fun_point(product(x, y), z, flat)
