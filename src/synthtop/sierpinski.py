"""The Sierpinski space of semidecisions and its lawful combinators.

An `SValue` is a *description* of an accept-or-keep-waiting process.
Descriptions are immutable and freely shareable (`top` and `bot` are
single shared values).  A run is one `run` call with a stepper of its
own, so acceptance step counts never depend on what other runs happen
to have computed already; `SValue.status` is one fresh run.

There is deliberately no negation and no countable conjunction here:
waiting is one-sided, and unbounded universal quantification exists only
as the forall carried by compact-set values.  Finite conjunction and
countable disjunction are the whole logic, and the only combinators.  A
delay is not a combinator: it lives in the name a value reads
(`kernel.delayed_name`).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Optional, Sequence, Union

from .kernel import Dovetail, Name, NameReader, dovetail_bound

DEFAULT_FUEL = 10 ** 6
NEGATIVE_FUEL = 10 ** 4  # default budget for "never accepts" assertions
NEVER = math.inf  # the known outcome of a value that never accepts


class _Tally:
    """Process-wide count of semidecision steps driven; suite reports use
    it as their fuel-used figure."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0


TALLY = _Tally()


class SValue:
    """A semidecision: an immutable description, freely shared by points
    and queries.  ``make()`` builds a fresh deterministic stepper;
    ``bound``, where set, is a certified horizon: if the process ever
    accepts, it accepts within ``bound`` steps.  A sound bound turns
    "pending at bound" into "pending forever".

    ``known``, where set, is the outcome of every run, fixed at
    construction: the exact acceptance step, or `NEVER`.  The combinators
    fold it from children that are all known (constants, finite
    conjunctions and disjunctions, and reads of names whose first values
    are cached or due at their first step).  Its ``make`` returns a flat
    stepper accepting at that step, or ``never``, so an unknown parent
    steps it as a leaf.

    No code writes a slot after ``__init__``: the state of a run lives on
    the stepper that `run` makes for it."""

    __slots__ = ("_make", "bound", "known")

    def __init__(self, make: Optional[Callable[[], object]],
                 bound: Optional[int] = None,
                 known: Union[int, float, None] = None):
        self._make = make  # unused, and may be None, once known is set
        self.bound = bound
        self.known = known

    def make(self):
        """A fresh stepper for one run."""
        k = self.known
        if k is None:
            return self._make()
        return _NEVER if k == NEVER else _AcceptAt(k)

    def status(self, fuel: int) -> Optional[int]:
        """The answer of `run`: one fresh run.  A known value answers by
        arithmetic, with no stepper, and charges ``TALLY`` what stepping
        would: ``known`` if it accepts within ``fuel``, else
        ``max(fuel, 0)``."""
        k = self.known
        if k is None:
            return run(self, fuel)[0]
        if k <= fuel:
            TALLY.n += k
            return k
        if fuel > 0:
            TALLY.n += fuel
        return None


def run(value: SValue, fuel: int) -> tuple[Optional[int], object]:
    """One fresh run of ``value``: (accepted step count if acceptance
    happens within ``fuel`` steps, else None; the run's stepper).

    This is the one place where steppers run and, but for the arithmetic
    of known values in `SValue.status`, where ``TALLY`` is charged: every
    logical step, as if stepped one by one.  Instantiation is the
    step-0 observation: a stepper born accepted accepts at 0, and a
    ``make`` that raises raises at step 0 and charges nothing.  A
    ``never`` stepper is pending at once, and one that goes ``never``
    (a `_Read` whose continuation never accepts) is stepped no further:
    either is charged ``fuel``.  A `Dovetail` is advanced by
    `Dovetail.run`, which skips its dead slots.  An exception raised at
    step s is charged s steps and raised; runs are deterministic, so it
    recurs at every ``fuel >= s``.  Below step 0 (``fuel < 0``) the run
    is pending, makes no stepper and charges nothing."""
    if fuel < 0:
        return None, None
    r = value.make()
    if r.done:
        return 0, r
    if r.never:
        TALLY.n += fuel
        return None, r
    ran = 0
    try:
        if isinstance(r, Dovetail):
            at = r.run(fuel)
        else:
            at = None
            while ran < fuel:
                ran += 1
                if r.step():
                    at = ran
                    break
                if r.never:
                    break
    except Exception:
        TALLY.n += r.steps + 1 if isinstance(r, Dovetail) else ran
        raise
    TALLY.n += fuel if at is None else at
    return at, r


# ---------------------------------------------------------------------------
# Steppers


class _Never:
    __slots__ = ()
    done = False
    never = True

    def step(self) -> bool:
        return False


_NEVER = _Never()  # stateless, safe to share


class _AcceptAt:
    __slots__ = ("left", "done")
    never = False

    def __init__(self, n: int):
        self.left = n
        self.done = n <= 0

    def step(self) -> bool:
        n = self.left - 1
        self.left = n
        if n <= 0:
            self.done = True
            return True
        return False


class _All:
    """Round-robin over the not-yet-accepted children, one forwarded step
    per own step; accepted children leave the rotation."""

    __slots__ = ("live", "pos", "done")
    never = False

    def __init__(self, steppers):
        self.live = [s for s in steppers if not s.done]
        self.pos = 0
        self.done = not self.live

    def step(self) -> bool:
        live = self.live
        i = self.pos
        if live[i].step():
            del live[i]
            if not live:
                self.done = True
                return True
        else:
            i += 1
        if i >= len(live):
            i = 0
        self.pos = i
        return False


class _Read:
    """Read the first value of each name in turn, one reader step per own
    step; the step after an arrival goes to the next name's reader.  On
    the last arrival ``then(*values)`` is made: a born-accepted result
    accepts on that step, a ``never`` result makes this stepper ``never``,
    and any other result is stepped on as the inner stepper."""

    __slots__ = ("names", "then", "reader", "vals", "inner", "done", "never")

    def __init__(self, names: Sequence[Name], then: Callable[..., SValue]):
        self.names = names
        self.then = then
        self.reader = NameReader(names[0])
        self.vals: list[int] = []
        self.inner = None
        self.done = False
        self.never = False

    def step(self) -> bool:
        inner = self.inner
        if inner is None:
            v = self.reader.step()
            if v is None:
                return False
            vals = self.vals
            vals.append(v)
            names = self.names
            if len(vals) < len(names):
                self.reader = NameReader(names[len(vals)])
                return False
            inner = self.inner = self.then(*vals).make()
            self.never = inner.never
            if not inner.done:
                return False
        elif not inner.step():
            return False
        self.done = True
        return True


# ---------------------------------------------------------------------------
# Constants and combinators


_TOP = SValue(None, 0, 0)
_BOT = SValue(None, 0, NEVER)  # bound 0 is vacuously sound: never accepts


def top() -> SValue:
    return _TOP


def bot() -> SValue:
    return _BOT


def accept_at(n: int) -> SValue:
    k = max(n, 0)
    return SValue(None, k, k)


def and_finite(vs: Iterable[SValue]) -> SValue:
    """Accepts iff all inputs accept; total step count is the sum of the
    children's counts (already-accepted children cost nothing).  Any
    iterable, built once (a list is not copied).  A known family folds
    ``known`` and ``bound`` in one loop; at the first unknown child the
    loop stops, the value steps, and ``bound`` is summed on its own."""
    vs = vs if type(vs) is list else list(vs)
    known: Union[int, float] = 0
    bound: Optional[int] = 0
    for v in vs:
        k = v.known
        if k is None:
            break
        known += k
        if bound is not None:
            b = v.bound
            bound = None if b is None else bound + b
    else:
        return SValue(None, bound, known)
    bound = 0
    for v in vs:
        b = v.bound
        if b is None:
            bound = None
            break
        bound += b
    return SValue(lambda: _All([v.make() for v in vs]), bound)


def or_countable(family: Union[Iterable[SValue], Callable[[int], SValue]]
                 ) -> SValue:
    """Accepts iff some input accepts, with fairness inherited from the
    dovetail schedule.  Accepts any finite iterable, built once (a list is
    not copied), or an index function over an infinite family.  ``bound``
    and ``known`` of a finite family fold in one pass."""
    if callable(family):
        return SValue(lambda: Dovetail(lambda i: family(i).make()))
    items = family if type(family) is list else list(family)
    size = len(items)
    # task i accepting at its own step k lands at dovetail_bound(i, k, size);
    # a child known to accept at its bound reuses the bound's landing
    bound: Optional[int] = 0
    known: Union[int, float, None] = NEVER
    for i, v in enumerate(items):
        b = t = None
        if bound is not None:
            b = v.bound
            if b is None:
                bound = None
            else:
                t = dovetail_bound(i, b, size)
                if t > bound:
                    bound = t
        if known is not None:
            k = v.known
            if k is None:
                known = None
            elif k != NEVER:
                if k != b:
                    t = dovetail_bound(i, k, size)
                if t < known:
                    known = t
    if known is not None:
        return SValue(None, bound, known)
    return SValue(lambda: Dovetail(lambda i: items[i].make(), size), bound)


def read_names(names: Sequence[Name], then: Callable[..., SValue],
               inner_bound: Optional[int] = None) -> SValue:
    """Read the first value of each name in turn, then continue with
    ``then(*values)``: the one name read, under `read_table` and
    `spaces.on_value`.  ``names`` is kept as it is, not copied.

    The last arrival lands at the sum of the names' first-emission step
    counts; a born-accepted continuation accepts on it, a ``never`` one
    goes ``never``, and any other is stepped from the next step (`_Read`).
    ``bound`` is ``inner_bound``, which must dominate the bound of every
    continuation, plus the names' ``cost(0)`` (None if any is unknown).
    When every name's first clean emission is cached (`Name.first`), or
    arrives at its name's first step (`Name.peek`), ``then`` is called
    here and the value is known if the continuation is; one that raises
    is called again by the stepping run, so the error surfaces at the
    arrival step."""
    bound = inner_bound
    vals: Optional[list[int]] = []
    at = 0
    for nm in names:
        first = nm.first
        if first is None and vals is not None:
            first = nm.peek()
        if bound is not None:
            if first is not None:
                c0 = first[2]
            else:
                c0 = nm.cost(0) if nm.cost is not None else None
            bound = None if c0 is None else bound + c0
        if vals is not None:
            if first is None:
                vals = None
            else:
                vals.append(first[0])
                at += first[1]
    if vals is not None:
        try:
            inner = then(*vals)
        except Exception:  # raised again, in order, by the stepping run
            pass
        else:
            if inner.known is not None:
                return SValue(None, bound, at + inner.known)
            return SValue(lambda: _Read(names, lambda *_: inner), bound)
    return SValue(lambda: _Read(names, then), bound)


def read_table(names: Sequence[Name], decide: Callable[..., bool]) -> SValue:
    """Read the first value of each name in turn, then accept iff
    ``decide(*values)``: the leaf of every finite-table open, and
    `read_names` continuing with `top` or `bot` by the table, so ``bound``
    is the sum of the names' ``cost(0)`` and a rejected read goes
    ``never``.  One warm name, or one whose first value is due at its
    first step (`Name.peek`), answers with one of its two shared known
    values (`Name.leaves`: accept at its first step, or never), built once
    per name, so a warm leaf is a lookup; several such names fold in
    `read_names` to one known value at the sum of their first steps.  An
    exception from ``decide`` is left to the stepping run, so it surfaces
    at the arrival step and nothing is cached for it."""
    if len(names) == 1:
        nm = names[0]
        first = nm.first
        if first is None:
            first = nm.peek()
        if first is not None:
            try:
                ok = decide(first[0])
            except Exception:  # raised again, in order, by the stepping run
                pass
            else:
                pair = nm.leaves
                if pair is None:
                    pair = nm.leaves = (SValue(None, first[2], first[1]),
                                        SValue(None, first[2], NEVER))
                return pair[0] if ok else pair[1]
    return read_names(names, lambda *vs: _TOP if decide(*vs) else _BOT, 0)


def first_accepting(family: Callable[[int], SValue], size: Optional[int],
                    fuel: int) -> Optional[tuple[int, int]]:
    """Race the family as `or_countable` does and return (winning index,
    global step) of the first acceptance within ``fuel`` steps, else None.

    The race is one status call on ``or_countable``, charged as its run
    is.  A stepped race reads the winner off the `Dovetail` that `run`
    returns; in a folded one (every member of a finite family known) the
    winner is the one member whose ``dovetail_bound`` landing is the
    acceptance step."""
    items = family if size is None else [family(i) for i in range(size)]
    race = or_countable(items)
    if race.known is None:
        at, r = run(race, fuel)
        return None if at is None else (r.winner, at)
    at = race.status(fuel)
    if at is None:
        return None
    return next(i for i, v in enumerate(items) if v.known != NEVER
                and dovetail_bound(i, v.known, size) == at), at
