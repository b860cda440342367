"""The Sierpinski space of semidecisions and its lawful combinators.

An `SValue` is a *description* of an accept-or-keep-waiting process.
Descriptions are immutable and freely shareable; every consumer
instantiates its own stepper, so acceptance step counts never depend on
what other queries happen to have computed already.

There is deliberately no negation and no countable conjunction here:
waiting is one-sided, and unbounded universal quantification exists only
as the forall carried by compact-set values.  Finite conjunction and
countable disjunction are the whole logic.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from .kernel import Dovetail, Name, NameReader, dovetail_bound

DEFAULT_FUEL = 10 ** 6
NEGATIVE_FUEL = 10 ** 4  # default budget for "never accepts" assertions


class _Tally:
    """Process-wide count of semidecision steps driven; suite reports use
    it as their fuel-used figure."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def add(self, k: int) -> None:
        self.n += k

    def reset(self) -> int:
        old, self.n = self.n, 0
        return old


TALLY = _Tally()


class SValue:
    """A semidecision.  ``make()`` builds a fresh deterministic stepper;
    ``bound``, where set, is a certified horizon: if the process ever
    accepts, it accepts within ``bound`` steps.  A sound bound turns
    "pending at bound" into "pending forever"."""

    __slots__ = ("make", "bound", "_runner", "_ran", "_at", "_err")

    def __init__(self, make: Callable[[], object], bound: Optional[int] = None):
        self.make = make
        self.bound = bound
        self._runner = None
        self._ran = 0
        self._at: Optional[int] = None
        self._err: Optional[tuple[Exception, int]] = None

    def fresh(self):
        return self.make()

    def status(self, fuel: int) -> Optional[int]:
        """Accepted step count if acceptance happens within ``fuel`` steps
        of a fresh run, else None (pending).  Progress is cached and the
        cache is replay-exact, so repeated queries agree with fresh runs.

        A ``never`` runner is pending at once; a `Dovetail` runner is
        advanced by `Dovetail.run`, which skips its dead slots.  Either way
        ``TALLY`` is charged every logical step, as if stepped one by one.
        An exception raised at step s is sticky: it is raised again for
        every ``fuel >= s`` and the query is pending below s."""
        at = self._at
        if at is not None:
            return at if at <= fuel else None
        err = self._err
        if err is not None:
            if fuel >= err[1]:
                raise err[0]
            return None
        r = self._runner
        if r is None:
            r = self._runner = self.make()
            if r.done:
                self._at = 0
                return 0
        ran = start = self._ran
        if ran >= fuel:
            return None
        try:
            if r.never:
                ran = fuel
            elif isinstance(r, Dovetail):
                used = r.run(fuel - start)
                if used is None:
                    ran = fuel
                else:
                    ran = self._at = start + used
            else:
                while ran < fuel:
                    ran += 1
                    if r.step():
                        self._at = ran
                        break
        except Exception as exc:
            if isinstance(r, Dovetail):
                ran = r.steps + 1
            self._err = (exc, ran)
            raise
        finally:
            self._ran = ran
            TALLY.add(ran - start)
        return self._at

    def accepted(self, fuel: int) -> bool:
        return self.status(fuel) is not None

    def decided_never(self, fallback_fuel: int = NEGATIVE_FUEL) -> bool:
        """True if this value certifiably never accepts: pending at its own
        horizon when one is known, else pending at ``fallback_fuel`` (a
        genuine negative only for processes with known acceptance bounds)."""
        budget = self.bound if self.bound is not None else fallback_fuel
        return self.status(budget) is None


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


class _Seq:
    """``delay`` silent steps, then the inner stepper."""

    __slots__ = ("delay", "inner", "done")
    never = False

    def __init__(self, delay: int, inner):
        self.delay = delay
        self.inner = inner
        self.done = delay <= 0 and inner.done

    def step(self) -> bool:
        if self.delay > 0:
            self.delay -= 1
            if self.delay == 0 and self.inner.done:
                self.done = True
                return True
            return False
        if self.inner.step():
            self.done = True
            return True
        return False


class _BindValue:
    """Read one value from a name, then run the semidecision the
    continuation builds from it.  The arrival step is consumed by the read;
    a born-accepted continuation is observed on that same step."""

    __slots__ = ("reader", "k", "inner", "done")
    never = False

    def __init__(self, reader: NameReader, k):
        self.reader = reader
        self.k = k
        self.inner = None
        self.done = False

    def step(self) -> bool:
        inner = self.inner
        if inner is None:
            v = self.reader.step()
            if v is None:
                return False
            s = self.k(v).fresh()
            if s.done:
                self.done = True
                return True
            self.inner = s
            return False
        if inner.step():
            self.done = True
            return True
        return False


# ---------------------------------------------------------------------------
# Constants and combinators


def top() -> SValue:
    return SValue(lambda: _AcceptAt(0), bound=0)


def bot() -> SValue:
    # bound 0 is vacuously sound: bot never accepts at all
    return SValue(lambda: _NEVER, bound=0)


def accept_at(n: int) -> SValue:
    return SValue(lambda: _AcceptAt(n), bound=n)


def after(delay: int, v: SValue) -> SValue:
    """The same semidecision, delayed by ``delay`` silent steps."""
    b = None if v.bound is None else v.bound + delay
    return SValue(lambda: _Seq(delay, v.fresh()), bound=b)


def and_finite(vs: Sequence[SValue]) -> SValue:
    """Accepts iff all inputs accept; total step count is the sum of the
    children's counts (already-accepted children cost nothing)."""
    vs = list(vs)
    bound: Optional[int] = 0
    for v in vs:
        if v.bound is None:
            bound = None
            break
        bound += v.bound
    return SValue(lambda: _All([v.fresh() for v in vs]), bound=bound)


def or_countable(family: Union[Sequence[SValue], Callable[[int], SValue]],
                 size: Optional[int] = None) -> SValue:
    """Accepts iff some input accepts, with fairness inherited from the
    dovetail schedule.  Accepts a finite list or an index function."""
    if not callable(family):
        items = list(family)
        size = len(items)
        get = items.__getitem__
    else:
        get = family
    bound: Optional[int] = None
    if size is not None:
        bs = [get(i).bound for i in range(size)]
        if all(b is not None for b in bs):
            bound = max((dovetail_bound(i, b, size) for i, b in enumerate(bs)),
                        default=0)
    return SValue(lambda: Dovetail(lambda i: get(i).fresh(), size), bound=bound)


def bind_name_value(name: Name, k: Callable[[int], SValue],
                    inner_bound: Optional[int] = None) -> SValue:
    """Read the first value of ``name`` and continue with ``k(value)``.

    ``inner_bound`` must dominate the bound of every continuation ``k`` can
    return; with the name's first-emission cost it certifies the horizon.
    """
    bound = None
    if name.cost is not None and inner_bound is not None:
        c0 = name.cost(0)
        if c0 is not None:
            bound = c0 + inner_bound
    return SValue(lambda: _BindValue(NameReader(name), k), bound=bound)


def first_accepting(family: Callable[[int], SValue], size: Optional[int],
                    fuel: int) -> Optional[tuple[int, int]]:
    """Dovetail the family and return (winning index, global step) of the
    first acceptance within ``fuel`` steps, else None."""
    engine = Dovetail(lambda i: family(i).fresh(), size)
    used = engine.run(fuel)
    TALLY.add(used if used is not None else fuel)
    if used is None:
        return None
    return engine.winner, used
