"""Integer-stream names, pairing codecs, and the dovetailing scheduler.

Everything in this package is built from *processes*: objects that advance
one unit of work per step and never block.  Two disciplines make infinite
computations observable with finite fuel:

* determinism -- replaying any process from scratch reproduces the same
  emissions at the same step counts;
* monotonicity -- anything accepted or emitted under a step budget stays
  accepted under every larger budget.

Divergence is legitimate here and is never an exception: a process that
makes no progress simply stays pending.  Malformed encodings, by contrast,
raise `EncodingError`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Iterator, Optional, Sequence


class EncodingError(ValueError):
    """Malformed encoding: negative naturals, bad digits, bad schema."""


# ---------------------------------------------------------------------------
# Cantor pairing


def pair(m: int, n: int) -> int:
    """Cantor pairing, a bijection N x N -> N with pair(0, 0) == 0."""
    if m < 0 or n < 0:
        raise EncodingError("pair() takes naturals")
    s = m + n
    return s * (s + 1) // 2 + n


def unpair(k: int) -> tuple[int, int]:
    if k < 0:
        raise EncodingError("unpair() takes a natural")
    s = (math.isqrt(8 * k + 1) - 1) // 2
    n = k - s * (s + 1) // 2
    return s - n, n


def zigzag(n: int) -> int:
    """Bijection N -> Z: 0, 1, -1, 2, -2, ..."""
    return (n + 1) // 2 if n % 2 else -(n // 2)


def zigzag_inv(z: int) -> int:
    return 2 * z - 1 if z > 0 else -2 * z


# ---------------------------------------------------------------------------
# Names


class Name:
    """A lazily generated stream of naturals.

    ``factory()`` must return a deterministic iterator yielding either a
    natural (an emission) or ``None`` (a silent step).  An exhausted
    iterator is treated as silent forever.

    The canonical run is cached append-only.  `NameReader` cursors replay
    it by step count: a value the canonical run produced at step ``c`` only
    becomes visible to a reader that has itself taken ``c`` steps.  Sharing
    a Name between queries therefore never changes what any single query
    observes, and never changes its step accounting.

    ``cost``, where given, maps value index -> exact step count of that
    emission on a fresh run.  Combinators use it to certify acceptance
    horizons, so it must be exact, never optimistic.

    An exception raised at a canonical step (a negative emission, say) is
    recorded with that step and raised again in every reader reaching it,
    so replay stays exact on error paths too.

    `run_to` drives the canonical run to a given step in one call; here
    it is the `advance` loop, and a subclass whose run is arithmetic may
    jump, provided `advance` stays ``run_to(steps + 1)``.

    ``first`` is the first clean emission ``(value, step, cost(0))``, set
    by the canonical run when it appends its first value with no error
    before it, and None until then (or forever, behind an error); a
    `map_name` image may hold it, and its source's ``leaves``, at once,
    and `peek` may set it by taking the run's first step early.
    ``leaves`` belongs to the Sierpinski layer: the name's shared pair of
    known finite-leaf outcomes (accept at ``step``, never), built from
    ``first`` on first use.
    """

    __slots__ = ("_factory", "_vals", "_costs", "_gen", "_steps", "_dead",
                 "_errs", "cost", "first", "leaves")

    def __init__(self, factory: Callable[[], Iterator[Optional[int]]],
                 cost: Optional[Callable[[int], Optional[int]]] = None):
        self._factory = factory
        self._vals: list[int] = []
        self._costs: list[int] = []
        self._gen: Optional[Iterator[Optional[int]]] = None
        self._steps = 0
        self._dead = False
        # canonical step -> exception raised there; None while there is none
        self._errs: Optional[dict[int, Exception]] = None
        self.cost = cost
        self.first: Optional[tuple[int, int, Optional[int]]] = None
        self.leaves: Optional[tuple] = None

    @property
    def steps(self) -> int:
        """Steps taken by the canonical run so far (an observability probe)."""
        return self._steps

    def advance(self) -> None:
        """One canonical step."""
        if self._gen is None:
            self._gen = self._factory()
        self._steps += 1
        if self._dead:
            return
        try:
            out = next(self._gen)
            if out is not None and (not isinstance(out, int) or out < 0):
                raise EncodingError(f"name emitted {out!r}; naturals only")
        except StopIteration:
            self._dead = True
            return
        except Exception as exc:
            if self._errs is None:
                self._errs = {}
            self._errs[self._steps] = exc
            raise
        if out is not None:
            if not self._vals and self._errs is None:
                self.first = (out, self._steps,
                              None if self.cost is None else self.cost(0))
            self._vals.append(out)
            self._costs.append(self._steps)

    def peek(self) -> Optional[tuple[int, int, Optional[int]]]:
        """``first``, after taking the canonical run's first step if no
        step is taken yet and ``cost(0) == 1``: one bounded step that every
        reader takes first.  An error there is recorded against step 1
        (`advance`) and raised again by the readers that reach it; any
        other cold name is left alone."""
        if self.first is None and self._steps == 0 and self.cost is not None \
                and self.cost(0) == 1:
            try:
                self.advance()
            except Exception:  # kept at step 1 for the readers to raise
                pass
        return self.first

    def run_to(self, t: int) -> None:
        """Drive the canonical run to step ``t`` (no-op if it is there); an
        error at a step on the way is recorded and raised, as by `advance`."""
        while self._steps < t:
            self.advance()

    def prefix(self, k: int, max_steps: int) -> list[int]:
        """The values a fresh `NameReader`, stepped one step at a time,
        collects until it holds k of them or has taken ``max_steps`` steps;
        or the earliest error recorded at a step it takes, raised on every
        call.  So the answer never depends on how far other readers have
        driven the name.  The one bulk read of a name: `run_to` (which may
        jump) drives the run, never past the k-th value's step (a name emits
        at most one value a step) or ``max_steps``, nor once it has raised."""
        vals, costs, k = self._vals, self._costs, max(k, 0)
        while len(vals) < k and self._steps < max_steps and not self._errs:
            self.run_to(min(max_steps, self._steps + k - len(vals)))
        n = min(bisect_right(costs, max_steps), k)
        if n == k:  # the reader stops at the step of its k-th value
            max_steps = costs[n - 1] if n else 0
        if self._errs and (s := min(self._errs)) <= max_steps:
            raise self._errs[s]
        return vals[:n]


class NameReader:
    """A replay-exact cursor: one ``step()`` equals one step of a private
    replay of the name, served from the shared cache where possible."""

    __slots__ = ("name", "steps", "idx")

    def __init__(self, name: Name):
        self.name = name
        self.steps = 0
        self.idx = 0

    def step(self) -> Optional[int]:
        s = self.steps = self.steps + 1
        nm = self.name
        if nm._steps < s:
            nm.advance()
        elif nm._errs is not None and s in nm._errs:
            raise nm._errs[s]
        i = self.idx
        if i < len(nm._vals) and nm._costs[i] <= s:
            self.idx += 1
            return nm._vals[i]
        return None


def literal_name(values: Sequence[int], tail: Optional[int] = 0) -> Name:
    """A name emitting the given values, one per step, then ``tail`` forever
    (``tail=None`` means silent forever): `delayed_name` with no delays."""
    return delayed_name([(0, v) for v in values], tail)


def delayed_name(entries: Sequence[tuple[int, int]], tail: Optional[int] = 0) -> Name:
    """A name emitting each (delay, value) entry after ``delay`` silent
    steps, then ``tail`` every step (``tail=None``: silent forever).  A
    negative delay raises `EncodingError`: it would make ``cost`` wrong."""
    ent = [(int(d), int(v)) for d, v in entries]
    if any(d < 0 for d, _ in ent):
        raise EncodingError(f"negative delay in {ent}")
    csum: list[int] = []
    acc = 0
    for d, _ in ent:
        acc += d + 1
        csum.append(acc)

    def gen() -> Iterator[Optional[int]]:
        for d, v in ent:
            for _ in range(d):
                yield None
            yield v
        while True:
            yield tail

    def cost(i: int) -> Optional[int]:
        if i < len(csum):
            return csum[i]
        if tail is None:
            return None
        base = csum[-1] if csum else 0
        return base + (i - len(csum) + 1)

    return Name(gen, cost=cost)


def map_name(src: Name, table) -> Name:
    """The image of ``src`` under ``table``: ``table[v]`` at the step where
    ``src`` emits ``v``, with its cost; an entry that raises or is not a
    natural raises at that step.  Behind a warm ``src`` the image is warm
    from construction, with the source's known leaf pair (same step and
    cost); behind a cold one, or a first entry that would raise, it waits
    for its own run."""

    def gen() -> Iterator[Optional[int]]:
        r = NameReader(src)
        while True:
            v = r.step()
            yield None if v is None else table[v]

    nm = Name(gen, cost=src.cost)
    first = src.first
    if first is not None:
        try:
            out = table[first[0]]
        except Exception:  # raised again, at its step, by the run
            return nm
        if isinstance(out, int) and out >= 0:
            nm.first, nm.leaves = (out, first[1], first[2]), src.leaves
    return nm


# ---------------------------------------------------------------------------
# Enumerated sets


def decode_enum(p: Name, fuel: int) -> set[int]:
    """The set {n : n+1 emitted within ``fuel`` steps} -- a monotone
    under-approximation of the set the name enumerates.  The all-zero name
    decodes to the empty set at every fuel.  Fuel counts steps of the
    name's canonical run, the uniform budget used everywhere in this
    package.  The read is `Name.prefix` of ``fuel`` values (a name emits at
    most one a step): what a `NameReader` stepped ``fuel`` times sees, or
    the error it meets first, however far others have driven ``p``."""
    return {v - 1 for v in p.prefix(fuel, fuel) if v >= 1}


# ---------------------------------------------------------------------------
# Dovetailing


class Dovetail:
    """Fair round-robin over a growing task frontier.

    Round r gives one slot to each of tasks 0..r (capped at the family
    size), in index order.  A task's first slot instantiates it and
    observes whether it is already done; later slots forward one step.
    Hence task i's k-th step (k >= 1; k = 0 is the instantiation
    observation) lands at global step ``dovetail_bound(i, k, size)``,
    which is quadratic in i + k.

    The engine accepts as soon as any task accepts; ``winner`` records
    which.  The slice size is fixed at one step, and which tasks ever
    accept does not depend on it.

    A task instantiated as a ``never`` stepper holds a dead slot; ``live``
    lists the other instantiated tasks, from the first task on.  `run`
    walks every round the same way, from one live task to the next, and
    counts the dead slots between them by arithmetic, one step each; so
    schedules, ``dovetail_bound`` landings and step counts are those of
    one-at-a-time `step` calls, which stay the reference.  A finite family
    whose tasks are all instantiated and all dead is itself ``never``.
    """

    __slots__ = ("family", "size", "steppers", "live", "rnd", "pos", "done",
                 "winner", "never")

    def __init__(self, family: Callable[[int], object], size: Optional[int] = None):
        self.family = family
        self.size = size
        self.steppers: list = []
        self.live: list[int] = []  # indices of the live instantiated tasks
        self.rnd = 0
        self.pos = 0
        self.done = False  # an empty family stays pending forever
        self.winner: Optional[int] = None
        self.never = size == 0

    @property
    def steps(self) -> int:
        """Global steps taken so far, read off the schedule position (an
        empty family never moves, so it reads 0)."""
        return dovetail_bound(self.pos, self.rnd - self.pos, self.size) - 1

    def step(self) -> bool:
        size = self.size
        if size == 0:
            return False
        i = self.pos
        ss = self.steppers
        if i == len(ss):
            s = self.family(i)
            ss.append(s)
            if s.done:
                self.done = True
                self.winner = i
                return True
            if not s.never:
                self.live.append(i)
            elif i + 1 == size and not self.live:
                self.never = True
        elif ss[i].step():
            self.done = True
            self.winner = i
            return True
        i += 1
        limit = self.rnd + 1
        if size is not None and limit > size:
            limit = size
        if i >= limit:
            self.rnd += 1
            i = 0
        self.pos = i
        return False

    def run(self, budget: int) -> Optional[int]:
        """Advance up to ``budget`` steps; return how many were used if the
        engine accepted, else None.  Same schedule as `step`, which takes
        each instantiation slot; every round's instantiated tasks are
        walked live task to live task, with the dead slots skipped in bulk."""
        used = 0
        size = self.size
        ss = self.steppers
        live = self.live
        while used < budget:
            if self.never:
                if size:  # every round now has ``size`` slots
                    self.rnd, self.pos = divmod(
                        self.rnd * size + self.pos + budget - used, size)
                return None
            n = len(ss)
            i = self.pos
            if i == n:  # this slot instantiates task n and ends round n
                used += 1
                if self.step():
                    return used
                continue
            for j in live[bisect_left(live, i):]:
                used += j - i  # the dead slots before j
                if used >= budget:
                    self.pos = j - (used - budget)
                    return None
                used += 1
                self.pos = j
                if ss[j].step():
                    self.done = True
                    self.winner = j
                    return used
                i = j + 1
            used += n - i  # the dead slots after the last live task
            if used > budget:
                self.pos = n - (used - budget)
                return None
            if n == size:  # every task is instantiated: the round ends
                self.rnd += 1
                self.pos = 0
            else:
                self.pos = n
        return None


def dovetail_bound(i: int, k: int, size: Optional[int] = None) -> int:
    """Global step at which task i receives its k-th step (its
    instantiation observation for k = 0) under the dovetail schedule."""
    r = i + k
    if size is None or r <= size:
        t = r * (r + 1) // 2
    else:
        t = size * (size + 1) // 2 + (r - size) * size
    return t + i + 1
