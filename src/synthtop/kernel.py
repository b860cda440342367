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
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union


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
    """

    __slots__ = ("_factory", "_vals", "_costs", "_gen", "_steps", "_dead", "cost")

    def __init__(self, factory: Callable[[], Iterator[Optional[int]]],
                 cost: Optional[Callable[[int], Optional[int]]] = None):
        self._factory = factory
        self._vals: list[int] = []
        self._costs: list[int] = []
        self._gen: Optional[Iterator[Optional[int]]] = None
        self._steps = 0
        self._dead = False
        self.cost = cost

    @property
    def steps(self) -> int:
        """Steps taken by the canonical run so far (an observability probe)."""
        return self._steps

    def emitted(self) -> list[int]:
        return list(self._vals)

    def advance(self) -> None:
        """One canonical step."""
        if self._gen is None:
            self._gen = self._factory()
        self._steps += 1
        if self._dead:
            return
        try:
            out = next(self._gen)
        except StopIteration:
            self._dead = True
            return
        if out is not None:
            if not isinstance(out, int) or out < 0:
                raise EncodingError(f"name emitted {out!r}; naturals only")
            self._vals.append(out)
            self._costs.append(self._steps)

    def prefix(self, k: int, max_steps: int) -> list[int]:
        """First k values, driving the canonical run to at most max_steps."""
        while len(self._vals) < k and self._steps < max_steps:
            self.advance()
        return self._vals[:k]


class NameReader:
    """A replay-exact cursor: one ``step()`` equals one step of a private
    replay of the name, served from the shared cache where possible."""

    __slots__ = ("name", "steps", "idx")

    def __init__(self, name: Name):
        self.name = name
        self.steps = 0
        self.idx = 0

    def step(self) -> Optional[int]:
        self.steps += 1
        nm = self.name
        if nm._steps < self.steps:
            nm.advance()
        i = self.idx
        if i < len(nm._vals) and nm._costs[i] <= self.steps:
            self.idx += 1
            return nm._vals[i]
        return None


def literal_name(values: Sequence[int], tail: Optional[int] = 0) -> Name:
    """A name emitting the given values, one per step, then ``tail`` forever
    (``tail=None`` means silent forever)."""
    vals = [int(v) for v in values]

    def gen() -> Iterator[Optional[int]]:
        yield from vals
        while True:
            yield tail

    def cost(i: int) -> Optional[int]:
        if i < len(vals) or tail is not None:
            return i + 1
        return None

    return Name(gen, cost=cost)


def delayed_name(entries: Sequence[tuple[int, int]], tail: Optional[int] = 0) -> Name:
    """A name emitting each (delay, value) entry after ``delay`` silent
    steps, then ``tail`` every step (``tail=None``: silent forever)."""
    ent = [(int(d), int(v)) for d, v in entries]
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


# ---------------------------------------------------------------------------
# Tupling


def tuple_names(components: Union[Sequence[Name], Callable[[int], Name]],
                size: Optional[int] = None) -> Name:
    """Interleave countably many names into one: value ``pair(i, j)`` of the
    tuple is component i's value j.

    A finite family is padded with constant-0 names.  Each emission drives
    only the component it needs, so every component is consulted finitely
    often per emitted value.
    """
    if not callable(components):
        items = list(components)
        size = len(items)
        lookup = items.__getitem__
    else:
        lookup = components

    def component(i: int) -> Name:
        if size is not None and i >= size:
            return literal_name([], tail=0)
        return lookup(i)

    def gen() -> Iterator[Optional[int]]:
        readers: dict[int, NameReader] = {}
        buffers: dict[int, list[int]] = {}
        k = 0
        while True:
            i, j = unpair(k)
            if i not in readers:
                readers[i] = NameReader(component(i))
                buffers[i] = []
            r, buf = readers[i], buffers[i]
            while len(buf) <= j:
                v = r.step()
                if v is not None:
                    buf.append(v)
                if len(buf) <= j:
                    yield None
            yield buf[j]
            k += 1

    return Name(gen)


def project(p: Name, i: int) -> Name:
    """Component i of a tupled name: emits p's values at positions
    pair(i, 0), pair(i, 1), ..."""

    def gen() -> Iterator[Optional[int]]:
        r = NameReader(p)
        buf: list[int] = []
        j = 0
        while True:
            target = pair(i, j)
            while len(buf) <= target:
                v = r.step()
                if v is not None:
                    buf.append(v)
                if len(buf) <= target:
                    yield None
            yield buf[target]
            j += 1

    return Name(gen)


# ---------------------------------------------------------------------------
# Enumerated sets


def decode_enum(p: Name, fuel: int) -> set[int]:
    """The set {n : n+1 emitted within ``fuel`` steps} -- a monotone
    under-approximation of the set the name enumerates.  The all-zero name
    decodes to the empty set at every fuel.

    Fuel counts generator steps, the uniform budget used everywhere in this
    package; for names that emit one value per step this is the same as
    counting emitted values.
    """
    r = NameReader(p)
    out: set[int] = set()
    for _ in range(fuel):
        v = r.step()
        if v is not None and v >= 1:
            out.add(v - 1)
    return out


@dataclass(frozen=True)
class EnumSet:
    """A name read as an enumeration of a subset of N."""

    source: Name

    def decode(self, fuel: int) -> set[int]:
        return decode_enum(self.source, fuel)


def enum_name(members: Sequence[int], pad: int = 0) -> Name:
    """A name enumerating exactly the given members (as n+1 codes), with
    ``pad`` leading silent-zero steps before each emission."""
    entries = [(pad, m + 1) for m in members]
    return delayed_name(entries, tail=0)


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

    A task instantiated as a ``never`` stepper holds a dead slot.  `run`
    jumps over dead slots by arithmetic but still counts each as one
    step, so schedules, ``dovetail_bound`` landings and step counts are
    those of one-at-a-time `step` calls, which stay the reference.  A
    finite family whose tasks are all instantiated and all dead is itself
    ``never``.
    """

    __slots__ = ("family", "size", "steppers", "live", "rnd", "pos", "done",
                 "winner", "never")

    def __init__(self, family: Callable[[int], object], size: Optional[int] = None):
        self.family = family
        self.size = size
        self.steppers: list = []
        # indices of the live instantiated tasks; None while none is dead
        self.live: Optional[list[int]] = None
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
            live = self.live
            if s.never:
                if live is None:
                    live = self.live = list(range(i))
                if i + 1 == size and not live:
                    self.never = True
            elif live is not None:
                live.append(i)
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
        engine accepted, else None.  Same schedule as `step`, with dead
        slots skipped in bulk; while there is none it is the plain loop."""
        used = 0
        size = self.size
        ss = self.steppers
        step = self.step
        while used < budget:
            if self.never:
                if size:  # every round now has ``size`` slots
                    self.rnd, self.pos = divmod(
                        self.rnd * size + self.pos + budget - used, size)
                return None
            live = self.live
            n = len(ss)
            i = self.pos
            if live is None or i == n:
                # dead slots appear only at instantiation: step plainly up
                # to and including the next one, or to the budget once
                # every task is instantiated
                stop = budget
                if n != size and used + n - i < budget:
                    stop = used + n - i + 1
                while used < stop:
                    used += 1
                    if step():
                        return used
                continue
            r = self.rnd
            limit = r + 1 if size is None or r < size else size
            end = n if n < limit else limit  # slot n, if in this round, spawns
            k = bisect_left(live, i)
            nl = len(live)
            while k < nl:
                j = live[k]
                if j >= end:
                    break
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
                k += 1
            used += end - i
            if used > budget:
                self.pos = end - (used - budget)
                return None
            if end == limit:
                self.rnd = r + 1
                self.pos = 0
            else:
                self.pos = end
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
