"""Exact-real showcase: decimal names, rational-interval opens, the
countable interval subbase, and the representation-repair pipeline.

All arithmetic is exact rational arithmetic; there is no floating point
anywhere in this module.  A digit prefix of length k denotes the closed
interval [lo, lo + 10^-k], and membership in an open interval requires
strict containment of that prefix interval, so boundary queries diverge
exactly when topology says they must.

The membership stepper compares the growing prefix against each endpoint
through an integer recurrence whose sign is eventually permanent, so one
step costs O(1) arithmetic on integers bounded by the endpoint's
denominator -- a million-step pending query is cheap.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional

from .bases import Presubbase, kolmogorov_completion
from .hyper import OpenSet
from .kernel import (EncodingError, Name, NameReader, pair, unpair, zigzag,
                     zigzag_inv)
from .sierpinski import DEFAULT_FUEL, SValue, first_accepting
from .spaces import NAT, Point, Space, on_value


DECIMAL = Space("decimal", label="Dec")

_DEC_RE = re.compile(
    r"""^\s*(?P<sign>[+-])?
        (?P<int>\d+)
        (?:\.(?P<fixed>\d*)
           (?:\((?P<rep>\d+)\))?
        )?\s*$""",
    re.VERBOSE)


@dataclass(frozen=True)
class DecimalSpec:
    """A parsed eventually-periodic decimal: sign, integer part, fixed
    fraction digits, repetend digits (empty repetend means trailing
    zeros)."""

    sign: int
    int_part: int
    fixed: tuple[int, ...]
    repetend: tuple[int, ...]

    def digit(self, k: int) -> int:
        """The k-th fraction digit, 0-indexed."""
        if k < len(self.fixed):
            return self.fixed[k]
        if self.repetend:
            return self.repetend[(k - len(self.fixed)) % len(self.repetend)]
        return 0

    @property
    def value(self) -> Fraction:
        f = len(self.fixed)
        mag = Fraction(self.int_part)
        if f:
            mag += Fraction(int("".join(map(str, self.fixed))), 10 ** f)
        if self.repetend:
            r = len(self.repetend)
            rep = int("".join(map(str, self.repetend)))
            mag += Fraction(rep, (10 ** r - 1) * 10 ** f)
        return self.sign * mag

    def __str__(self) -> str:
        s = "-" if self.sign < 0 else ""
        out = f"{s}{self.int_part}"
        if self.fixed or self.repetend:
            out += "." + "".join(map(str, self.fixed))
            if self.repetend:
                out += f"({''.join(map(str, self.repetend))})"
        return out


def parse_decimal(text: str) -> DecimalSpec:
    """Parse a decimal string with an optional repetend marker, e.g.
    ``"0.3(3)"`` for one third."""
    m = _DEC_RE.match(text)
    if not m:
        raise EncodingError(f"not a decimal literal: {text!r}")
    sign = -1 if m.group("sign") == "-" else 1
    fixed = tuple(int(c) for c in (m.group("fixed") or ""))
    rep = tuple(int(c) for c in (m.group("rep") or ""))
    return DecimalSpec(sign, int(m.group("int")), fixed, rep)


def decimal_point(spec: DecimalSpec, delay: int = 0) -> Point:
    """The decimal as a name: sign code, integer part, then one fraction
    digit per step, with an optional uniform delay between emissions."""
    sign_code = 0 if spec.sign >= 0 else 1

    def gen() -> Iterator[Optional[int]]:
        for lead in (sign_code, spec.int_part):
            for _ in range(delay):
                yield None
            yield lead
        k = 0
        while True:
            for _ in range(delay):
                yield None
            yield spec.digit(k)
            k += 1

    return Point(DECIMAL, Name(gen, cost=lambda i: (i + 1) * (delay + 1)))


# ---------------------------------------------------------------------------
# Interval membership


class _EndpointCmp:
    """Sign-tracking comparison of the digit prefix against one rational
    endpoint.  With prefix value v_k (scaled by 10^k) and endpoint p/q the
    tracked integer is L_k = v_k*q - p*10^k; its sign decides the
    comparison and is permanent once L leaves [-q, q] in the relevant
    direction, after which no more big-integer work happens."""

    __slots__ = ("p", "q", "l", "state")

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        self.l = None       # set when the integer part arrives
        self.state = 0      # -1 locked below, 0 undecided, +1 locked above

    def start(self, v0: int) -> None:
        self.l = v0 * self.q - self.p
        self._lock()

    def push(self, d: int) -> None:
        if self.state == 0:
            self.l = 10 * self.l + d * self.q
            self._lock()

    def _lock(self) -> None:
        # L > 0 stays positive (digits are nonnegative); L < -q stays below
        if self.l > 0:
            self.state = 1
        elif self.l < -self.q:
            self.state = -1

    def above(self) -> bool:
        """prefix_low > endpoint, i.e. L > 0."""
        return self.state == 1 or (self.state == 0 and self.l > 0)

    def below_plus_one(self) -> bool:
        """prefix_low + 10^-k < endpoint, i.e. L + q < 0."""
        if self.state == 1:
            return False
        return self.l is not None and self.l + self.q < 0


class _IntervalStepper:
    """Watch a decimal name and accept once the closed prefix interval is
    strictly inside (a, b).  Reading the sign flips the effective
    endpoints so only magnitude comparisons remain."""

    __slots__ = ("reader", "a", "b", "phase", "lo", "hi", "done")
    never = False

    def __init__(self, reader: NameReader, a: Fraction, b: Fraction):
        self.reader = reader
        self.a = a
        self.b = b
        self.phase = 0      # 0: want sign, 1: want int part, 2: digits
        self.lo: Optional[_EndpointCmp] = None
        self.hi: Optional[_EndpointCmp] = None
        self.done = False

    def step(self) -> bool:
        v = self.reader.step()
        if v is None:
            return False
        if self.phase == 0:
            if v not in (0, 1):
                raise EncodingError(f"bad sign code {v}")
            a, b = (self.a, self.b) if v == 0 else (-self.b, -self.a)
            self.lo = _EndpointCmp(a.numerator, a.denominator)
            self.hi = _EndpointCmp(b.numerator, b.denominator)
            self.phase = 1
            return False
        if self.phase == 1:
            self.lo.start(v)
            self.hi.start(v)
            self.phase = 2
        else:
            if v > 9:
                raise EncodingError(f"bad digit {v}")
            self.lo.push(v)
            self.hi.push(v)
        if self.lo.above() and self.hi.below_plus_one():
            self.done = True
            return True
        return False


def interval_open_decimal(a: Fraction, b: Fraction) -> OpenSet:
    """The open interval (a, b) as an open subset of the decimal space."""
    a, b = Fraction(a), Fraction(b)
    if not a < b:
        raise EncodingError(f"need a < b, got {a} >= {b}")

    def chi(d: Point) -> SValue:
        return SValue(lambda: _IntervalStepper(NameReader(d.payload), a, b))

    return OpenSet(DECIMAL, chi)


# ---------------------------------------------------------------------------
# The countable interval subbase


def rational_for_index(i: int) -> Fraction:
    s, d = unpair(i)
    return Fraction(zigzag(s), d + 1)


def interval_for_index(n: int) -> tuple[Fraction, Fraction]:
    """A fixed pairing of every rational open interval: left endpoint code
    and positive width code."""
    i, j = unpair(n)
    a = rational_for_index(i)
    u, v = unpair(j)
    return a, a + Fraction(u + 1, v + 1)


def index_for_interval(a: Fraction, b: Fraction) -> int:
    """The canonical index of (a, b) under `interval_for_index` (lowest
    terms for both the endpoint and the width)."""
    a, w = Fraction(a), Fraction(b) - Fraction(a)
    if w <= 0:
        raise EncodingError("need a < b")
    i = pair(zigzag_inv(a.numerator), a.denominator - 1)
    j = pair(w.numerator - 1, w.denominator - 1)
    return pair(i, j)


def rational_interval_subbase() -> Presubbase:
    """The countable subbase of rational intervals, indexed by N; the
    induced representation follows the enumerated-set convention."""

    def family(npt: Point) -> OpenSet:
        def chi(d: Point) -> SValue:
            return on_value(
                npt,
                lambda n: interval_open_decimal(*interval_for_index(n)).chi(d))

        return OpenSet(DECIMAL, chi)

    return Presubbase(index=NAT, carrier=DECIMAL, family=family,
                      transpose_inverse=None)


def enum_subbase_name(d: Point, chunk: int = 1) -> Name:
    """The enumerated-set name of a decimal under the interval subbase:
    dovetail every interval membership query and emit index+1 whenever one
    accepts.  One name step drives ``chunk`` scheduler steps."""

    def gen() -> Iterator[Optional[int]]:
        ready: list = []
        steppers: list = []
        rnd = 0
        pos = 0
        while True:
            for _ in range(chunk):
                i = pos
                if i == len(steppers):
                    a, b = interval_for_index(i)
                    steppers.append(
                        interval_open_decimal(a, b).chi(d).fresh())
                elif steppers[i] is not None and steppers[i].step():
                    ready.append(i)
                    steppers[i] = None
                pos += 1
                if pos > rnd:
                    rnd += 1
                    pos = 0
            yield ready.pop(0) + 1 if ready else None

    return Name(gen)


# ---------------------------------------------------------------------------
# Cauchy names


@dataclass(frozen=True)
class CauchyName:
    """A fast-converging rational sequence: level n is within 2^-n of the
    denoted real."""

    levels: Callable[[int], Fraction]

    def level(self, n: int) -> Fraction:
        return self.levels(n)

    def as_name(self) -> Name:
        """Levels coded as naturals (zigzag numerator paired with
        denominator), one per step."""

        def gen() -> Iterator[Optional[int]]:
            n = 0
            while True:
                q = self.levels(n)
                yield pair(zigzag_inv(q.numerator), q.denominator - 1)
                n += 1

        return Name(gen, cost=lambda i: i + 1)


def _digits_for_bits(n: int) -> int:
    """Fewest k with 10^-k <= 2^-n."""
    k, pw, target = 0, 1, 1 << n
    while pw < target:
        pw *= 10
        k += 1
    return k


def decimal_to_cauchy_direct(spec: DecimalSpec) -> CauchyName:
    """The independent repair oracle: level n truncates the decimal to
    enough digits that the truncation error is at most 2^-n."""

    def level(n: int) -> Fraction:
        k = _digits_for_bits(n)
        num = spec.int_part
        for i in range(k):
            num = 10 * num + spec.digit(i)
        return spec.sign * Fraction(num, 10 ** k)

    return CauchyName(level)


# ---------------------------------------------------------------------------
# The repair pipeline


class FuelExhausted(RuntimeError):
    """Raised when the repair search runs out of scheduler steps; carries
    the deepest completed level."""

    def __init__(self, level: int, levels: List[Fraction]):
        super().__init__(f"fuel exhausted after level {level}")
        self.level = level
        self.levels = levels


def repair_decimal(d: Point, precision_bits: int,
                   fuel: int = DEFAULT_FUEL) -> List[Fraction]:
    """Route a decimal name through the completion of its space and
    extract a Cauchy prefix: at level k, dovetail filter queries over
    rational intervals of width 2^-k until one accepts, and take its
    midpoint.  Levels refine a window around the previous midpoint, so
    the whole prefix costs far less than the default fuel.

    Returns levels 1..precision_bits; level k is within 2^-(k+1) of the
    denoted real, hence within 2^-(k-1) of the direct truncation oracle.
    """
    comp = kolmogorov_completion(DECIMAL)
    p = comp.forward(d)
    flt: OpenSet = p.payload  # the neighborhood filter of d

    def query(a: Fraction, b: Fraction) -> SValue:
        return flt.chi(interval_open_decimal(a, b).as_point())

    levels: List[Fraction] = []
    remaining = fuel
    center_prev: Optional[Fraction] = None
    for k in range(1, precision_bits + 1):
        half = Fraction(1, 2 ** (k + 1))
        grid = 2 * half  # candidate centers are multiples of 2^-(k+1)

        if center_prev is None:
            def candidate(i: int) -> SValue:
                c = zigzag(i) * grid
                return query(c - half, c + half)

            size = None
        else:
            m0 = round(center_prev / grid)
            offsets = [0, 1, -1, 2, -2, 3, -3]

            def candidate(i: int, _m0=m0, _g=grid, _h=half,
                          _off=offsets) -> SValue:
                c = (_m0 + _off[i]) * _g
                return query(c - _h, c + _h)

            size = len(offsets)

        hit = first_accepting(candidate, size, remaining)
        if hit is None:
            raise FuelExhausted(k - 1, levels)
        winner, used = hit
        remaining -= used
        if center_prev is None:
            center = zigzag(winner) * grid
        else:
            center = (m0 + offsets[winner]) * grid
        levels.append(center)
        center_prev = center
    return levels
