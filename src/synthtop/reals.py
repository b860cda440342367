"""Exact-real showcase: decimal names, rational-interval opens, the
countable interval subbase, and the representation-repair pipeline.

All arithmetic is exact rational arithmetic; there is no floating point
anywhere in this module.  A digit prefix of length k denotes the closed
interval [lo, lo + 10^-k], and membership in an open interval requires
strict containment of that prefix interval, so boundary queries diverge
exactly when topology says they must.

A name built by `decimal_point` keeps its `DecimalSpec`, so membership
of that name is known at construction: never unless the value lies
strictly inside the interval, else the step of the emission at which the
stepper below would accept.  That step is found from the endpoints'
integer numerators and denominators, read once per interval, by a search
over the name's tables of digit prefixes and powers of ten, with integer
cross-multiplications and no digit stepped, so a million-step pending
query reads no digit.  The search starts at the fewest digits whose
prefix interval is narrower than the interval.  Every other name is read
by the membership stepper, which compares the growing prefix against
each endpoint through an integer recurrence whose sign is eventually
permanent, so one step costs O(1) arithmetic on integers bounded by the
endpoint's denominator.

Repair searches level k over windows of width 2^-k centred on multiples
of 2^-k, and tracks the centre as an integer: each level costs a few
integer operations and one known-outcome race of seven windows, built
from 8 shared integer numerators over one power of two, with no
`Fraction` per window.
"""

from __future__ import annotations

import re
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, List, Optional

from .bases import Presubbase, kolmogorov_completion
from .hyper import OpenSet
from .kernel import (Dovetail, EncodingError, Name, NameReader,
                     dovetail_bound, unpair, zigzag)
from .sierpinski import DEFAULT_FUEL, NEVER, SValue, first_accepting
from .spaces import NAT, Point, Space, on_value


DECIMAL = Space("decimal", label="Dec")

# Most digits a decimal literal may have, counted over its integer part,
# fixed digits and repetend: its exact value converts those digits to one
# integer, and the interpreter refuses conversions past 4300 digits.
MAX_DECIMAL_DIGITS = 4000

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
    ndigits = sum(len(g or "") for g in m.group("int", "fixed", "rep"))
    if ndigits > MAX_DECIMAL_DIGITS:
        raise EncodingError(f"decimal literal has {ndigits} digits, "
                            f"more than {MAX_DECIMAL_DIGITS}")
    sign = -1 if m.group("sign") == "-" else 1
    fixed = tuple(int(c) for c in (m.group("fixed") or ""))
    rep = tuple(int(c) for c in (m.group("rep") or ""))
    return DecimalSpec(sign, int(m.group("int")), fixed, rep)


class DecimalName(Name):
    """The name of a decimal: sign code, integer part, then one fraction
    digit per emission, each after ``delay`` silent steps.  It keeps its
    ``spec``, the spec's ``value`` and that value's numerator ``num`` and
    denominator ``den`` as ints, all computed once here, and two tables
    grown together on demand by `grow`: ``prefixes``, the digit-prefix
    integers P_j = int_part*10^j + (first j digits), and ``tens``, the
    powers 10^j.  So interval membership is answered by integer
    arithmetic, without reading the name."""

    __slots__ = ("spec", "value", "num", "den", "prefixes", "tens")

    def __init__(self, spec: DecimalSpec, delay: int = 0):
        if delay < 0:
            raise EncodingError(f"negative delay {delay}")
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

        super().__init__(gen, cost=lambda i: (i + 1) * (delay + 1))
        self.spec = spec
        self.value = spec.value
        self.num = self.value.numerator
        self.den = self.value.denominator
        self.prefixes = [spec.int_part]
        self.tens = [1]

    def grow(self, j: int) -> None:
        """Extend ``prefixes`` and ``tens`` through index j."""
        ps, tens = self.prefixes, self.tens
        digit = self.spec.digit
        while len(ps) <= j:
            ps.append(10 * ps[-1] + digit(len(ps) - 1))
            tens.append(10 * tens[-1])


def decimal_point(spec: DecimalSpec, delay: int = 0) -> Point:
    """The decimal as a point of `DECIMAL`, backed by its `DecimalName`,
    with an optional uniform delay between emissions."""
    return Point(DECIMAL, DecimalName(spec, delay))


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
            # a negative decimal lies in (a, b) iff its magnitude lies in
            # (-b, -a)
            a, b = (-self.b, -self.a) if v == 1 else (self.a, self.b)
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


# Folded membership keeps bound None, as the stepped query has it: laws
# and benchmarks choose their budgets from bound.
_OUTSIDE = SValue(None, None, NEVER)


def _interval_outcome(name: DecimalName, pa: int, qa: int, pb: int,
                      qb: int) -> SValue:
    """What `_IntervalStepper` does on a decimal name, as a known value,
    for the interval (pa/qa, pb/qb) with qa, qb > 0: never unless the
    value lies strictly inside, else acceptance at emission m + 1 (the
    sign code is emission 0), where m is the fewest fraction digits the
    endpoint pair needs.  Every test is a cross-multiplication, so the
    endpoints need not be in lowest terms.

    With the endpoints flipped to magnitudes on the spec's sign (as the
    stepper flips them on the sign code, so ``-0`` flips too) and P_j the
    name's prefix integers, j digits suffice iff P_j*qa > pa*10^j and
    (P_j + 1)*qb < pb*10^j: the stepper's ``lo.above()`` and
    ``hi.below_plus_one()``.  Both stay true once true (the stepper's
    lock is exact).  They put the prefix interval, of width 10^-j,
    strictly inside an interval of width w, so j0, the fewest j with
    10^-j < w, is a lower bound on m: the search steps up from j0 in
    growing strides, then bisects."""
    p, q = name.num, name.den
    if not (pa * q < p * qa and p * qb < pb * q):
        return _OUTSIDE
    if name.spec.sign < 0:
        pa, qa, pb, qb = -pb, qb, -pa, qa
    ps, tens = name.prefixes, name.tens
    # w = wn/wd.  With e the bit-length gap of wd over wn less one,
    # wd/wn > 2^e, and 3/10 < log10(2), so j = 3e//10 (0 if e < 0) is at
    # most j0: step up from there to j0 exactly
    wn, wd = pb * qa - pa * qb, qa * qb
    j = max(0, 3 * (wd.bit_length() - wn.bit_length() - 1) // 10)
    while True:
        if j >= len(tens):
            name.grow(j)
        if tens[j] * wn > wd:
            break
        j += 1

    def enough(j: int) -> bool:
        if j >= len(ps):
            name.grow(j)
        pj, tj = ps[j], tens[j]
        return pj * qa > pa * tj and (pj + 1) * qb < pb * tj

    lo, hi, stride = j - 1, j, 1  # enough(lo) is false; -1 probes nothing
    while not enough(hi):
        lo, hi, stride = hi, hi + stride, 2 * stride
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if enough(mid):
            hi = mid
        else:
            lo = mid
    return SValue(None, None, name.cost(hi + 1))


def _interval_open(pa: int, qa: int, pb: int, qb: int) -> OpenSet:
    """The open interval (pa/qa, pb/qb) of the decimal space, from integer
    endpoints with qa, qb > 0, not necessarily in lowest terms.
    Membership of a `DecimalName` is known at once from them by
    `_interval_outcome`; any other name is stepped, so its encoding
    errors surface at their step.  Its stepper's `Fraction` endpoints,
    in lowest terms, are built when the stepper is."""
    # a < b by cross-multiplication
    if not pa * qb < pb * qa:
        raise EncodingError(
            f"need a < b, got {Fraction(pa, qa)} >= {Fraction(pb, qb)}")

    def chi(d: Point) -> SValue:
        nm = d.payload
        if isinstance(nm, DecimalName):
            return _interval_outcome(nm, pa, qa, pb, qb)
        return SValue(lambda: _IntervalStepper(
            NameReader(nm), Fraction(pa, qa), Fraction(pb, qb)))

    return OpenSet(DECIMAL, chi)


def interval_open_decimal(a: Fraction, b: Fraction) -> OpenSet:
    """The open interval (a, b) as an open subset of the decimal space:
    `_interval_open` on the endpoints' numerators and denominators, read
    once, here."""
    if not isinstance(a, Fraction):
        a = Fraction(a)
    if not isinstance(b, Fraction):
        b = Fraction(b)
    return _interval_open(a.numerator, a.denominator, b.numerator,
                          b.denominator)


# ---------------------------------------------------------------------------
# The countable interval subbase


def _interval_ints(n: int) -> tuple[int, int, int, int]:
    """Interval n of the subbase as (pa, qa, pb, qb), the interval
    (pa/qa, pb/qb) with positive denominators, not in lowest terms: the
    left endpoint code and the positive width code, added over the
    product of their denominators."""
    i, j = unpair(n)
    s, d = unpair(i)
    u, v = unpair(j)
    pa, qa = zigzag(s), d + 1
    return pa, qa, pa * (v + 1) + (u + 1) * qa, qa * (v + 1)


def interval_for_index(n: int) -> tuple[Fraction, Fraction]:
    """A fixed pairing of every rational open interval: left endpoint code
    and positive width code, decoded by `_interval_ints` and put in
    lowest terms."""
    pa, qa, pb, qb = _interval_ints(n)
    return Fraction(pa, qa), Fraction(pb, qb)


def rational_interval_subbase() -> Presubbase:
    """The countable subbase of rational intervals, indexed by N; the
    induced representation follows the enumerated-set convention.  Member
    n is `_interval_open` on the integers of `_interval_ints(n)`."""

    def family(npt: Point) -> OpenSet:
        def chi(d: Point) -> SValue:
            return on_value(
                npt, lambda n: _interval_open(*_interval_ints(n)).chi(d))

        return OpenSet(DECIMAL, chi)

    return Presubbase(index=NAT, carrier=DECIMAL, family=family,
                      transpose_inverse=None)


class _QueueOnAccept:
    """One interval query of `enum_subbase_name`: forwards each step to
    its membership stepper and, when that accepts, queues its index and
    goes quiet.  It never accepts itself, so the engine never stops."""

    __slots__ = ("inner", "index", "ready")
    done = False
    never = False

    def __init__(self, inner, index: int, ready: deque):
        self.inner = inner
        self.index = index
        self.ready = ready

    def step(self) -> bool:
        inner = self.inner
        if inner is not None and inner.step():
            self.ready.append(self.index)
            self.inner = None
        return False


class _DecimalEnumName(Name):
    """`enum_subbase_name` of a `DecimalName` point, run by arithmetic.
    Every membership of such a point is known, so task i, instantiated at
    its slot ``dovetail_bound(i, 0)``, emits i+1 at ``dovetail_bound(i,
    max(k, 1))`` if its membership accepts at step k, and never if it
    never does: `_QueueOnAccept` steps its membership at least once before
    queueing.  Slots never coincide, so at most one value is due a step.
    Each membership is `_interval_outcome` on the integer endpoints of
    `_interval_ints`: the value the stepped task's `_interval_open` gives,
    without building the open.  `run_to` jumps; `advance` is one step of
    the same schedule."""

    __slots__ = ("point", "tasks", "due")

    def __init__(self, d: Point):
        super().__init__(None)
        self.point = d
        self.tasks = 0  # tasks instantiated so far
        self.due: list[tuple[int, int]] = []  # sorted (step, index+1)

    def advance(self) -> None:
        self.run_to(self._steps + 1)

    def run_to(self, t: int) -> None:
        if t <= self._steps:
            return
        i, due, nm = self.tasks, self.due, self.point.payload
        while dovetail_bound(i, 0) <= t:
            k = _interval_outcome(nm, *_interval_ints(i)).known
            if k != NEVER:
                insort(due, (dovetail_bound(i, max(k, 1)), i + 1))
            i += 1
        self.tasks = i
        n = bisect_left(due, (t + 1,))
        for s, v in due[:n]:
            if not self._vals:
                self.first = (v, s, None)
            self._vals.append(v)
            self._costs.append(s)
        del due[:n]
        self._steps = t


def enum_subbase_name(d: Point) -> Name:
    """The enumerated-set name of a decimal under the interval subbase:
    dovetail every interval membership query, one scheduler step per name
    step, and emit index+1 whenever one accepts.  A `DecimalName` point
    gets a `_DecimalEnumName`, the same emissions at the same steps
    computed from its known memberships; any other point steps the
    `Dovetail` below, which is the reference."""
    if isinstance(d.payload, DecimalName):
        return _DecimalEnumName(d)

    def gen() -> Iterator[Optional[int]]:
        ready: deque = deque()

        def task(i: int) -> _QueueOnAccept:
            return _QueueOnAccept(_interval_open(*_interval_ints(i)).chi(d)
                                  .make(), i, ready)

        engine = Dovetail(task)
        while True:
            engine.step()
            yield ready.popleft() + 1 if ready else None

    return Name(gen)


# ---------------------------------------------------------------------------
# Cauchy names


@dataclass(frozen=True)
class CauchyName:
    """A fast-converging rational sequence: level n is within 2^-n of the
    denoted real."""

    level: Callable[[int], Fraction]


def decimal_to_cauchy_direct(spec: DecimalSpec) -> CauchyName:
    """The independent repair oracle: level n truncates the decimal to
    the fewest k digits with 10^-k <= 2^-n, so the truncation error is at
    most 2^-n."""

    # nums[j]: the integer part and the first j digits as one integer, and
    # tens[j] = 10^j, grown together on demand so each digit is read once;
    # lists of its own, not `DecimalName`'s tables, so the oracle stays
    # independent of the code it checks
    nums, tens = [spec.int_part], [1]
    k = 0  # the digit count of the last level asked: the search starts there

    def level(n: int) -> Fraction:
        nonlocal k
        target = 1 << n
        while k and tens[k - 1] >= target:
            k -= 1
        while tens[k] < target:
            k += 1
            if k == len(tens):
                tens.append(10 * tens[-1])
                nums.append(10 * nums[-1] + spec.digit(k - 1))
        return spec.sign * Fraction(nums[k], tens[k])

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
    the whole prefix costs far less than the default fuel.  Every window
    is built by `_interval_open` from odd integer numerators over the
    level's power-of-two denominator and asked of the filter; neighbouring
    windows share an endpoint, so each later level's 7 windows take its 8
    numerators pairwise.  A decimal name answers each window from those
    integers: the only `Fraction`s built are the returned midpoints.

    Returns levels 1..precision_bits; level k is within 2^-(k+1) of the
    denoted real, hence within 2^-(k-1) of the direct truncation oracle.
    """
    comp = kolmogorov_completion(DECIMAL)
    p = comp.forward(d)
    flt: OpenSet = p.payload  # the neighborhood filter of d

    levels: List[Fraction] = []
    remaining = fuel
    m = 0  # the previous level's centre is m*2^-(k-1)
    for k in range(1, precision_bits + 1):
        # candidate c is the window (2c - 1, 2c + 1)/den, in lowest terms;
        # level 1 searches all of Z, later ones a window of 7 around the
        # previous centre, in the same zigzag order
        den = 1 << (k + 1)
        m0 = 2 * m
        if levels:
            # the 8 endpoint numerators 2*m0 - 7 + 2j of the 7 windows:
            # window c = m0 + z spans ends[z + 3] to ends[z + 4]
            ends = range(2 * m0 - 7, 2 * m0 + 9, 2)

            def candidate(i: int) -> SValue:
                j = zigzag(i) + 3
                return flt.chi(
                    _interval_open(ends[j], den, ends[j + 1], den).as_point())
        else:
            def candidate(i: int) -> SValue:
                c = zigzag(i)
                return flt.chi(
                    _interval_open(2 * c - 1, den, 2 * c + 1, den).as_point())

        hit = first_accepting(candidate, 7 if levels else None, remaining)
        if hit is None:
            raise FuelExhausted(k - 1, levels)
        winner, used = hit
        remaining -= used
        m = m0 + zigzag(winner)
        levels.append(Fraction(m, 1 << k))
    return levels
