import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from synthtop.bases import kolmogorov_completion
from synthtop.kernel import (Dovetail, EncodingError, Name, NameReader,
                             decode_enum, delayed_name, dovetail_bound,
                             literal_name, pair, zigzag, zigzag_inv)
from synthtop.reals import (DECIMAL, DecimalSpec, FuelExhausted,
                            _interval_open, decimal_point,
                            decimal_to_cauchy_direct,
                            enum_subbase_name, interval_for_index,
                            interval_open_decimal,
                            parse_decimal, rational_interval_subbase,
                            repair_decimal)
from synthtop.sierpinski import (NEGATIVE_FUEL, NEVER, TALLY, SValue,
                                 accept_at, bot, first_accepting,
                                 or_countable, run)
from synthtop.spaces import Point, nat_point, read_first


def val(text):
    return parse_decimal(text).value


def test_parse_examples():
    assert val("0.5") == Fraction(1, 2)
    assert val("0.3(3)") == Fraction(1, 3)
    assert val("0.142857(142857)") == Fraction(1, 7)
    assert val("0.9(9)") == 1
    assert val("-12.5") == Fraction(-25, 2)
    assert val("3") == 3
    assert val("2.(45)") == 2 + Fraction(45, 99)


def test_parse_rejects_garbage():
    for bad in ("", "abc", "1.2.3", "0.(", "--1", "1.2(3"):
        with pytest.raises(EncodingError):
            parse_decimal(bad)


def test_half_accepted_with_one_digit():
    d = decimal_point(parse_decimal("0.5"))
    sv = interval_open_decimal(Fraction(0), Fraction(1)).chi(d)
    # sign, integer part, then the single digit that pins [0.5, 0.6]
    assert sv.status(3) == 3


def test_third_accepted_by_second_digit():
    d = decimal_point(parse_decimal("0.3(3)"))
    sv = interval_open_decimal(Fraction(3, 10), Fraction(4, 10)).chi(d)
    assert sv.status(4) == 4


def test_boundary_query_pends():
    d = decimal_point(parse_decimal("0.3(3)"))
    sv = interval_open_decimal(Fraction(1, 3), Fraction(1)).chi(d)
    assert sv.status(10 ** 4) is None


def test_boundary_query_on_a_decimal_name_reads_no_digit():
    d = decimal_point(parse_decimal("0.3(3)"))
    sv = interval_open_decimal(Fraction(1, 3), Fraction(1)).chi(d)
    before = TALLY.n
    assert sv.status(10 ** 6) is None
    assert TALLY.n - before == 10 ** 6
    assert d.payload.steps == 0  # nothing read, nothing cached
    assert sv.bound is None


@pytest.mark.parametrize("text, sign_code", [("0.5", 0), ("-1.25", 1),
                                              ("-0.0(5)", 1)])
@pytest.mark.parametrize("delay", [0, 2])
def test_read_first_of_a_decimal_point_is_its_sign_code(text, sign_code, delay):
    # a decimal name is a name: the generic first-value read applies to it
    p = decimal_point(parse_decimal(text), delay)
    assert read_first(p, delay) is None
    assert read_first(p, delay + 1) == sign_code


def test_decimal_point_rejects_a_negative_delay():
    with pytest.raises(EncodingError):
        decimal_point(parse_decimal("0.5"), delay=-2)
    assert decimal_point(parse_decimal("0.5"), delay=0).payload.cost(0) == 1


_DIGITS = st.lists(st.integers(0, 9), max_size=3).map(tuple)
_ZEROS = st.sampled_from(((), (0,), (0, 0)))
_SPECS = st.one_of(
    st.builds(DecimalSpec, st.sampled_from((1, -1)), st.integers(0, 3),
              _DIGITS,
              st.one_of(_DIGITS, st.sampled_from(((9,), (9, 9), ())))),
    # negative zero: the value is 0, but the sign code still flips the
    # endpoints
    st.builds(DecimalSpec, st.just(-1), st.just(0), _ZEROS, _ZEROS))


def _window(c, k):
    """The level-k repair window centred on c*2^-k."""
    return Fraction(2 * c - 1, 2 ** (k + 1)), Fraction(2 * c + 1, 2 ** (k + 1))


@st.composite
def _interval_cases(draw):
    """A decimal, a delay, and an interval: either a repair window of
    level k <= 64 near the value, or one whose endpoints are drawn from
    the value, its digit truncations (both ends of each prefix interval)
    and arbitrary rationals."""
    spec = draw(_SPECS)
    x = spec.value
    delay = draw(st.integers(0, 3))
    if draw(st.booleans()):
        k = draw(st.integers(1, 64))
        c = round(x * 2 ** k) + draw(st.integers(-3, 3))
        return (spec, delay, *_window(c, k))
    marks = [x]
    num = spec.int_part
    for j in range(6):
        marks += [spec.sign * Fraction(num, 10 ** j),
                  spec.sign * Fraction(num + 1, 10 ** j)]
        num = 10 * num + spec.digit(j)
    ends = st.one_of(st.sampled_from(marks),
                     st.fractions(-5, 5, max_denominator=60))
    a, b = sorted((draw(ends), draw(ends)))
    if a == b:
        b += Fraction(1, draw(st.integers(1, 10 ** 4)))
    return spec, delay, a, b


def _stepped_twin(d):
    """The same point with a plain `Name` payload (the same emissions and
    cost, without the spec): nothing about it is folded."""
    return Point(DECIMAL, Name(d.payload._factory, cost=d.payload.cost))


def _charged(sv, fuel):
    before = TALLY.n
    return sv.status(fuel), TALLY.n - before


@given(_interval_cases())
@settings(max_examples=200, deadline=None)
@example((parse_decimal("0.3(3)"), 0, Fraction(1, 3), Fraction(1)))
@example((parse_decimal("-0"), 2, Fraction(-1), Fraction(1, 10)))
@example((parse_decimal("-0.0(0)"), 1, Fraction(-1, 8), Fraction(1, 8)))
@example((parse_decimal("0.1(6)"), 0,
          *_window(round(Fraction(2 ** 62, 6)), 62)))
@example((parse_decimal("-1.(142857)"), 1,
          *_window(round(Fraction(-8, 7) * 2 ** 64), 64)))
@example((parse_decimal("0.9(9)"), 1, Fraction(1, 2), Fraction(3, 2)))
def test_folded_interval_membership_matches_the_stepper(case):
    spec, delay, a, b = case
    d = decimal_point(spec, delay)
    folded = interval_open_decimal(a, b).chi(d)
    stepped = interval_open_decimal(a, b).chi(_stepped_twin(d))
    assert stepped.known is None
    assert folded.bound is None
    k = folded.known
    assert (k != NEVER) == (a < spec.value < b)
    fuels = [10 ** 4] if k == NEVER else [k - 1, k, k + 1, 10 ** 4]
    for fuel in fuels:
        assert _charged(folded, fuel) == _charged(stepped, fuel), fuel


def _searched_outcome(spec, delay, a, b):
    """The known step of a decimal name's membership in (a, b), found as
    it was first: on `Fraction` endpoints, by an exponential search for
    the digit count m from no digits, then bisection."""
    if not a < spec.value < b:
        return NEVER
    if spec.sign < 0:
        a, b = -b, -a
    prefixes = [spec.int_part]

    def enough(j):
        while len(prefixes) <= j:
            prefixes.append(10 * prefixes[-1] + spec.digit(len(prefixes) - 1))
        lo = Fraction(prefixes[j], 10 ** j)
        return a < lo and lo + Fraction(1, 10 ** j) < b

    lo, hi = -1, 0
    while not enough(hi):
        lo, hi = hi, 2 * hi + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if enough(mid):
            hi = mid
        else:
            lo = mid
    return (hi + 2) * (delay + 1)  # the cost of emission m + 1


@given(_SPECS, st.integers(0, 2), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
@example(parse_decimal("-0"), 0, random.Random(0))
@example(parse_decimal("-0.0(0)"), 2, random.Random(1))
@example(parse_decimal("0.3(3)"), 0, random.Random(2))
@example(parse_decimal("-1.(142857)"), 1, random.Random(3))
@example(parse_decimal("0.9(9)"), 0, random.Random(4))
def test_integer_interval_kernel_matches_the_digit_search(spec, delay, rng):
    """`_interval_outcome` on integer endpoints, scaled out of lowest
    terms, against `_searched_outcome`, on one name asked in turn: repair
    windows of levels 1 to 220 near the value and random rational
    intervals.  Up to level 64 the window is also stepped on the
    `_stepped_twin`, which reads the digits."""
    import synthtop.reals as reals

    class Bounded(reals.DecimalName):
        # m stays below 80 digits for every case drawn here: a search
        # that runs on past 1000 fails instead of hanging
        def grow(self, j):
            assert j < 1000, "runaway digit search"
            super().grow(j)

    d = Point(DECIMAL, Bounded(spec, delay))
    x = spec.value
    cases = []
    for _ in range(30):
        k = rng.choice((rng.randint(1, 12), rng.randint(1, 220)))
        c = round(x * 2 ** k) + rng.randint(-3, 3)
        cases.append((k, *_window(c, k)))
    for _ in range(10):
        a = Fraction(rng.randint(-60, 60), rng.randint(1, 40))
        cases.append((None, a, a + Fraction(rng.randint(1, 60),
                                            rng.randint(1, 400))))
    for k, a, b in cases:
        want = _searched_outcome(spec, delay, a, b)
        s, t = rng.randint(1, 9), rng.randint(1, 9)
        got = reals._interval_outcome(d.payload, s * a.numerator,
                                      s * a.denominator, t * b.numerator,
                                      t * b.denominator)
        assert got.known == want, (k, a, b, s, t)
        assert interval_open_decimal(a, b).chi(d).known == want
        if k is not None and k <= 64:
            stepped = interval_open_decimal(a, b).chi(_stepped_twin(d))
            fuels = [10 ** 3] if want == NEVER else [want - 1, want]
            for fuel in fuels:
                assert _charged(stepped, fuel) \
                    == _charged(SValue(None, None, want), fuel), (k, a, b)


def _observe(sv, fuels):
    """A fresh status call per fuel: the answer, or the exception's type
    and message, with the ``TALLY`` delta."""
    out = []
    for f in fuels:
        t0 = TALLY.n
        try:
            got = ("ok", sv.status(f))
        except Exception as exc:
            got = ("raised", type(exc).__name__, str(exc))
        out.append((got, TALLY.n - t0))
    return out


def _raising_twin(spec, delay, r, bad):
    """The decimal's name up to its first r fraction digits, each emission
    after ``delay`` silent steps, then ``bad``, then silence: ``bad`` is a
    bad sign code at r = -2, and a bad digit at r >= 0 when it is over 9."""
    lead = [0 if spec.sign >= 0 else 1, spec.int_part]
    values = (lead + [spec.digit(j) for j in range(max(r, 0))])[:r + 2]
    return Point(DECIMAL, delayed_name([(delay, v) for v in values + [bad]],
                                       tail=None))


@given(_interval_cases(), st.integers(1, 9), st.integers(1, 9),
       st.integers(-2, 12), st.sampled_from((2, 10, 12)))
@settings(max_examples=150, deadline=None)
@example((parse_decimal("-0"), 2, Fraction(-1), Fraction(1, 10)), 3, 1, -2,
         2)
@example((parse_decimal("-1.(142857)"), 1,
          *_window(round(Fraction(-8, 7) * 2 ** 64), 64)), 1, 1, 5, 12)
def test_integer_interval_constructor_matches_the_fraction_adapter(
        case, s, t, r, bad):
    """`_interval_open` on endpoints scaled out of lowest terms answers as
    `interval_open_decimal` on their `Fraction`s: the same known value and
    bound on a decimal name, and the same trace at every fuel on the
    stepped twin and on a twin that raises at a bad emission."""
    spec, delay, a, b = case
    ints = (s * a.numerator, s * a.denominator,
            t * b.numerator, t * b.denominator)
    new = _interval_open(*ints)
    ref = interval_open_decimal(Fraction(*ints[:2]), Fraction(*ints[2:]))
    d = decimal_point(spec, delay)
    got, want = new.chi(d), ref.chi(d)
    assert (got.known, got.bound) == (want.known, want.bound)
    k = want.known
    fuels = [0, 1, 2, 3, 5, 8, 13, 10 ** 3]
    if k != NEVER:
        fuels += [k - 1, k, k + 1]
    for pt in (_stepped_twin(d), _raising_twin(spec, delay, r, bad)):
        assert _observe(new.chi(pt), fuels) == _observe(ref.chi(pt), fuels)
    with pytest.raises(EncodingError) as err:
        _interval_open(ints[2], ints[3], ints[0], ints[1])
    assert str(err.value) == f"need a < b, got {b} >= {a}"


def _dovetail_race(items, fuel):
    """`first_accepting` stepped on its `Dovetail`, without the fold."""
    at, race = run(SValue(lambda: Dovetail(lambda i: items[i].make(),
                                           len(items))), fuel)
    return None if at is None else (race.winner, at)


_KNOWN_MEMBERS = st.one_of(st.just(bot()), st.just(SValue(None, None, NEVER)),
                           st.builds(accept_at, st.integers(0, 30)))


@given(st.lists(_KNOWN_MEMBERS, max_size=7), st.integers(-2, 600))
@settings(max_examples=200, deadline=None)
@example([bot(), bot(), bot()], 500)
@example([bot(), accept_at(0), accept_at(0)], 10)
def test_folded_first_accepting_matches_the_dovetail_race(items, fuel):
    def run(race, fuel):
        before = TALLY.n
        return race(fuel), TALLY.n - before

    fold = run(lambda f: first_accepting(items.__getitem__, len(items), f),
               fuel)
    assert fold == run(lambda f: _dovetail_race(items, f), fuel)
    if fold[0] is not None:  # the landing is exact: pending one step before
        at = fold[0][1]
        assert run(lambda f: first_accepting(items.__getitem__, len(items), f),
                   at - 1) == run(lambda f: _dovetail_race(items, f), at - 1)
        assert first_accepting(items.__getitem__, len(items), at - 1) is None


def _bad_digit_query():
    # sign 0, integer part 0, digit 0, then the invalid digit 12 on step 4
    d = Point(DECIMAL, literal_name([0, 0, 0, 12, 5], tail=5))
    return interval_open_decimal(Fraction(1, 100), Fraction(1)).chi(d)


def test_encoding_error_is_sticky():
    sv = _bad_digit_query()
    for _ in range(2):
        with pytest.raises(EncodingError):
            sv.status(100)
    assert sv.status(3) is None  # pending below the raising step
    with pytest.raises(EncodingError):
        sv.status(4)
    with pytest.raises(EncodingError):
        _bad_digit_query().status(4)


@pytest.mark.parametrize("before", [
    [bot(), bot()],       # dead slots: skipped in bulk
    [accept_at(50)],      # every slot live: stepped one by one
])
def test_encoding_error_is_sticky_through_dovetail(before):
    n = len(before)
    at = dovetail_bound(n, 4, n + 1)  # the bad query's fourth step raises
    sv = or_countable(before + [_bad_digit_query()])
    for _ in range(2):
        with pytest.raises(EncodingError):
            sv.status(10 ** 4)
    assert sv.status(at - 1) is None
    with pytest.raises(EncodingError):
        sv.status(at)
    fresh = or_countable(before + [_bad_digit_query()])
    assert fresh.status(at - 1) is None
    with pytest.raises(EncodingError):
        fresh.status(at)


def test_trailing_nines_denote_the_limit():
    d = decimal_point(parse_decimal("0.9(9)"))
    assert interval_open_decimal(Fraction(1, 2), Fraction(3, 2)) \
        .chi(d).status(100) is not None
    # 0.9(9) = 1 sits on the boundary of (1/2, 1)
    assert interval_open_decimal(Fraction(1, 2), Fraction(1)) \
        .chi(d).status(10 ** 4) is None


def test_interval_soundness_on_random_rational_decimals():
    rng = random.Random(42)
    checked = 0
    for _ in range(1000):
        sign = rng.choice("+-")
        ip = rng.randrange(3)
        fixed = "".join(str(rng.randrange(10)) for _ in range(rng.randrange(4)))
        rep = "".join(str(rng.randrange(10)) for _ in range(rng.randrange(3)))
        text = f"{sign}{ip}"
        if fixed or rep:
            text += "." + fixed + (f"({rep})" if rep else "")
        spec = parse_decimal(text)
        a = Fraction(rng.randrange(-40, 40), rng.randrange(1, 12))
        b = a + Fraction(rng.randrange(1, 40), rng.randrange(1, 12))
        sv = interval_open_decimal(a, b).chi(decimal_point(spec))
        if sv.status(200) is not None:
            checked += 1
            assert a < spec.value < b, (text, a, b)
    assert checked > 100  # the sample must actually exercise acceptance


def test_completeness_off_the_boundary():
    rng = random.Random(7)
    for _ in range(60):
        spec = parse_decimal(f"{rng.randrange(2)}."
                             + "".join(str(rng.randrange(10)) for _ in range(6)))
        x = spec.value
        m = rng.randrange(1, 5)
        eps = Fraction(1, 10 ** m)
        a, b = x - eps, x + eps
        sv = interval_open_decimal(a, b).chi(decimal_point(spec))
        # sign + integer part + m+1 digits suffice
        assert sv.status(m + 3) is not None, (spec, m)


def test_direct_oracle_examples():
    half = decimal_to_cauchy_direct(parse_decimal("0.5"))
    for n in range(1, 13):  # level 0 tolerates error 1 and may truncate to 0
        assert half.level(n) == Fraction(1, 2)
    third = decimal_to_cauchy_direct(parse_decimal("0.3(3)"))
    assert abs(third.level(20) - Fraction(1, 3)) <= Fraction(1, 2 ** 20)
    ones = decimal_to_cauchy_direct(parse_decimal("0.9(9)"))
    for n in range(13):
        assert abs(ones.level(n) - 1) <= Fraction(1, 2 ** n)

    # each level against a truncation of the decimal's text, asked deepest
    # first and then shallowest first on one oracle
    for text in ("0.3(3)", "-1.(142857)", "2.(45)", "-0.0(5)", "12.5"):
        sign, body = (-1, text[1:]) if text.startswith("-") else (1, text)
        whole, _, frac = body.partition(".")
        fixed, _, rep = frac.rstrip(")").partition("(")
        direct = decimal_to_cauchy_direct(parse_decimal(text))
        for n in [*range(200, 0, -1), *range(1, 201)]:
            k = len(str(2 ** n - 1))  # fewest k with 10^k >= 2^n
            digits = (fixed + rep * k + "0" * k)[:k]
            want = sign * Fraction(int(whole + digits), 10 ** k)
            assert direct.level(n) == want, (text, n)


def _digits_for_bits(n):
    """Fewest k with 10^-k <= 2^-n, multiplied up from no digits."""
    k, pw, target = 0, 1, 1 << n
    while pw < target:
        pw *= 10
        k += 1
    return k


@pytest.mark.parametrize("text", ["0.(142857)", "-1.(142857)", "2.3(9)"])
def test_direct_oracle_digit_count_for_levels_in_any_order(text):
    """The oracle's search from the last level's digit count lands on
    `_digits_for_bits(n)` for every level 0..400, each asked twice in a
    random order.  No digit of these decimals is 0, so truncations to
    different digit counts differ."""
    spec = parse_decimal(text)
    direct = decimal_to_cauchy_direct(spec)
    ns = [*range(401), *range(401)]
    random.Random(5).shuffle(ns)
    for n in ns:
        k = _digits_for_bits(n)
        prefix = spec.int_part
        for j in range(k):
            prefix = 10 * prefix + spec.digit(j)
        assert direct.level(n) == spec.sign * Fraction(prefix, 10 ** k), n


def index_for_interval(a, b):
    """The index of (a, b) under `interval_for_index`, from the lowest
    terms of the endpoint and the width: the round-trip reference showing
    that `interval_for_index` reaches every interval."""
    a, w = Fraction(a), Fraction(b) - Fraction(a)
    assert w > 0
    i = pair(zigzag_inv(a.numerator), a.denominator - 1)
    j = pair(w.numerator - 1, w.denominator - 1)
    return pair(i, j)


def test_interval_index_codec():
    for a, b in ((Fraction(3, 10), Fraction(2, 5)),
                 (Fraction(-1, 3), Fraction(7, 2)),
                 (Fraction(0), Fraction(1))):
        assert interval_for_index(index_for_interval(a, b)) == (a, b)
    a, b = interval_for_index(0)
    assert a < b


def test_subbase_name_accepts_the_right_indices():
    sub = rational_interval_subbase()
    d = decimal_point(parse_decimal("0.3(3)"))
    n_hit = index_for_interval(Fraction(3, 10), Fraction(2, 5))
    hit = sub.family(nat_point(n_hit)).chi(d)
    assert hit.status(100) is not None
    n_miss = index_for_interval(Fraction(1, 2), Fraction(1))
    miss = sub.family(nat_point(n_miss)).chi(d)
    assert miss.status(NEGATIVE_FUEL) is None


def test_subbase_transposes_separate_points():
    from synthtop.bases import transpose
    sub = rational_interval_subbase()
    d1 = decimal_point(parse_decimal("0.25"))
    d2 = decimal_point(parse_decimal("0.75"))
    n = index_for_interval(Fraction(0), Fraction(1, 2))
    t1 = transpose(sub, d1)
    t2 = transpose(sub, d2)
    assert t1.chi(nat_point(n)).status(200) is not None
    assert t2.chi(nat_point(n)).status(NEGATIVE_FUEL) is None


def test_enum_name_convention():
    # the interval (0, 1) has index 0; a point inside it eventually emits 1
    a, b = interval_for_index(0)
    assert (a, b) == (Fraction(0), Fraction(1))
    d = decimal_point(parse_decimal("0.3(3)"))
    got = decode_enum(enum_subbase_name(d), 256)
    assert 0 in got


def _reference_enum_steps(d, steps):
    """The hand-rolled round-robin `enum_subbase_name` used before it ran
    on `Dovetail`: (name step, emitted index+1) for every emission."""
    ready, steppers, out = [], [], []
    rnd = pos = 0
    for t in range(1, steps + 1):
        i = pos
        if i == len(steppers):
            a, b = interval_for_index(i)
            steppers.append(interval_open_decimal(a, b).chi(d).make())
        elif steppers[i] is not None and steppers[i].step():
            ready.append(i)
            steppers[i] = None
        pos += 1
        if pos > rnd:
            rnd += 1
            pos = 0
        if ready:
            out.append((t, ready.pop(0) + 1))
    return out


def test_enum_subbase_name_emits_at_the_reference_steps():
    rng = random.Random(7)
    texts = ["0.3(3)", "0.5", "-1.25", "0.142857(142857)"]
    for _ in range(4):
        texts.append(f"{rng.choice(['', '-'])}{rng.randrange(2)}."
                     f"{rng.randrange(10)}({rng.randrange(1, 100)})")
    for k, text in enumerate(texts):
        spec = parse_decimal(text)
        delay = k % 3  # undelayed and delayed names
        r = NameReader(enum_subbase_name(decimal_point(spec, delay=delay)))
        got = []
        for t in range(1, 10_001):
            v = r.step()
            if v is not None:
                got.append((t, v))
        want = _reference_enum_steps(decimal_point(spec, delay=delay), 10_000)
        assert got == want, text
        assert got, text


def _emissions(nm, steps):
    """(step, value) of every emission a fresh reader sees in ``steps``."""
    r, out = NameReader(nm), []
    for t in range(1, steps + 1):
        v = r.step()
        if v is not None:
            out.append((t, v))
    return out


_FOLD_TEXTS = ["0.3(3)", "-0.3(3)", "0.5", "-1.25", "1.(142857)", "-0",
               "0.9(9)", "-1.0(72)"]


@pytest.mark.parametrize("text", _FOLD_TEXTS)
@pytest.mark.parametrize("delay", [0, 1, 2])
def test_folded_enum_name_matches_the_stepped_dovetail(text, delay):
    d = decimal_point(parse_decimal(text), delay)
    twin = _stepped_twin(d)
    assert type(enum_subbase_name(twin)) is Name
    want = _emissions(enum_subbase_name(twin), 10_000)
    assert want, text
    assert _emissions(enum_subbase_name(d), 10_000) == want
    jumped = enum_subbase_name(d)
    jumped.run_to(10_000)
    assert list(zip(jumped._costs, jumped._vals)) == want
    assert jumped.steps == 10_000
    for fuel in (-1, 0, 1, 2, 3, 7, 50, 299, 300, 301, 1234, 10_000):
        assert decode_enum(enum_subbase_name(d), fuel) \
            == decode_enum(enum_subbase_name(twin), fuel), fuel
    # one name, read in turn by a reader, a long decode and a short one
    nm = enum_subbase_name(d)
    r = NameReader(nm)
    seen = [(t, v) for t in range(1, 501) if (v := r.step()) is not None]
    assert seen == [(t, v) for t, v in want if t <= 500]
    assert decode_enum(nm, 10_000) == {v - 1 for _, v in want}
    assert decode_enum(nm, 300) == {v - 1 for t, v in want if t <= 300}
    assert nm.first == (want[0][1], want[0][0], None)


def test_folded_enum_schedule_matches_the_dovetail_for_any_known_outcome(
        monkeypatch):
    """Decimal memberships accept at step 2 or later; with every known
    outcome forced (0 and 1 included) the fold still lands each emission
    where the `Dovetail` run queues it.  The fold asks the integer kernel
    and the `Dovetail` steps the membership stepper, so both are forced,
    by one rule on the interval in lowest terms."""
    import synthtop.reals as reals

    outcomes = (0, 1, 2, 5, NEVER, 3)

    def rule(a, b):
        return outcomes[(a.numerator * 7 + b.denominator * 3) % len(outcomes)]

    def kernel(name, pa, qa, pb, qb):
        return SValue(None, None, rule(Fraction(pa, qa), Fraction(pb, qb)))

    monkeypatch.setattr(reals, "_interval_outcome", kernel)
    monkeypatch.setattr(reals, "_IntervalStepper",
                        lambda reader, a, b: SValue(None, None,
                                                    rule(a, b)).make())
    d = decimal_point(parse_decimal("0.3(3)"))
    want = _emissions(enum_subbase_name(_stepped_twin(d)), 3_000)
    assert {k for k in outcomes if k != NEVER} <= {
        rule(*interval_for_index(v - 1)) for _, v in want}
    assert _emissions(enum_subbase_name(d), 3_000) == want


def test_interval_open_decimal_refuses_empty_and_reversed_intervals():
    cases = [((Fraction(1, 3), Fraction(1, 3)), "1/3 >= 1/3"),
             ((Fraction(1, 2), Fraction(-1, 2)), "1/2 >= -1/2"),
             ((1, 1), "1 >= 1"),
             ((2, -3), "2 >= -3"),
             ((0.5, 0.5), "1/2 >= 1/2"),
             ((2.5, 0.25), "5/2 >= 1/4"),
             ((-0.5, Fraction(-1, 2)), "-1/2 >= -1/2")]
    for (a, b), got in cases:
        with pytest.raises(EncodingError) as err:
            interval_open_decimal(a, b)
        assert str(err.value) == f"need a < b, got {got}"
    d = decimal_point(parse_decimal("0.4(3)"))  # 13/30
    for a, b in ((Fraction(1, 3), Fraction(1, 2)), (Fraction(-1, 2), -0.25),
                 (Fraction(3, 7), Fraction(4, 9)), (-1, 0.5), (2, 3)):
        k = interval_open_decimal(a, b).chi(d).known
        assert (k != NEVER) == (a < Fraction(13, 30) < b), (a, b)


def test_repair_examples():
    for text, bits in (("0.5", 10), ("0.3(3)", 20), ("0.9(9)", 10)):
        spec = parse_decimal(text)
        direct = decimal_to_cauchy_direct(spec)
        levels = repair_decimal(decimal_point(spec), bits)
        assert len(levels) == bits
        for k, q in enumerate(levels, start=1):
            assert abs(q - spec.value) <= Fraction(1, 2 ** (k + 1))
            assert abs(q - direct.level(k)) <= Fraction(1, 2 ** (k - 1))


def test_repair_of_half_takes_exact_midpoints():
    levels = repair_decimal(decimal_point(parse_decimal("0.5")), 10)
    for q in levels:
        assert q == Fraction(1, 2)


def test_repair_fuel_exhaustion_reports_depth():
    with pytest.raises(FuelExhausted) as e:
        repair_decimal(decimal_point(parse_decimal("0.3(3)")), 20, fuel=40)
    assert e.value.level < 20
    assert len(e.value.levels) == e.value.level


def _reference_repair(d, bits, fuel):
    """`repair_decimal` with each level's windows built from `Fraction`
    centres, as it was written first, on a plain name with the same
    emissions: every membership query and every race is stepped."""
    plain = Point(DECIMAL, Name(d.payload._factory, cost=d.payload.cost))
    flt = kolmogorov_completion(DECIMAL).forward(plain).payload
    levels, remaining = [], fuel
    for k in range(1, bits + 1):
        half = Fraction(1, 2 ** (k + 1))
        grid = 2 * half
        m0 = round(levels[-1] / grid) if levels else 0

        def candidate(i):
            c = (m0 + zigzag(i)) * grid
            u = interval_open_decimal(c - half, c + half)
            return flt.chi(u.as_point())

        at, race = run(SValue(lambda: Dovetail(lambda i: candidate(i).make(),
                                               7 if levels else None)),
                       remaining)
        if at is None:
            raise FuelExhausted(k - 1, levels)
        remaining -= at
        levels.append((m0 + zigzag(race.winner)) * grid)
    return levels


def _repair_outcome(run):
    before = TALLY.n
    try:
        got = run()
    except FuelExhausted as e:
        got = ("exhausted", e.level, e.levels)
    return got, TALLY.n - before


@given(_SPECS, st.integers(0, 2), st.integers(1, 40),
       st.one_of(st.integers(-1, 300), st.integers(300, 8000)))
@settings(max_examples=80, deadline=None)
@example(parse_decimal("-1.(142857)"), 1, 40, 8000)
@example(parse_decimal("-0.0(5)"), 0, 40, 8000)
@example(parse_decimal("0.25"), 0, 4, 500)
def test_repair_matches_the_fraction_window_reference(spec, delay, bits, fuel):
    d = decimal_point(spec, delay)
    fast = _repair_outcome(lambda: repair_decimal(d, bits, fuel))
    ref = _repair_outcome(
        lambda: _reference_repair(decimal_point(spec, delay), bits, fuel))
    assert fast == ref


@pytest.mark.parametrize("text", ["0.3(3)", "-1.(142857)"])
def test_repair_builds_no_fraction_per_window(text, monkeypatch):
    """Repair's windows are integer endpoints: at 200 bits it builds one
    `Fraction` per level, the midpoint it returns, and a few besides."""
    import synthtop.reals as reals

    built = []

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    spec = parse_decimal(text)
    want = repair_decimal(decimal_point(spec), 200)
    d = decimal_point(spec)
    monkeypatch.setattr(reals, "Fraction", Counted)
    got = repair_decimal(d, 200)
    monkeypatch.undo()
    assert got == want
    assert len(built) <= 200 + 4, len(built)


@pytest.mark.xfail(strict=True, raises=FuelExhausted,
                   reason="level windows share endpoints; m/2^j with m odd, "
                          "j >= 2, sits on one at level j-1 and no open "
                          "window contains it")
@pytest.mark.parametrize("text", ["0.25", "-1.25", "0.375",
                                  # -3/8 and -3/4, drawn by the repair
                                  # benchmark's seeds 71 and 91
                                  "-0.374(9)", "-0.75(0)"])
def test_repair_of_dyadic_rationals_with_denominator_at_least_four(text):
    spec = parse_decimal(text)
    direct = decimal_to_cauchy_direct(spec)
    levels = repair_decimal(decimal_point(spec), 4, fuel=10 ** 5)
    assert len(levels) == 4
    for k, q in enumerate(levels, start=1):
        assert abs(q - direct.level(k)) <= Fraction(1, 2 ** (k - 1)), k


@pytest.mark.xfail(strict=True, raises=FuelExhausted,
                   reason="level 1 dovetails every integer centre in zigzag "
                          "order, a schedule quadratic in the index, so "
                          "|x| near 500 exhausts the default fuel")
@pytest.mark.parametrize("text", ["500", "1000", "-1000"])
def test_repair_of_large_magnitudes(text):
    spec = parse_decimal(text)
    direct = decimal_to_cauchy_direct(spec)
    levels = repair_decimal(decimal_point(spec), 20)
    assert len(levels) == 20
    for k, q in enumerate(levels, start=1):
        assert abs(q - direct.level(k)) <= Fraction(1, 2 ** (k - 1)), k


def test_repair_agreement_on_random_periodic_decimals():
    rng = random.Random(31)
    for _ in range(12):
        sign = rng.choice(["", "-"])
        ip = rng.randrange(3)
        fixed = "".join(str(rng.randrange(10)) for _ in range(rng.randrange(3)))
        rep = "".join(str(rng.randrange(10)) for _ in range(1, rng.randrange(1, 4) + 1))
        text = f"{sign}{ip}.{fixed}({rep})"
        spec = parse_decimal(text)
        bits = rng.randrange(4, 13)
        direct = decimal_to_cauchy_direct(spec)
        levels = repair_decimal(decimal_point(spec), bits)
        for k, q in enumerate(levels, start=1):
            assert abs(q - spec.value) <= Fraction(1, 2 ** k), (text, k)
            assert abs(q - direct.level(k)) <= Fraction(1, 2 ** (k - 1)), (text, k)


def test_interval_acceptance_is_pacing_extensional():
    # names of the same real with different emission pacing agree on
    # acceptance-ever (step counts may differ, outcomes may not)
    rng = random.Random(13)
    for _ in range(30):
        spec = parse_decimal(f"0.{rng.randrange(10)}{rng.randrange(10)}(3)")
        a = Fraction(rng.randrange(-4, 4), rng.randrange(1, 7))
        b = a + Fraction(rng.randrange(1, 7), rng.randrange(1, 7))
        u = interval_open_decimal(a, b)
        eager = u.chi(decimal_point(spec)).status(400) is not None
        laggy = u.chi(decimal_point(spec, delay=3)).status(1600) is not None
        assert eager == laggy


def test_filter_queries_monotone_under_widening():
    d = decimal_point(parse_decimal("0.3(3)"))
    rng = random.Random(1)
    for _ in range(40):
        a = Fraction(rng.randrange(-8, 3), rng.randrange(1, 9))
        b = a + Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        wide_a = a - Fraction(rng.randrange(0, 3), rng.randrange(1, 5))
        wide_b = b + Fraction(rng.randrange(0, 3), rng.randrange(1, 5))
        if not wide_a < wide_b:
            continue
        for fuel in (2, 4, 8, 32, 128):
            narrow = interval_open_decimal(a, b).chi(d).status(fuel)
            wide = interval_open_decimal(wide_a, wide_b).chi(d).status(fuel)
            if narrow is not None:
                assert wide is not None and wide <= narrow
