import random
from fractions import Fraction

import pytest

from synthtop.kernel import EncodingError, decode_enum, dovetail_bound, literal_name
from synthtop.reals import (DECIMAL, FuelExhausted,
                            decimal_point, decimal_to_cauchy_direct,
                            enum_subbase_name, index_for_interval,
                            interval_for_index, interval_open_decimal,
                            parse_decimal, rational_interval_subbase,
                            repair_decimal)
from synthtop.sierpinski import NEGATIVE_FUEL, accept_at, bot, or_countable
from synthtop.spaces import Point, nat_point


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


def test_cauchy_name_coding_roundtrip():
    c = decimal_to_cauchy_direct(parse_decimal("0.3(3)"))
    nm = c.as_name()
    from synthtop.kernel import unpair, zigzag
    codes = nm.prefix(4, 100)
    for n, code in enumerate(codes):
        zn, d = unpair(code)
        assert Fraction(zigzag(zn), d + 1) == c.level(n)


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
