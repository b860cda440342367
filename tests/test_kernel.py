import pytest
from hypothesis import given, settings, strategies as st

from synthtop.kernel import (EncodingError, Dovetail, decode_enum,
                             dovetail_bound, delayed_name, enum_name,
                             literal_name, pair, project, tuple_names, unpair,
                             zigzag, zigzag_inv)
from synthtop.sierpinski import (TALLY, accept_at, after, bot, or_countable,
                                 top)


def test_pair_base_case():
    assert pair(0, 0) == 0


def test_unpair_roundtrip_example():
    assert unpair(pair(7, 3)) == (7, 3)


def test_pair_injective_on_grid():
    grid = {pair(i, j) for i in range(101) for j in range(101)}
    assert len(grid) == 101 * 101


@given(st.integers(0, 10 ** 9), st.integers(0, 10 ** 9))
def test_pair_unpair_roundtrip(m, n):
    assert unpair(pair(m, n)) == (m, n)


@given(st.integers(0, 10 ** 9))
def test_unpair_pair_roundtrip(k):
    m, n = unpair(k)
    assert pair(m, n) == k


def test_pair_rejects_negatives():
    with pytest.raises(EncodingError):
        pair(-1, 0)


@given(st.integers(0, 10 ** 6))
def test_zigzag_roundtrip(n):
    assert zigzag_inv(zigzag(n)) == n


def test_name_replay_is_deterministic():
    nm = delayed_name([(3, 7), (0, 2), (5, 1)], tail=None)
    first = nm.prefix(3, 1000)
    again = delayed_name([(3, 7), (0, 2), (5, 1)], tail=None).prefix(3, 1000)
    assert first == again == [7, 2, 1]


def test_name_cost_hints_are_exact():
    nm = delayed_name([(3, 7), (0, 2)], tail=0)
    assert nm.cost(0) == 4
    assert nm.cost(1) == 5
    assert nm.cost(2) == 6  # tail emissions, one per step
    assert literal_name([5]).cost(0) == 1


def test_name_rejects_bad_emissions():
    nm = literal_name([1])
    bad = nm  # a generator emitting a negative value
    from synthtop.kernel import Name
    evil = Name(lambda: iter([-1]))
    with pytest.raises(EncodingError):
        evil.advance()


def test_project_of_tuple_is_component():
    p = literal_name(range(100, 200))
    q = literal_name(range(50))
    t = tuple_names([p, q])
    assert project(t, 0).prefix(5, 10 ** 5) == [100, 101, 102, 103, 104]
    assert project(t, 1).prefix(5, 10 ** 5) == [0, 1, 2, 3, 4]


def test_tuple_of_constant_names():
    t = tuple_names(lambda i: literal_name([], tail=i))
    assert project(t, 3).prefix(4, 10 ** 5) == [3, 3, 3, 3]


def test_tuple_project_roundtrip_random_family():
    import random
    rng = random.Random(7)
    fams = [[rng.randrange(100) for _ in range(64)] for _ in range(8)]
    t = tuple_names([literal_name(vals) for vals in fams])
    for i in range(8):
        assert project(t, i).prefix(32, 10 ** 6) == fams[i][:32]


def test_decode_enum_all_zero_is_empty():
    assert decode_enum(literal_name([], tail=0), 10 ** 4) == set()


def test_decode_enum_range_minus_one():
    assert decode_enum(literal_name([1, 2, 3], tail=0), 3) == {0, 1, 2}


def test_enumset_wrapper():
    from synthtop.kernel import EnumSet
    es = EnumSet(enum_name([4, 0, 9]))
    assert es.decode(100) == {4, 0, 9}
    assert es.decode(1) <= es.decode(100)


def test_decode_enum_monotone_and_planted():
    import random
    rng = random.Random(3)
    for _ in range(25):
        planted = {rng.randrange(10) for _ in range(rng.randrange(1, 6))}
        order = sorted(planted)
        rng.shuffle(order)
        nm = enum_name(order)
        small = decode_enum(nm, 2)
        assert small <= decode_enum(nm, 1000) == planted


def test_dovetail_accepts_any_accepting_task():
    tasks = [bot(), accept_at(1), bot()]
    engine = Dovetail(lambda i: tasks[i].fresh(), 3)
    assert engine.run(100) is not None
    assert engine.winner == 1


def test_dovetail_all_divergent_pends():
    engine = Dovetail(lambda i: bot().fresh(), None)
    assert engine.run(10 ** 4) is None


def test_dovetail_planted_meets_fairness_bound():
    import random
    rng = random.Random(11)
    for _ in range(5):
        idx = rng.randrange(0, 500)
        k = rng.randrange(1, 40)
        engine = Dovetail(
            lambda i, _i=idx, _k=k: (accept_at(_k) if i == _i else bot()).fresh(),
            None)
        bound = dovetail_bound(idx, k)
        used = engine.run(bound)
        assert used == bound  # the schedule is exact, not just bounded
        assert engine.winner == idx


def test_dovetail_bound_finite_family_cap():
    # size 2 schedule: [0], [0,1], [0,1], ... with first slots instantiating
    assert dovetail_bound(0, 1, size=2) == 2
    assert dovetail_bound(1, 1, size=2) == 5
    assert dovetail_bound(0, 3, size=2) == 6
    # exactness against the engine itself
    engine = Dovetail(lambda i: accept_at(3).fresh() if i == 0 else bot().fresh(), 2)
    assert engine.run(10 ** 3) == 6


def test_dovetail_outcome_independent_of_probe_granularity():
    def make():
        return Dovetail(
            lambda i: (accept_at(5) if i == 7 else bot()).fresh(), None)

    coarse = make()
    used_coarse = coarse.run(10 ** 5)
    fine = make()
    used_fine = 0
    while not fine.step():
        used_fine += 1
    assert used_coarse == used_fine + 1
    assert coarse.winner == fine.winner == 7


# ---------------------------------------------------------------------------
# Dead-slot skipping: `run` against the `step` reference


def _task(kind):
    """None is a dead bot(), -1 a live task that never accepts, 0 is top(),
    k > 0 is accept_at(k)."""
    if kind is None:
        return bot()
    if kind < 0:
        return after(1, bot())
    return top() if kind == 0 else accept_at(kind)


def _family(kinds):
    return lambda i: _task(kinds[i] if i < len(kinds) else None)


def _reference(kinds, size, cuts):
    """Plain `step` loop: (accepted step or None, winner, (rnd, pos) after
    each pending cut)."""
    engine = Dovetail(lambda i: _family(kinds)(i).fresh(), size)
    used = 0
    marks = []
    for cut in cuts:
        for _ in range(cut):
            used += 1
            if engine.step():
                return used, engine.winner, marks
        marks.append((engine.rnd, engine.pos))
    return None, None, marks


_KINDS = st.lists(st.one_of(st.none(), st.integers(-1, 30)), max_size=12)
_CUTS = st.lists(st.one_of(st.integers(0, 12), st.integers(0, 300)),
                 min_size=1, max_size=6)


@given(_KINDS, st.booleans(), _CUTS)
@settings(max_examples=300, deadline=None)
def test_run_skipping_dead_slots_matches_step(kinds, infinite, cuts):
    size = None if infinite else len(kinds)
    want_at, want_winner, want_marks = _reference(kinds, size, cuts)
    engine = Dovetail(lambda i: _family(kinds)(i).fresh(), size)
    used = 0
    marks = []
    got_at = None
    for cut in cuts:
        got = engine.run(cut)
        if got is not None:
            got_at = used + got
            break
        used += cut
        marks.append((engine.rnd, engine.pos))
        assert engine.steps == (used if size != 0 else 0)
    assert got_at == want_at
    assert marks == want_marks
    if want_at is not None:
        assert engine.winner == want_winner


@given(_KINDS, st.booleans(), _CUTS)
@settings(max_examples=300, deadline=None)
def test_status_on_dovetail_matches_step_and_tally(kinds, infinite, cuts):
    size = None if infinite else len(kinds)
    want_at, _, _ = _reference(kinds, size, cuts)
    v = or_countable(_family(kinds), size)
    fuel = 0
    before = TALLY.n
    for cut in cuts:
        fuel += cut
        got = v.status(fuel)
        assert got == (want_at if want_at is not None and want_at <= fuel
                       else None)
    charged = fuel if want_at is None else min(want_at, fuel)
    assert TALLY.n - before == charged


def test_all_dead_finite_family_is_never():
    engine = Dovetail(lambda i: bot().fresh(), 5)
    assert not engine.never
    assert engine.run(15) is None  # rounds 0..4 instantiate all five
    assert engine.never
    assert engine.run(10 ** 12) is None
    assert engine.steps == 15 + 10 ** 12
    assert Dovetail(lambda i: bot().fresh(), 0).never
    assert or_countable([bot(), bot()]).status(10 ** 12) is None


class _Counted:
    """A stepper that counts every step it is given; ``left=None`` never
    accepts and says so."""

    def __init__(self, left, counter):
        self.left = left
        self.counter = counter
        self.done = left == 0
        self.never = left is None

    def step(self):
        self.counter[0] += 1
        if self.counter[0] > 10 ** 5:
            raise AssertionError("dead slots are stepped one by one")
        if self.left is None:
            return False
        self.left -= 1
        self.done = self.left <= 0
        return self.done


def test_planted_acceptor_costs_work_linear_in_index():
    idx, k = 10 ** 4, 3
    counter = [0]

    def family(i):
        counter[0] += 1
        return _Counted(k if i == idx else None, counter)

    engine = Dovetail(family, None)
    bound = dovetail_bound(idx, k)
    assert engine.run(bound) == bound
    assert engine.winner == idx
    # about idx + k family calls and live steps, not ~5 * 10^7 dead steps
    assert counter[0] <= 2 * (idx + k)
