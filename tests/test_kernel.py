from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from synthtop.kernel import (EncodingError, Dovetail, Name, NameReader,
                             decode_enum, dovetail_bound, delayed_name,
                             literal_name, pair, unpair, zigzag,
                             zigzag_inv)
from synthtop import sierpinski
from synthtop.sierpinski import (TALLY, SValue, accept_at, bot,
                                 or_countable, top)


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


def test_decode_enum_all_zero_is_empty():
    assert decode_enum(literal_name([], tail=0), 10 ** 4) == set()


def test_decode_enum_range_minus_one():
    assert decode_enum(literal_name([1, 2, 3], tail=0), 3) == {0, 1, 2}


def test_decode_enum_monotone_and_planted():
    import random
    rng = random.Random(3)
    for _ in range(25):
        planted = {rng.randrange(10) for _ in range(rng.randrange(1, 6))}
        order = sorted(planted)
        rng.shuffle(order)
        nm = literal_name([m + 1 for m in order], tail=0)
        small = decode_enum(nm, 2)
        assert small <= decode_enum(nm, 1000) == planted


def _reader_decode(p, fuel):
    """`decode_enum` as a `NameReader` loop: the reference."""
    r = NameReader(p)
    out = set()
    for _ in range(fuel):
        v = r.step()
        if v is not None and v >= 1:
            out.add(v - 1)
    return out


def _outcome(f, *args):
    try:
        return "set", f(*args)
    except Exception as exc:
        return "raised", exc


def _failing_at(s):
    """A generator name that emits 1, 2, ... and raises at step s."""
    def gen():
        for t in range(1, s):
            yield t if t % 3 else None
        raise RuntimeError(f"step {s}")
    return Name(gen)


@pytest.mark.parametrize("make", [
    lambda: literal_name([3, 1, 4, 1, 5], tail=0),
    lambda: literal_name([2, 7], tail=None),
    lambda: literal_name([], tail=9),
    lambda: delayed_name([(2, 5), (0, 1), (4, 8)], tail=3),
    lambda: delayed_name([(3, 2)], tail=None),
    lambda: _failing_at(1),
    lambda: _failing_at(12),
    lambda: Name(lambda: iter([3, -1, 7, -2, 5])),
])
def test_bulk_decode_enum_matches_the_reader_loop(make):
    fuels = range(-1, 41)
    # fresh names, one per fuel: the same set, or an error at the same step
    for fuel in fuels:
        got, want = _outcome(decode_enum, make(), fuel), \
            _outcome(_reader_decode, make(), fuel)
        assert got[0] == want[0], fuel
        if got[0] == "set":
            assert got[1] == want[1], fuel
        else:
            assert type(got[1]) is type(want[1]) \
                and str(got[1]) == str(want[1]), fuel
    # one shared name, decoded in rising and falling fuel order and after
    # a reader has driven its run past every fuel: the same exception
    # object as the reader loop, at every fuel from its step on
    for order in (list(fuels), list(reversed(fuels))):
        nm = make()
        for fuel in order:
            got, want = _outcome(decode_enum, nm, fuel), \
                _outcome(_reader_decode, nm, fuel)
            assert got[0] == want[0] and (got[1] == want[1] if got[0] == "set"
                                          else got[1] is want[1]), fuel
    nm = make()
    r = NameReader(nm)
    for _ in range(60):
        try:
            r.step()
        except Exception:
            pass
    assert nm.steps >= 60
    for fuel in fuels:
        got, want = _outcome(decode_enum, nm, fuel), \
            _outcome(_reader_decode, nm, fuel)
        assert got[0] == want[0] and (got[1] == want[1] if got[0] == "set"
                                      else got[1] is want[1]), fuel


def test_bulk_decode_enum_raises_the_earliest_error_within_fuel():
    nm = _failing_at(12)
    assert decode_enum(nm, 11) == {0, 1, 3, 4, 6, 7, 9, 10}
    with pytest.raises(RuntimeError) as first:
        decode_enum(nm, 12)
    for fuel in (12, 13, 40):
        with pytest.raises(RuntimeError) as again:
            decode_enum(nm, fuel)
        assert again.value is first.value
    assert decode_enum(nm, 11) == {0, 1, 3, 4, 6, 7, 9, 10}
    # two errors: every fuel past the first raises the first one
    nm = Name(lambda: iter([3, -1, 7, -2, 5]))
    assert decode_enum(nm, 1) == {2}
    errs = [_outcome(decode_enum, nm, fuel)[1] for fuel in (5, 2, 4, 3)]
    assert all(isinstance(e, EncodingError) for e in errs)
    assert all(e is errs[0] for e in errs)
    assert str(errs[0]) == "name emitted -1; naturals only"
    # a factory that raises: the reader's first step raises it
    def factory():
        raise KeyError("factory")
    nm = Name(factory)
    assert decode_enum(nm, 0) == set()
    for fuel in (1, 5):
        with pytest.raises(KeyError):
            _reader_decode(nm, fuel)
        with pytest.raises(KeyError):
            decode_enum(nm, fuel)


def test_run_to_drives_the_canonical_run():
    nm = delayed_name([(2, 5), (0, 1)], tail=None)
    nm.run_to(0)
    assert nm.steps == 0
    nm.run_to(4)
    assert nm.steps == 4 and nm.prefix(5, 4) == [5, 1]
    nm.run_to(2)
    assert nm.steps == 4
    assert nm.first == (5, 3, 3)


def test_dovetail_accepts_any_accepting_task():
    tasks = [bot(), accept_at(1), bot()]
    engine = Dovetail(lambda i: tasks[i].make(), 3)
    assert engine.run(100) is not None
    assert engine.winner == 1


def test_dovetail_all_divergent_pends():
    engine = Dovetail(lambda i: bot().make(), None)
    assert engine.run(10 ** 4) is None


def test_dovetail_planted_meets_fairness_bound():
    import random
    rng = random.Random(11)
    for _ in range(5):
        idx = rng.randrange(0, 500)
        k = rng.randrange(1, 40)
        engine = Dovetail(
            lambda i, _i=idx, _k=k: (accept_at(_k) if i == _i else bot()).make(),
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
    engine = Dovetail(lambda i: accept_at(3).make() if i == 0 else bot().make(), 2)
    assert engine.run(10 ** 3) == 6


def test_dovetail_outcome_independent_of_probe_granularity():
    def make():
        return Dovetail(
            lambda i: (accept_at(5) if i == 7 else bot()).make(), None)

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
        return or_countable(lambda i: bot())
    return top() if kind == 0 else accept_at(kind)


def test_task_kinds_are_dead_and_live_as_named():
    # kind -1 must stay a live slot, or no run has one that never accepts
    assert _task(None).make().never is True
    assert _task(-1).make().never is False


def _family(kinds):
    return lambda i: _task(kinds[i] if i < len(kinds) else None)


def _reference(kinds, size, cuts):
    """Plain `step` loop: (accepted step or None, winner, (rnd, pos) after
    each pending cut)."""
    engine = Dovetail(lambda i: _family(kinds)(i).make(), size)
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
    engine = Dovetail(lambda i: _family(kinds)(i).make(), size)
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
    value = or_countable(_family(kinds) if infinite
                         else [_task(k) for k in kinds])
    fuel = 0
    for cut in cuts:
        fuel += cut
        before = TALLY.n
        got = value.status(fuel)
        assert got == (want_at if want_at is not None and want_at <= fuel
                       else None)
        assert TALLY.n - before == (fuel if got is None else got)


class _SlotBySlot(Dovetail):
    """`Dovetail` whose `run` is the one-slot `step` loop: the reference."""

    __slots__ = ()

    def run(self, budget):
        for used in range(1, budget + 1):
            if self.step():
                return used
        return None


class _RaisesAt:
    """A live stepper that raises at its own k-th step."""

    done = False
    never = False

    def __init__(self, i, k):
        self.i, self.k, self.taken = i, k, 0

    def step(self):
        self.taken += 1
        if self.taken >= self.k:
            raise RuntimeError(f"task {self.i} raised at its step {self.k}")
        return False


def _raising_task(kinds, i):
    """As `_task`, plus "make" (the family call raises at the task's
    instantiation slot) and ("step", k) (`_RaisesAt` k)."""
    kind = kinds[i] if i < len(kinds) else None
    if kind == "make":
        def make():
            raise RuntimeError(f"task {i} raised at its instantiation")
        return SValue(make)
    if isinstance(kind, tuple):
        return SValue(lambda: _RaisesAt(i, kind[1]))
    return _task(kind)


def _trace(kinds, size, fuels):
    """A fresh status call on ``or_countable`` over ``kinds`` per fuel:
    the answer, or the exception's type and message, with the ``TALLY``
    delta."""
    if size is None:
        value = or_countable(lambda i: _raising_task(kinds, i))
    else:
        value = or_countable([_raising_task(kinds, i) for i in range(size)])
    trace = []
    for fuel in fuels:
        before = TALLY.n
        try:
            got = value.status(fuel)
        except RuntimeError as exc:
            got = (type(exc), str(exc))
        trace.append((got, TALLY.n - before))
    return trace


_RAISING_KINDS = st.lists(
    st.one_of(st.none(), st.integers(-1, 30), st.just("make"),
              st.tuples(st.just("step"), st.integers(1, 30))),
    max_size=12)


@given(_RAISING_KINDS, st.booleans())
@settings(max_examples=150, deadline=None)
# families with no dead task: every instantiated slot is live
@example([-1, -1, -1], False)
@example([-1, 30, 2, ("step", 12), 4], False)
@example([("step", 25), -1, 9, -1, 17, -1], False)
@example([-1, ("step", 9), -1, -1, "make"], False)
@example([30, -1, 25, 20, -1, ("step", 30)], True)
def test_run_matches_the_step_loop_on_raising_and_live_tasks(kinds, infinite):
    size = None if infinite else len(kinds)
    fuels = range(121)
    got = _trace(kinds, size, fuels)
    with mock.patch.object(sierpinski, "Dovetail", _SlotBySlot):
        want = _trace(kinds, size, fuels)
    assert got == want


def _resumed(engine_type, kinds, size, cuts):
    """One ``engine_type`` engine over ``kinds`` (`_raising_task`), driven
    by `run` through ``cuts`` in turn, to its first acceptance or raise.
    Per cut: the answer, ``winner`` and ``steps``; for a raise, its type,
    message and step."""
    engine = engine_type(lambda i: _raising_task(kinds, i).make(), size)
    out = []
    for cut in cuts:
        try:
            got = engine.run(cut)
        except RuntimeError as exc:
            out.append((type(exc), str(exc), engine.steps + 1))
            break
        out.append((got, engine.winner, engine.steps))
        if got is not None:
            break
    return out


@given(_RAISING_KINDS, st.booleans(), _CUTS)
@settings(max_examples=300, deadline=None)
@example([-1, -1, -1], False, [4, 1, 7, 2])
@example([-1, ("step", 9), -1, -1, "make"], False, [5, 3, 3, 30])
@example([None, -1, None, None, -1, ("step", 4)], True, [7, 7, 7, 7, 7, 90])
def test_run_resumes_mid_round_as_the_step_loop(kinds, infinite, cuts):
    # no status call resumes an engine; `step` and any view of the
    # engine read the state `run` leaves after each budget
    size = None if infinite else len(kinds)
    assert _resumed(Dovetail, kinds, size, cuts) == _resumed(
        _SlotBySlot, kinds, size, cuts)


def test_all_dead_finite_family_is_never():
    engine = Dovetail(lambda i: bot().make(), 5)
    assert not engine.never
    assert engine.run(15) is None  # rounds 0..4 instantiate all five
    assert engine.never
    assert engine.run(10 ** 12) is None
    assert engine.steps == 15 + 10 ** 12
    assert Dovetail(lambda i: bot().make(), 0).never
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


def _reader_trace(nm, steps):
    r = NameReader(nm)
    out = []
    for _ in range(steps):
        try:
            out.append(r.step())
        except EncodingError:
            out.append("error")
    return out


def test_name_error_replays_in_every_reader():
    nm = Name(lambda: iter([3, -1, 7, None]))
    assert _reader_trace(nm, 5) == [3, "error", 7, None, None]
    # a later reader served from the cache meets the error at the same step
    assert _reader_trace(nm, 5) == [3, "error", 7, None, None]
    assert nm.first == (3, 1, None)


def test_first_emission_is_kept_with_its_step_and_cost():
    nm = delayed_name([(2, 5), (0, 7)], tail=None)
    assert nm.first is None
    assert _reader_trace(nm, 4) == [None, None, 5, 7]
    assert nm.first == (5, 3, 3)
    bare = Name(lambda: iter([None, 6]))
    _reader_trace(bare, 2)
    assert bare.first == (6, 2, None)  # no cost function, no cost


def test_first_emission_stays_empty_behind_an_error():
    nm = Name(lambda: iter([None, -1, 4]), cost=lambda i: 3)
    assert _reader_trace(nm, 3) == [None, "error", 4]
    assert nm.first is None
    assert nm.leaves is None


def test_delayed_name_rejects_negative_delays():
    # a negative delay adds no silent steps, so cost(0) would be -1
    for entries in ([(-2, 5)], [(0, 1), (-1, 2)]):
        with pytest.raises(EncodingError):
            delayed_name(entries)
    assert delayed_name([(0, 5)]).cost(0) == 1
