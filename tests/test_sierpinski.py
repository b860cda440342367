import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from synthtop.kernel import (EncodingError, Name, NameReader, delayed_name,
                             dovetail_bound, literal_name, map_name)
from synthtop.hyper import OpenSet, preimage
from synthtop.reals import _OUTSIDE
from synthtop.oracle import (finite_point, finite_repr, leaf_compact,
                             leaf_open, leaf_overt, make_space)
from synthtop.sierpinski import (NEGATIVE_FUEL, NEVER, TALLY, SValue, _Read,
                                 accept_at, and_finite, bot, first_accepting,
                                 or_countable, read_names, read_table, run,
                                 top)
from synthtop.spaces import NAT, Point, apply_fun, fun_point, function
from tally_probes import charged, observe


def test_top_accepts_at_zero():
    assert top().status(0) == 0


def test_bot_pends_at_large_fuel():
    assert bot().status(10 ** 6) is None


def test_accept_at_threshold():
    v = accept_at(17)
    assert v.status(16) is None
    assert v.status(17) == 17


def test_status_cache_matches_fresh_runs():
    v = accept_at(9)
    assert v.status(3) is None
    assert v.status(100) == 9
    assert v.status(5) is None  # a query below the accept step stays pending
    assert accept_at(9).status(100) == 9


def test_and_trivial_cases():
    assert and_finite([top(), top()]).status(0) == 0
    assert and_finite([top(), bot()]).status(NEGATIVE_FUEL) is None


def test_and_accepts_at_sum_of_counts():
    # frozen scheduler constant: forwarding adds no overhead steps
    v = and_finite([accept_at(3), accept_at(5)])
    assert v.status(7) is None
    assert v.status(8) == 8
    assert v.bound == 8


def test_or_trivial_cases():
    fam = [bot(), bot(), top(), bot()]
    assert or_countable(fam).status(100) is not None
    assert or_countable(lambda i: bot()).status(NEGATIVE_FUEL) is None
    assert or_countable([]).status(NEGATIVE_FUEL) is None


def test_or_planted_at_512_within_dovetail_bound():
    v = or_countable(lambda i: accept_at(3) if i == 512 else bot())
    bound = dovetail_bound(512, 3)
    assert v.status(bound) == bound


def test_or_monotone_under_earlier_acceptance():
    fam = [accept_at(9), bot(), accept_at(30)]
    faster = [accept_at(9), bot(), accept_at(4)]
    slow = or_countable(fam)
    fast = or_countable(faster)
    for fuel in range(0, 60):
        if slow.status(fuel) is not None:
            assert fast.status(fuel) is not None


def test_and_monotone_under_earlier_acceptance():
    slow = and_finite([accept_at(4), accept_at(7)])
    fast = and_finite([accept_at(4), accept_at(2)])
    for fuel in range(0, 20):
        if slow.status(fuel) is not None:
            assert fast.status(fuel) is not None


def test_acceptance_ever_is_permutation_invariant():
    rng = random.Random(5)
    for _ in range(20):
        children = [rng.choice([bot(), accept_at(rng.randrange(1, 9)), top()])
                    for _ in range(4)]
        outcomes = set()
        for perm in itertools.permutations(range(4)):
            fam = [children[i] for i in perm]
            both = (and_finite(fam).status(200) is not None,
                    or_countable(fam).status(200) is not None)
            outcomes.add(both)
        assert len(outcomes) == 1


@st.composite
def trees(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(st.sampled_from(["top", "bot"])) \
            if draw(st.booleans()) else ("at", draw(st.integers(0, 12)))
    op = draw(st.sampled_from(["and", "or", "delay"]))
    if op == "delay":
        return ("delay", draw(st.integers(0, 5)), draw(trees(depth + 1)))
    kids = draw(st.lists(trees(depth + 1), min_size=1, max_size=3))
    return (op, kids)


def build(tree):
    if tree == "top":
        return top()
    if tree == "bot":
        return bot()
    tag = tree[0]
    if tag == "at":
        return accept_at(tree[1])
    if tag == "delay":  # read a name whose value comes after d silent steps
        v = build(tree[2])
        return read_names((delayed_name([(tree[1], 0)]),), lambda _: v, v.bound)
    kids = [build(t) for t in tree[1]]
    return and_finite(kids) if tag == "and" else or_countable(kids)


@given(trees(), st.integers(0, 64))
@settings(max_examples=80, deadline=None)
def test_fuel_monotone_and_deterministic(tree, fuel):
    a = build(tree)
    b = build(tree)
    sa = a.status(fuel)
    assert sa == b.status(fuel)
    if sa is not None:
        assert a.status(fuel + 17) == sa
    # certified horizons are honest
    if a.bound is not None and a.status(a.bound) is None:
        assert build(tree).status(a.bound + 200) is None


@given(trees())
@settings(max_examples=60, deadline=None)
def test_bound_certifies_acceptance_horizon(tree):
    v = build(tree)
    assert v.bound is not None
    st_at_bound = v.status(v.bound)
    if st_at_bound is None:
        # beyond the horizon nothing changes
        assert v.status(v.bound + 123) is None


def test_accept_at_negative_is_born_accepted_with_bound_zero():
    v = accept_at(-2)
    assert v.bound == 0
    assert v.status(v.bound) == 0


def test_negative_fuel_is_pending_on_every_call():
    v = top()
    assert [v.status(-1), v.status(-1), v.status(0), v.status(-1)] \
        == [None, None, 0, None]
    w = accept_at(2)
    assert [w.status(-1), w.status(5), w.status(-1)] == [None, 2, None]


def test_bind_name_value_costs_one_step_per_name_step():
    nm = literal_name([4], tail=4)
    v = read_names((nm,), lambda k: accept_at(k), inner_bound=4)
    assert v.status(5) == 5  # 1 read step + 4 inner steps
    assert v.bound == 5
    born = read_names((literal_name([0], tail=0),), lambda k: top(),
                      inner_bound=0)
    assert born.status(1) == 1  # arrival observes the born-accepted inner


def test_bind_name_value_steps_its_continuation_after_the_arrival():
    # the first value of each fresh name arrives at step 3
    def cold():
        return delayed_name([(2, 1)], tail=1)

    unknown = read_names((cold(),), lambda v: SValue(accept_at(3).make, 3))
    assert unknown.status(5) is None and unknown.status(6) == 6

    t0 = TALLY.n
    at, dead = run(read_names((cold(),), lambda v: bot()), 100)
    assert at is None
    assert TALLY.n - t0 == 100
    assert dead.never

    def boom(v):
        raise LookupError(f"no continuation for {v}")

    raising = read_names((cold(),), boom)
    assert raising.status(2) is None
    for fuel in (3, 10):
        with pytest.raises(LookupError):
            raising.status(fuel)


class _CountedRead(_Read):
    """A `_Read` that counts the ``step`` calls made on it."""

    __slots__ = ("calls",)

    def __init__(self, names, then):
        super().__init__(names, then)
        self.calls = 0

    def step(self):
        self.calls += 1
        return super().step()


class _Opaque:
    """A stepper seen without its ``never``: `run` can only step it on to
    the fuel, the reference for a read that goes never."""

    __slots__ = ("inner",)
    never = False

    def __init__(self, inner):
        self.inner = inner

    @property
    def done(self):
        return self.inner.done

    def step(self):
        return self.inner.step()


def _boom(v):
    raise LookupError(f"no continuation for {v}")


@pytest.mark.parametrize("delay", [0, 1, 3])
@pytest.mark.parametrize("then, goes_never", [
    (lambda v: bot(), True), (lambda v: top(), False),
    (lambda v: SValue(accept_at(2).make, 2), False), (_boom, False)],
    ids=["bot", "top", "stepped", "raises"])
def test_run_stops_stepping_a_read_gone_never(delay, then, goes_never):
    # the first value arrives at step delay + 1, where the read goes never
    # if its continuation does
    def value(wrap):
        return SValue(lambda: wrap(_CountedRead(
            (delayed_name([(delay, 1)]),), then)))

    fuels = list(range(-1, 12)) + [100, 1000]
    assert observe(value(lambda r: r), fuels) \
        == observe(value(_Opaque), fuels)
    if goes_never:
        t0 = TALLY.n
        at, r = run(value(lambda r: r), 1000)
        assert at is None and r.never
        assert r.calls == delay + 1
        assert TALLY.n - t0 == 1000


def test_no_negation_surface():
    # semidecidability is one-sided: the module exposes no complement-like
    # combinator
    import synthtop.sierpinski as mod
    offenders = [n for n in dir(mod)
                 if callable(getattr(mod, n))
                 and (n == "not_" or n.startswith("neg") or n == "complement")]
    assert not offenders


def test_first_accepting_reports_winner():
    fam = [bot(), accept_at(2), top()]
    got = first_accepting(lambda i: fam[i], 3, 100)
    assert got is not None
    idx, used = got
    assert idx in (1, 2)
    assert first_accepting(lambda i: bot(), 4, 500) is None


def test_first_accepting_charges_the_tally_when_a_task_raises():
    # the same raising race, run by first_accepting and by a status call,
    # charges the same steps: up to and including the raising step
    def decide(v):
        raise LookupError(f"no row for {v}")

    def family(i):
        return read_table((delayed_name([(i + 1, i)], tail=i),), decide)

    def charged(run):
        t0 = TALLY.n
        try:
            run()
        except LookupError:
            pass
        return TALLY.n - t0

    via_race = charged(lambda: first_accepting(family, 3, 100))
    via_status = charged(lambda: or_countable(
        [family(i) for i in range(3)]).status(100))
    assert via_race == via_status > 0


# --- read_table against nested one-name reads -----------------------------


def _read_bound(names, inner_bound):
    """The bound `read_names` certifies: ``inner_bound`` plus each name's
    ``cost(0)``, None if any is unknown."""
    bound = inner_bound
    for nm in names:
        c0 = nm.cost(0) if nm.cost is not None else None
        bound = None if bound is None or c0 is None else bound + c0
    return bound


def _stepped_read(names, then, inner_bound):
    """`read_names` that never folds: its `_Read` stepper, run from step
    one."""
    return SValue(lambda: _Read(names, then), _read_bound(names, inner_bound))


def _stepped_table(names, decide):
    """`read_table` that never folds (`_stepped_read`)."""
    return _stepped_read(names, lambda *vs: top() if decide(*vs) else bot(),
                         0)


def _nested_reads(names, decide):
    """The reference: a stepped one-name read per name, continuing with
    top()/bot() by the table after the last read."""

    def go(i, vals):
        rest = names[i + 1:]
        if not rest:
            return _stepped_table((names[i],), lambda v: decide(*vals, v))
        return _stepped_read((names[i],), lambda v: go(i + 1, vals + (v,)),
                             _read_bound(rest, 0))

    return go(0, ())


def _make_name(spec):
    kind, d, v = spec
    if kind == "delayed":
        return delayed_name([(d, v)], tail=v)
    if kind == "silent":
        return delayed_name([], tail=None)
    if kind == "error":  # a negative emission before the first value
        return Name(lambda: iter([None] * d + [-1, v]))
    return Name(lambda: iter([None] * d + [v, -1]))  # error after it


_NAME_SPECS = st.tuples(st.sampled_from(["delayed", "silent", "error",
                                         "late-error"]),
                        st.integers(0, 3), st.integers(0, 3))


def _warm(nm, steps):
    r = NameReader(nm)
    for _ in range(steps):
        try:
            r.step()
        except EncodingError:
            pass


@given(st.lists(_NAME_SPECS, min_size=1, max_size=3),
       st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3),
                               st.integers(0, 3))),
       st.booleans(), st.integers(0, 6),
       st.sampled_from(["alone", "or", "and"]),
       st.lists(st.integers(0, 12), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_read_table_matches_nested_reads(specs, table, raises, warm, ctx,
                                         cuts):
    def decide(*vals):
        if raises and vals[0] == 2:
            raise LookupError("no row for 2")
        return (vals + (0, 0))[:3] in table

    def build(reads):
        names = [_make_name(sp) for sp in specs]
        for nm in names:
            _warm(nm, warm)
        leaf = reads(names, decide)
        if ctx == "or":
            return leaf, or_countable([bot(), leaf, accept_at(25)])
        if ctx == "and":
            return leaf, and_finite([accept_at(2), leaf])
        return leaf, leaf

    new_leaf, new = build(read_table)
    ref_leaf, ref = build(_nested_reads)
    assert new_leaf.bound == ref_leaf.bound
    assert new.bound == ref.bound
    fuels = list(itertools.accumulate(cuts)) + [60]
    assert observe(new, fuels) == observe(ref, fuels)
    # the step where acceptance or an error first shows, fuel by fuel
    _, new = build(read_table)
    _, ref = build(_nested_reads)
    assert observe(new, range(61)) == observe(ref, range(61))


# --- derived names and warm multi-name reads against stepped reads -------


def _stepped_map(src, table):
    """The reference image of ``src``: a plain name re-emitting each value
    through ``table``, warm only once its own run gets there."""

    def gen():
        r = NameReader(src)
        while True:
            v = r.step()
            yield None if v is None else table[v]

    return Name(gen, cost=src.cost)


def _drive(nm, steps):
    """Run ``nm``'s canonical run ``steps`` steps, through any error."""
    for _ in range(steps):
        try:
            nm.advance()
        except Exception:
            pass


@given(st.dictionaries(st.integers(0, 3), st.integers(-1, 3)),
       _NAME_SPECS, st.integers(0, 6),
       st.booleans(),
       st.one_of(st.none(), st.tuples(_NAME_SPECS, st.integers(0, 6))),
       st.sampled_from(["alone", "or", "and"]),
       st.lists(st.integers(0, 12), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_mapped_names_fold_as_stepped_reads(table, spec, warm, leaves, other,
                                            ctx, cuts):
    # a missing table entry raises KeyError and a negative one is not a
    # natural: either raises at the step where the source emits its key;
    # ``leaves``: the source's known leaf pair is built before the mapping

    def decide(*vals):
        return sum(vals) % 2 == 0

    def build(kind):
        src = _make_name(spec)
        _drive(src, warm)
        if leaves:
            read_table((src,), lambda v: True)
        if kind == "folded":
            img = map_name(src, table)
        else:
            img = _stepped_map(src, table)
            if kind == "warmed":  # warm the reference by its own run
                _drive(img, warm)
        names = [img]
        if other is not None:
            nm = _make_name(other[0])
            _drive(nm, other[1])
            names.append(nm)
        if kind == "cold":
            leaf = _stepped_table(names, decide)
        else:
            leaf = read_table(names, decide)
        if ctx == "or":
            return img, leaf, or_countable([bot(), leaf, accept_at(25)])
        if ctx == "and":
            return img, leaf, and_finite([accept_at(2), leaf])
        return img, leaf, leaf

    img, leaf, new = build("folded")
    ref_img, ref_leaf, _ = build("warmed")
    assert img.first == ref_img.first
    assert (leaf.known, leaf.bound) == (ref_leaf.known, ref_leaf.bound)
    _, cold_leaf, ref = build("cold")
    assert cold_leaf.bound == leaf.bound and new.bound == ref.bound
    fuels = list(itertools.accumulate(cuts)) + [60]
    assert observe(new, fuels) == observe(ref, fuels)
    # the step where acceptance or an error first shows, fuel by fuel
    _, _, new = build("folded")
    _, _, ref = build("cold")
    assert observe(new, range(61)) == observe(ref, range(61))


# A function point applies its map once per argument, so later queries
# read an image that earlier ones have driven; a twin whose payload builds
# a fresh image per application is the reference.


@given(st.lists(st.tuples(_NAME_SPECS, st.integers(0, 6)), min_size=1,
                max_size=3),
       st.dictionaries(st.integers(0, 3), st.integers(-1, 3)),
       st.lists(st.tuples(st.sampled_from(["leaf", "preimage", "twice",
                                           "exists", "forall"]),
                          st.integers(0, 2)), min_size=1, max_size=6),
       st.lists(st.integers(0, 12), min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_memoized_images_observe_as_fresh_ones(args, table, queries, cuts):
    # sources: warm ones (driven some steps), cold ones due at their first
    # step (a delay of 0), delayed ones, and ones with no ``cost`` that
    # raise before or after their first value; a missing or negative
    # table entry raises where the source emits its key
    fuels = list(itertools.accumulate(cuts)) + [40]

    def side(memo):
        calls = []

        def image(p):
            calls.append(p)
            return Point(NAT, map_name(p.payload, table))

        f = (fun_point(NAT, NAT, image) if memo
             else Point(function(NAT, NAT), image))
        pts = []
        for spec, warm in args:
            nm = _make_name(spec)
            _drive(nm, warm)
            pts.append(Point(NAT, nm))
        even = OpenSet(NAT, lambda p: read_table((p.payload,),
                                                 lambda v: v % 2 == 0))

        def query(kind, i):
            x = pts[i % len(pts)]
            if kind == "leaf":
                return read_table((apply_fun(f, x).payload,), lambda v: v < 2)
            if kind == "preimage":
                return preimage(f, even).chi(x)
            if kind == "twice":
                return preimage(f, even).chi(apply_fun(f, x))
            kids = [preimage(f, even).chi(p) for p in pts]
            return or_countable(kids) if kind == "exists" else and_finite(kids)

        trace = []
        for kind, i in queries:
            try:
                trace.append(observe(query(kind, i), fuels))
            except Exception as exc:
                trace.append(("built", type(exc).__name__, str(exc)))
        return trace, calls

    trace, calls = side(True)
    ref, _ = side(False)
    assert trace == ref
    assert len({id(p) for p in calls}) == len(calls)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                min_size=2, max_size=3),
       st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3),
                               st.integers(0, 3))),
       st.booleans())
@settings(max_examples=200, deadline=None)
def test_warm_multi_name_read_steps_as_its_reader(specs, table, raises):
    def decide(*vals):
        if raises and vals[-1] == 2:
            raise LookupError("no row for 2")
        return (vals + (0,))[:3] in table

    def names():
        out = [delayed_name([(d, v)], tail=v) for d, v in specs]
        for nm in out:
            _warm(nm, 5)
        return out

    folded = read_table(names(), decide)
    nms = names()
    stepped = SValue(lambda: _Read(nms, lambda *vs: top() if decide(*vs)
                                   else bot()), folded.bound)
    assert folded.bound == sum(d + 1 for d, _ in specs)
    if not raises:
        assert folded.known is not None
    assert observe(folded, range(20)) == observe(stepped, range(20))


@given(_NAME_SPECS, st.integers(0, 6), st.integers(0, 15), st.booleans())
@settings(max_examples=200, deadline=None)
def test_leaf_open_reads_as_its_table(spec, warm, mask, leaves):
    # ``leaves``: the name's leaf pair is built before the open is read
    sp = finite_repr(make_space(4, [0, 0b1111]))

    def build():
        nm = _make_name(spec)
        _warm(nm, warm)
        if leaves:
            read_table((nm,), lambda v: True)
        return nm

    new = leaf_open(sp, mask).chi(Point(sp, build()))
    ref = read_table((build(),), lambda v: mask >> v & 1)
    assert (new.known, new.bound) == (ref.known, ref.bound)
    stepped = _stepped_table((build(),), lambda v: mask >> v & 1)
    assert observe(new, range(31)) == observe(stepped, range(31))


# --- cold first reads: a name whose first value is due at step 1 ---------


def _cold_name(kind, v):
    """A cold name with ``cost(0) == 1`` whose first step emits ``v``,
    raises (a negative emission), or is silent (a cost that is wrong about
    the first value, which must not fold)."""
    head = {"value": [v], "raises": [-1], "silent": [None]}[kind]
    return Name(lambda: iter(head + [v] * 80), cost=lambda i: i + 1)


def _cold_read(via, nm, decide):
    if via == "read_table":
        return read_table((nm,), decide)
    if via == "leaf_open":
        sp = finite_repr(make_space(4, [0, 0b1111]))
        return leaf_open(sp, sum(1 << x for x in range(4) if decide(x))).chi(
            Point(sp, nm))
    return read_names((nm,), lambda x: accept_at(x) if decide(x) else bot(),
                      inner_bound=3)


def _stepped_cold_read(via, nm, decide):
    if via == "read_names":
        return _stepped_read((nm,), lambda x: accept_at(x) if decide(x)
                             else bot(), 3)
    return _stepped_table((nm,), decide)


@given(st.sampled_from(["value", "raises", "silent"]), st.integers(0, 3),
       st.integers(0, 15),
       st.sampled_from(["read_table", "read_names", "leaf_open"]),
       st.sampled_from(["alone", "or", "and"]))
@settings(max_examples=300, deadline=None)
def test_cold_first_read_folds_as_its_stepped_read(kind, v, mask, via, ctx):
    def decide(x):
        return bool(mask >> x & 1)

    def wrap(leaf):
        if ctx == "or":
            return or_countable([bot(), leaf, accept_at(25)])
        if ctx == "and":
            return and_finite([accept_at(2), leaf])
        return leaf

    nm = _cold_name(kind, v)
    leaf = _cold_read(via, nm, decide)
    assert nm.steps == 1  # the one step every reader takes first
    stepped = _stepped_cold_read(via, _cold_name(kind, v), decide)
    assert leaf.bound == stepped.bound
    if kind == "value":
        warm = _cold_name(kind, v)
        _warm(warm, 1)
        ref = _cold_read(via, warm, decide)
        assert leaf.known is not None
        assert (leaf.known, leaf.bound) == (ref.known, ref.bound)
    else:
        assert leaf.known is None
    fuels = range(61)
    assert observe(wrap(leaf), fuels) == observe(wrap(stepped), fuels)
    if kind == "raises":
        # raised again at every fuel from its step on, and never accepted
        obs = observe(_cold_read(via, _cold_name(kind, v), decide), fuels)
        assert obs[0] == (("ok", None), 0)
        assert all(got[0] == "raised" for got, _ in obs[1:])


@pytest.mark.parametrize("via", ["read_table", "read_names", "leaf_open"])
def test_names_not_due_at_their_first_step_stay_cold(via):
    # cost(0) >= 2, or no cost at all: the first value may be far off, so
    # building the read takes no step of the name
    for nm in (delayed_name([(1, 2)], tail=2), delayed_name([(3, 0)]),
               Name(lambda: iter([2]))):
        leaf = _cold_read(via, nm, lambda x: x == 2)
        assert nm.steps == 0 and leaf.known is None
    # a name due at step 1 behind a cold one is not read early either
    late = delayed_name([(2, 1)], tail=1)
    due = _cold_name("value", 1)
    assert read_table((late, due), lambda a, b: a == b).known is None
    assert late.steps == due.steps == 0


def test_read_table_answers_cached_names_without_a_reader():
    x, y = literal_name([2], tail=2), delayed_name([(2, 1)], tail=1)
    _warm(x, 1)
    _warm(y, 3)
    v = read_table((x, y), lambda a, b: (a, b) == (2, 1))
    assert v.bound == 4
    assert type(v.make()).__name__ == "_AcceptAt"
    assert v.status(3) is None and v.status(4) == 4
    dead = read_table((x, y), lambda a, b: False)
    assert dead.make().never
    assert dead.status(NEGATIVE_FUEL) is None


# --- known outcomes: folded values against stepped ones -------------------


def test_first_accepting_with_negative_fuel_charges_nothing():
    t0 = TALLY.n
    assert first_accepting(lambda i: bot(), 2, -5) is None
    assert or_countable([bot(), bot()]).status(-5) is None
    assert TALLY.n == t0


def test_raising_make_is_a_sticky_error_at_step_zero():
    def make():
        raise LookupError("no stepper")

    v = SValue(make)
    t0 = TALLY.n
    assert v.status(-1) is None
    for fuel in (0, 5):
        with pytest.raises(LookupError, match="no stepper"):
            v.status(fuel)
    assert TALLY.n == t0
    # inside a race the same raise lands at the task's first slot, step 1
    race = or_countable([SValue(make)])
    assert race.status(0) is None
    for fuel in (1, 4):
        with pytest.raises(LookupError):
            race.status(fuel)


def test_known_value_answers_without_a_stepper(monkeypatch):
    v = and_finite([accept_at(3), accept_at(2)])
    assert v.known == 5 and v.bound == 5

    def boom(self):
        raise AssertionError("a known value built a stepper")

    monkeypatch.setattr(SValue, "make", boom)
    answers = [charged(v, fuel) for fuel in (2, 1, 4, 9, 3, -1)]
    assert answers == [(None, 2), (None, 1), (None, 4), (5, 5), (None, 3),
                       (None, 0)]
    assert bot().known == NEVER and or_countable([]).known == NEVER


def test_deep_known_conjunction_answers_without_recursion():
    v = top()
    for _ in range(1500):
        v = and_finite([v])
    assert v.status(10) == 0


def _stepped(n):
    """A value accepting at ``n`` that is not known, with bound ``n``."""
    return SValue(accept_at(n).make, n)


@pytest.mark.parametrize("kids, bound, known", [
    ([accept_at(2), accept_at(3)], 5, 5),
    ([accept_at(2), _stepped(5)], 7, None),
    ([_stepped(5), accept_at(2)], 7, None),
    ([accept_at(1), _stepped(4), accept_at(2), _stepped(3)], 10, None),
    ([_OUTSIDE, accept_at(3)], None, NEVER),
    ([accept_at(3), _OUTSIDE], None, NEVER),
    ([accept_at(3), _OUTSIDE, _stepped(5)], None, None),
    ([accept_at(3), _stepped(5), _OUTSIDE], None, None),
    ([SValue(accept_at(1).make), accept_at(3)], None, None),
    ([accept_at(3), bot(), _stepped(2)], 5, None),
])
def test_and_finite_bound_is_the_sum_over_every_child(kids, bound, known):
    # the known fold stops at the first unknown child; the bound is still
    # the sum over all of them, each counted once (None if any has none)
    for family in (kids, iter(kids)):
        v = and_finite(family)
        assert (v.bound, v.known) == (bound, known)
    if known is None and bound is not None:
        v = and_finite(kids)
        at = None if any(k.known == NEVER for k in kids) else bound
        assert v.status(bound) == at and v.status(bound - 1) is None


# Delays live in names.  One read of two delayed names steps as two nested
# reads of one name each: either way the second reader starts on the step
# after the first arrival.  A negative delay is not encodable in a name.


@pytest.mark.parametrize("outer", [-2, 0, 1, 3])
@pytest.mark.parametrize("inner", [-1, 0, 2])
@pytest.mark.parametrize("leaf", [top(), accept_at(2), bot()])
def test_flattened_delays_step_as_nested_ones(outer, inner, leaf):
    if min(outer, inner) < 0:
        with pytest.raises(EncodingError):
            delayed_name([(outer, 0), (inner, 0)])
        return
    unknown = SValue(leaf.make, leaf.bound)
    flat = read_names((delayed_name([(outer, 0)]), delayed_name([(inner, 0)])),
                      lambda *_: unknown, leaf.bound)
    second = read_names((delayed_name([(inner, 0)]),), lambda _: unknown,
                        leaf.bound)
    nested = read_names((delayed_name([(outer, 0)]),), lambda _: second,
                        second.bound)
    assert flat.bound == nested.bound == leaf.bound + outer + inner + 2
    for fuel in range(-1, 12):
        assert charged(flat, fuel) == charged(nested, fuel)
    assert flat.status(20) == (None if leaf.known == NEVER
                               else outer + inner + 2 + leaf.known)


# Deep chains of unknown conjunctions still recurse when stepped: building
# the nested steppers and stepping them both go one Python frame per level.


@pytest.mark.xfail(raises=RecursionError, strict=True,
                   reason="nested steppers recurse one frame per level")
def test_deep_unknown_conjunction_answers_without_recursion():
    leaf = top()
    v = SValue(leaf.make, leaf.bound)
    for _ in range(1500):
        v = and_finite([v])
    assert v.status(10) == 0


# --- descriptions and queries ---------------------------------------------


def test_one_value_shared_by_two_queries_charges_each_a_fresh_run():
    v = or_countable(lambda i: accept_at(3) if i == 2 else bot())
    at = dovetail_bound(2, 3)
    assert [charged(v, at - 1), charged(v, at - 1)] == [(None, at - 1)] * 2
    assert [charged(v, at), charged(v, at + 5)] == [(at, at)] * 2
    (first, engine), (second, other) = run(v, at), run(v, at + 5)
    assert first == second == at and engine is not other
    # a known value shared the same way
    k = accept_at(4)
    assert [charged(k, 2), charged(k, 3), charged(k, 9),
            charged(k, 9)] == [(None, 2), (None, 3), (4, 4), (4, 4)]


def test_status_on_a_value_is_one_fresh_run_per_call():
    unknown = SValue(accept_at(6).make, 6)
    known = accept_at(6)
    for v in (unknown, known):
        assert [charged(v, 10), charged(v, 10)] == [(6, 6), (6, 6)]
        assert [charged(v, 4), charged(v, 4)] == [(None, 4), (None, 4)]
        assert charged(v, -3) == (None, 0)
    assert [charged(bot(), 5), charged(bot(), 5)] == [(None, 5), (None, 5)]


def test_constants_are_shared():
    assert top() is top()
    assert bot() is bot()


# --- warm finite leaves: one shared known pair per name -------------------


def _warm_leaf_point():
    """A fresh point of a three-point chain space whose name emits its
    first value, 1, at step 3, warmed past it."""
    sp = finite_repr(make_space(3, [0, 0b010, 0b110, 0b111]))
    p = finite_point(sp, 1, delay=2)
    cold = leaf_open(sp, 0b010).chi(p)
    assert cold.known is None and p.payload.leaves is None
    _warm(p.payload, 3)
    return sp, p, cold


def test_warm_leaves_agreeing_on_the_point_share_one_value():
    sp, p, cold = _warm_leaf_point()
    yes = leaf_open(sp, 0b010).chi(p)
    assert leaf_open(sp, 0b110).chi(p) is yes
    assert (yes.known, yes.bound) == (3, 3)
    no = leaf_open(sp, 0b100).chi(p)
    assert leaf_open(sp, 0b001).chi(p) is no
    assert (no.known, no.bound) == (NEVER, 3)
    assert p.payload.leaves == (yes, no)
    # the same answers as the stepped read built while the name was cold
    for fuel in (2, 3, 50):
        assert yes.status(fuel) == cold.status(fuel)
    assert no.status(NEGATIVE_FUEL) is None


def test_two_queries_on_a_shared_leaf_are_each_charged_a_fresh_run():
    sp, p, _ = _warm_leaf_point()
    leaf = leaf_open(sp, 0b010).chi(p)
    assert [charged(leaf, 2), charged(leaf, 1), charged(leaf, 5),
            charged(leaf, 3)] == [(None, 2), (None, 1), (3, 3), (3, 3)]
    never = leaf_open(sp, 0b100).chi(p)
    assert [charged(never, 7), charged(never, 7)] == [(None, 7)] * 2


def test_warm_leaf_with_a_raising_table_raises_at_the_arrival():
    nm = delayed_name([(2, 1)], tail=1)
    _warm(nm, 3)

    def boom(v):
        raise LookupError(f"no table entry for {v}")

    v = read_table((nm,), boom)
    assert v.known is None and v.bound == 3
    assert v.status(2) is None
    for fuel in (3, 10):
        with pytest.raises(LookupError):
            v.status(fuel)
    assert nm.leaves is None  # nothing cached for the raising table
    assert read_table((nm,), lambda v: v == 1).known == 3
    assert nm.leaves is not None


class _Raises:
    """A stepper raising at its n-th step."""

    done = never = False

    def __init__(self, n):
        self.left = n

    def step(self):
        self.left -= 1
        if self.left <= 0:
            raise LookupError("stepper raised")
        return False


def _raising(n):
    def make():
        if n == 0:
            raise LookupError("make raised")
        return _Raises(n)
    return SValue(make)


_TABLE_NAMES = st.lists(st.tuples(_NAME_SPECS, st.integers(0, 6)),
                        min_size=1, max_size=2)


@st.composite
def fold_trees(draw, depth=0):
    """Trees over every combinator; names carry the steps to warm them."""
    if depth >= 3 or draw(st.booleans()):
        return draw(st.one_of(
            st.just(("top",)), st.just(("bot",)),
            st.tuples(st.just("at"), st.integers(-2, 12)),
            st.tuples(st.just("raise"), st.integers(0, 8)),
            st.tuples(st.just("table"), _TABLE_NAMES, st.integers(0, 4),
                      st.booleans())))
    op = draw(st.sampled_from(["unknown", "and", "or", "bind"]))
    if op == "unknown":
        return ("unknown", draw(fold_trees(depth + 1)))
    kids = draw(st.lists(fold_trees(depth + 1), min_size=0 if op != "bind"
                         else 1, max_size=3))
    if op == "bind":
        return ("bind", draw(st.tuples(_NAME_SPECS, st.integers(0, 6))), kids,
                draw(st.booleans()))
    return (op, kids)


def _fold_build(tree, fold):
    """The value of ``tree``.  Stepped (``fold`` false): every leaf is
    rewrapped without its known outcome and names are read cold by their
    `_Read` steppers, so every combinator builds real steppers.  Folded:
    names are warmed first."""

    def name(spec):
        nm = _make_name(spec[0])
        if fold:
            _warm(nm, spec[1])
        return nm

    tag = tree[0]
    if tag == "top":
        v = top()
    elif tag == "bot":
        v = bot()
    elif tag == "at":
        v = accept_at(tree[1])
    elif tag == "raise":
        return _raising(tree[1])
    elif tag == "table":
        _, specs, cut, raises = tree

        def decide(*vals):
            if raises and vals[0] == 2:
                raise LookupError("no row for 2")
            return sum(vals) <= cut

        if not fold:  # a cold name due at step 1 would fold (`Name.peek`)
            return _stepped_table([name(sp) for sp in specs], decide)
        v = read_table([name(sp) for sp in specs], decide)
    elif tag == "unknown":
        v = _fold_build(tree[1], fold)
        return SValue(v.make, v.bound)
    elif tag == "and":
        return and_finite([_fold_build(t, fold) for t in tree[1]])
    elif tag == "or":
        return or_countable([_fold_build(t, fold) for t in tree[1]])
    else:
        _, spec, kids, raises = tree

        def k(val):
            if raises and val == 2:
                raise LookupError("no continuation for 2")
            return _fold_build(kids[val % len(kids)], fold)

        bounds = [_fold_build(t, fold).bound for t in kids]
        inner = None if None in bounds else max(bounds)
        if not fold:
            return _stepped_read((name(spec),), k, inner)
        return read_names((name(spec),), k, inner_bound=inner)
    return v if fold else SValue(v.make, v.bound)


@given(st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 8)),
                          st.integers(0, 4)), max_size=5))
@settings(max_examples=200, deadline=None)
def test_or_fold_over_children_known_before_their_bound(kids):
    # child i accepts at k (None: never) under the bound k + extra, so a
    # child's known landing may or may not be its bound's landing
    def child(k, extra):
        return SValue(None, (k or 0) + extra, NEVER if k is None else k)

    folded = or_countable([child(k, e) for k, e in kids])
    stepped = or_countable([SValue(child(k, e).make, child(k, e).bound)
                            for k, e in kids])
    n = len(kids)
    want = min((dovetail_bound(i, k, n) for i, (k, _) in enumerate(kids)
                if k is not None), default=NEVER)
    assert folded.known == want
    assert folded.bound == stepped.bound == max(
        (dovetail_bound(i, (k or 0) + e, n) for i, (k, e) in enumerate(kids)),
        default=0)
    assert observe(folded, range(61)) == observe(stepped, range(61))


@given(fold_trees(), st.lists(st.integers(0, 12), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_folded_values_match_stepped_ones(tree, cuts):
    folded, stepped = _fold_build(tree, True), _fold_build(tree, False)
    assert folded.bound == stepped.bound
    fuels = list(itertools.accumulate(cuts)) + [60]
    assert observe(folded, fuels) == observe(stepped, fuels)
    # the step where acceptance or an error first shows, fuel by fuel
    folded, stepped = _fold_build(tree, True), _fold_build(tree, False)
    assert observe(folded, range(61)) == observe(stepped, range(61))


def _fresh_run_contract(v, fuels):
    """Fresh status calls on ``v`` at ``fuels`` (ascending, from 0): pending
    below the step s where the run accepts or raises, from s on the same
    answer (s itself) or an exception of the same type and message, and
    ``min(s, f)`` steps charged at fuel f."""
    obs = observe(v, fuels)
    s, first = next(((f, got) for f, (got, _) in zip(fuels, obs)
                     if got != ("ok", None)), (None, None))
    assert first is None or first[0] == "raised" or first == ("ok", s)
    for f, (got, charged) in zip(fuels, obs):
        if s is None or f < s:
            assert (got, charged) == (("ok", None), f)
        else:
            assert (got, charged) == (first, s)
    assert observe(v, [-1]) == [(("ok", None), 0)]


@given(fold_trees(), st.booleans(), trees())
@settings(max_examples=200, deadline=None)
def test_status_is_one_fresh_run_at_every_fuel(tree, fold, plain):
    # cold (stepped), warm and delayed names, raising makes, steppers,
    # names and tables; a raise at step s recurs at every fuel >= s
    fuels = list(range(81))
    _fresh_run_contract(_fold_build(tree, fold), fuels)
    _fresh_run_contract(build(plain), fuels)


# --- streamed children: any iterable folds as the list would --------------


@given(st.lists(fold_trees(), max_size=4), st.booleans(),
       st.lists(st.integers(0, 12), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_streamed_children_fold_as_a_list(trees, fold, cuts):
    def kids():
        return [_fold_build(t, fold) for t in trees]

    fuels = list(itertools.accumulate(cuts)) + [60]
    for combine in (and_finite, or_countable):
        listed = combine(kids())
        streamed = combine(iter(kids()))
        assert (streamed.bound, streamed.known) == (listed.bound, listed.known)
        assert observe(streamed, fuels) == observe(listed, fuels)
        assert observe(combine(v for v in kids()), range(61)) == observe(
            combine(kids()), range(61))
    # the race's winner and its step, from the list and from a stream
    def outcome(run):
        try:
            return run()
        except Exception as exc:
            return type(exc)

    for fuel in fuels:
        members = kids()
        won = outcome(lambda: first_accepting(members.__getitem__,
                                              len(members), fuel))
        at = outcome(lambda: or_countable(iter(kids())).status(fuel))
        if won is None or isinstance(won, type):
            assert at == won
        else:
            assert at == won[1] and members[won[0]].status(fuel) is not None


def test_child_raising_mid_stream_raises_when_the_value_is_built():
    def children():
        yield accept_at(1)
        yield bot()
        raise LookupError("no third child")

    for combine in (and_finite, or_countable):
        with pytest.raises(LookupError):
            combine(children())
    sp = finite_repr(make_space(2, [0, 0b10, 0b11]))
    p = finite_point(sp, 1)

    def chi(q):
        if q is p:
            raise LookupError("no answer at 1")
        return top()

    u = OpenSet(sp, chi)
    with pytest.raises(LookupError):
        leaf_compact(sp, 0b11).forall_(u)
    with pytest.raises(LookupError):
        leaf_overt(sp, 0b11).exists_(u)
