import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from synthtop.bases import Presubbase, embed_point, transpose
from synthtop.hyper import OpenSet, point_to_closed, point_to_compact
from synthtop.kernel import delayed_name, literal_name
from synthtop.oracle import (MAX_EXHAUSTIVE, FiniteSubbase, LeafOpen,
                             SchemaError, ShiftedLeaf, bits,
                             closure, continuous_maps, decode_finite,
                             enumerate_preorders, enumerate_spaces,
                             enumeration_crosscheck,
                             figure1_check, finite_point, finite_presubbase,
                             finite_repr, full_mask, generate_topology, is_T0,
                             leaf_compact, leaf_open, leaf_overt,
                             make_space, make_subbase, mask_of,
                             monotone_families,
                             saturate, space_from_json, specialization,
                             subbase_from_json, tau_B, tau_inf, tau_K,
                             topology_from_preorder, up_sets)
from synthtop.sierpinski import (NEVER, TALLY, and_finite, or_countable,
                                 read_table)
from synthtop.spaces import Point, SpaceMismatch

SIERP2 = make_space(2, [0, 0b10, 0b11])


def test_generate_topology_empty_subbase_is_indiscrete():
    t = generate_topology([], 3)
    assert t.opens == (0, 0b111)


def test_generate_topology_singletons_give_discrete():
    t = generate_topology([1 << i for i in range(3)], 3)
    assert len(t.opens) == 8


def test_generate_topology_example_on_three_points():
    t = generate_topology([0b010, 0b110], 3)
    # {}, {1}, {1,2}, X, and nothing else: closure adds no new sets
    assert t.opens == (0, 0b010, 0b110, 0b111)


@given(st.integers(1, 4), st.data())
@settings(max_examples=40, deadline=None)
def test_generate_topology_idempotent_and_monotone(n, data):
    sets = data.draw(st.lists(st.integers(0, full_mask(n)), max_size=4))
    t = generate_topology(sets, n)
    assert generate_topology(t.opens, n) == t
    more = sets + [data.draw(st.integers(0, full_mask(n)))]
    t2 = generate_topology(more, n)
    assert set(t.opens) <= set(t2.opens)


def _pairwise_closure(sets, n):
    """The reference: close the sets, the empty set and the carrier under
    pairwise union and intersection."""
    fam = {0, full_mask(n), *sets}
    todo = list(fam)
    while todo:
        a = todo.pop()
        for b in list(fam):
            for c in (a | b, a & b):
                if c not in fam:
                    fam.add(c)
                    todo.append(c)
    return tuple(sorted(fam))


def test_generate_topology_matches_pairwise_closure_on_every_small_family():
    for n in range(4):
        subsets = range(1 << n)
        for pick in range(1 << len(subsets)):
            sets = [u for u in subsets if pick >> u & 1]
            assert generate_topology(sets, n).opens == \
                _pairwise_closure(sets, n), (n, sets)


def test_generate_topology_matches_pairwise_closure_on_seeded_families():
    import random
    from synthtop.oracle import MAX_SUBBASE_SIZE
    rng = random.Random(5)
    for n in range(4, MAX_SUBBASE_SIZE + 1):
        for _ in range(6):
            sets = [rng.randrange(1 << n) for _ in range(rng.randrange(6))]
            assert generate_topology(sets, n).opens == \
                _pairwise_closure(sets, n), (n, sets)
    # the largest topology a subbase file can generate: the discrete one
    n = MAX_SUBBASE_SIZE
    singletons = [1 << x for x in range(n)]
    assert generate_topology(singletons, n).opens == \
        _pairwise_closure(singletons, n) == tuple(range(1 << n))


def test_enumerate_counts_small():
    assert len(enumerate_spaces(2)) == 4
    assert len(enumerate_spaces(2, t0_only=True)) == 3
    assert len(enumerate_spaces(3)) == 29
    assert len(enumerate_spaces(3, t0_only=True)) == 19


def test_enumerate_rejects_large():
    with pytest.raises(ValueError):
        enumerate_spaces(5)


def test_enumeration_crosscheck_n4():
    rep = enumeration_crosscheck(4)
    assert rep["topologies_closure"] == rep["topologies_preorders"] == 355
    assert rep["t0_closure"] == rep["t0_posets"] == 219
    assert rep["bijection_ok"]


def test_specialization_on_sierpinski_space():
    rows = specialization(SIERP2)
    assert rows[0] == 0b11  # 0 <= 1: every open containing 0 contains 1
    assert rows[1] == 0b10
    assert saturate(SIERP2, 0b01) == 0b11
    assert is_T0(SIERP2)


def test_discrete_space_order_is_equality():
    d = make_space(2, [0, 1, 2, 3])
    assert specialization(d) == (0b01, 0b10)
    for a in range(4):
        assert saturate(d, a) == a


def test_indiscrete_two_points_not_t0():
    assert not is_T0(make_space(2, [0, 0b11]))


def test_up_sets_are_saturated_sets():
    ups = up_sets(SIERP2)
    assert set(ups) == {0, 0b10, 0b11}
    # a finite topology is the up-sets of its specialization order: the
    # up-set enumerator against the closure-family enumeration
    for n in range(MAX_EXHAUSTIVE + 1):
        for f in enumerate_spaces(n):
            assert topology_from_preorder(specialization(f)) == f, f


def _monotone(dom, cod, f):
    """Is f monotone from preorder rows ``dom`` to preorder rows ``cod``?"""
    return all(cod[f[i]] >> f[j] & 1 for i in range(len(dom))
               for j in range(len(dom)) if dom[i] >> j & 1)


def test_continuous_maps_are_the_monotone_maps_in_lexicographic_order():
    spaces = [f for n in range(4) for f in enumerate_spaces(n)]
    for f in spaces:
        rf = specialization(f)
        for g in spaces:
            rg = specialization(g)
            want = [m for m in itertools.product(range(g.n), repeat=f.n)
                    if _monotone(rf, rg, m)]
            assert continuous_maps(f, g) == want, (f, g)


def test_monotone_families_are_the_monotone_maps_into_inclusion():
    for m in range(4):
        for order in enumerate_preorders(m):
            for n in range(4):
                subsets = range(1 << n)
                inclusion = [sum(1 << t for t in subsets if s & ~t == 0)
                             for s in subsets]
                want = [fam for fam in itertools.product(subsets, repeat=m)
                        if _monotone(order, inclusion, fam)]
                assert list(monotone_families(order, n)) == want, (order, n)


def test_make_subbase_rebuilds_every_preorder_from_its_pairs():
    for n in range(4):
        for rows in enumerate_preorders(n):
            pairs = [(i, j) for i in range(n) for j in bits(rows[i]) if j != i]
            assert make_subbase(1, [0] * n, pairs).order == rows, rows


def test_make_subbase_closes_random_pairs_to_reachability():
    rng = random.Random(20)
    for _ in range(300):
        m = rng.randint(1, 6)
        pairs = [(rng.randrange(m), rng.randrange(m))
                 for _ in range(rng.randint(0, 10))]
        want = []
        for i in range(m):
            # brute-force reachability from i along the pairs
            seen, todo = {i}, [i]
            while todo:
                a = todo.pop()
                for x, y in pairs:
                    if x == a and y not in seen:
                        seen.add(y)
                        todo.append(y)
            want.append(mask_of(seen))
        assert make_subbase(1, [0] * m, pairs).order == tuple(want), pairs


def test_non_monotone_family_is_not_well_defined():
    # 0 <= 1 but the member at 0 is not contained in the member at 1, so
    # some transpose fails to be an up-set of the index order
    sub = make_subbase(2, [0b11, 0b01], [(0, 1)])
    assert not sub.well_defined()


def test_tau_k_on_chain_index():
    # two indices in a chain 0 <= 1 force B0 <= B1; up-sets {1} and {0,1}
    # contribute B1 and B0 & B1
    sub = make_subbase(3, [0b001, 0b011], [(0, 1)])
    assert sub.well_defined()
    t = tau_K(sub)
    assert set(t.opens) == {0, 0b001, 0b011, 0b111}
    assert set(tau_B(sub).opens) == set(t.opens)


def _tau_inf_over_each_index(sub):
    """τ∞ generated as the intersections over S + {y}, for every index y
    and every index set S: the one-pass `tau_inf` visits each set once."""
    gens = [full_mask(sub.n)]
    for y in range(sub.m):
        for s in range(1 << sub.m):
            inter = sub.sets[y]
            for z in bits(s):
                inter &= sub.sets[z]
            gens.append(inter)
    return generate_topology(gens, sub.n)


def test_tau_inf_matches_the_intersections_over_each_index():
    from synthtop.laws import _subbase_instances
    subs = list(_subbase_instances(3, t0_only=False))
    assert len(subs) == 4294
    for sub in subs:
        assert tau_inf(sub) is _tau_inf_over_each_index(sub), sub


def test_figure1_chain_holds_on_samples():
    for sets, pairs in ([(0b01, 0b11), ((0, 1),)],
                        [(0b01, 0b10), ()],
                        [(0b11, 0b11), ((0, 1), (1, 0))]):
        sub = make_subbase(2, list(sets), list(pairs))
        rep = figure1_check(sub)
        assert rep["chain_ok"]
        assert rep["final_equals_tau_K"]
        assert rep["t0_iff_injective"]


def test_decode_on_discrete_instance_reaches_singleton():
    sub = make_subbase(2, [0b01, 0b10])
    b = finite_presubbase(sub)
    p = embed_point(b, finite_point(b.carrier, 1))
    assert decode_finite(p, sub, 64) == 0b10


def test_decode_on_indiscrete_instance_never_shrinks():
    sub = make_subbase(2, [0b11])
    b = finite_presubbase(sub)
    p = embed_point(b, finite_point(b.carrier, 0))
    assert decode_finite(p, sub, 10 ** 4) == 0b11


def test_decode_limit_is_specialization_up_set():
    sub = make_subbase(2, [0b10, 0b11], [(0, 1)])
    b = finite_presubbase(sub)
    tk = tau_K(sub)
    rows = specialization(tk)
    for x in range(2):
        p = embed_point(b, finite_point(b.carrier, x))
        assert decode_finite(p, sub, 256) == rows[x]


def test_decode_candidates_antitone_in_fuel():
    sub = make_subbase(2, [0b10, 0b11], [(0, 1)])
    b = finite_presubbase(sub)
    p = embed_point(b, finite_point(b.carrier, 1))
    prev = full_mask(2)
    for fuel in (0, 1, 2, 4, 8, 64):
        cand = decode_finite(p, sub, fuel)
        assert cand & ~prev == 0
        prev = cand


def test_space_json_roundtrip_and_errors():
    doc = SIERP2.to_json()
    assert doc == {"n": 2, "opens": [[], [1], [0, 1]]}
    assert space_from_json(doc) == SIERP2
    with pytest.raises(SchemaError):
        space_from_json({"n": 2, "opens": [[1], [0, 1]]})  # missing []
    with pytest.raises(SchemaError):
        space_from_json({"n": 2, "opens": [[], [2], [0, 1]]})  # out of range
    with pytest.raises(SchemaError):
        space_from_json({"n": 2, "opens": [[], [0], [1]]})  # missing carrier
    # JSON booleans are not integers, though Python's bool is an int
    with pytest.raises(SchemaError, match="'n'"):
        space_from_json({"n": True, "opens": [[], [0]]})
    with pytest.raises(SchemaError, match=r"opens\[1\]"):
        space_from_json({"n": 2, "opens": [[], [True], [0, 1]]})


def test_subbase_json_roundtrip_and_errors():
    sub = make_subbase(2, [0b10, 0b11], [(0, 1)])
    doc = sub.to_json()
    assert subbase_from_json(doc) == sub
    with pytest.raises(SchemaError):
        subbase_from_json({"n": 2, "sets": [[0]], "index_order": [[0, 5]]})
    with pytest.raises(SchemaError):
        subbase_from_json({"n": 2, "sets": [[7]]})
    with pytest.raises(SchemaError, match="index_order"):
        subbase_from_json({"n": 2, "sets": [[0]], "index_order": 5})
    with pytest.raises(SchemaError, match="'n'"):
        subbase_from_json({"n": True, "sets": [[0]]})
    with pytest.raises(SchemaError, match=r"sets\[0\]"):
        subbase_from_json({"n": 2, "sets": [[False]]})
    with pytest.raises(SchemaError, match="index_order"):
        subbase_from_json({"n": 2, "sets": [[0], [1]],
                           "index_order": [[True, 0]]})


def test_unknown_law_id_is_an_error():
    from synthtop.laws import run_law_suite
    with pytest.raises(KeyError):
        run_law_suite("no-such-law")


def test_interior_and_closure():
    assert closure(SIERP2, 0b10) == 0b11
    assert closure(SIERP2, 0b01) == 0b01


# --- finite overt and compact leaves fold from masks ----------------------


def _fold_spaces():
    """Every space with at most 3 points, and a seeded sample of the 355
    four-point spaces."""
    small = [f for n in range(4) for f in enumerate_spaces(n)]
    return small + random.Random(32).sample(enumerate_spaces(4), 16)


def _charges(sv, fuels):
    """A fresh status call per fuel: the answer and its ``TALLY`` charge."""
    out = []
    for fuel in fuels:
        t0 = TALLY.n
        out.append((sv.status(fuel), TALLY.n - t0))
    return out


def _same_value(new, ref):
    """The same known outcome and bound, and the same answers and charges
    one step before the landing, at it and at the bound (below and at the
    bound when the value never accepts)."""
    assert (new.known, new.bound) == (ref.known, ref.bound)
    land = ref.bound if ref.known == NEVER else ref.known
    fuels = (land - 1, land, ref.bound)
    assert _charges(new, fuels) == _charges(ref, fuels)


def test_finite_leaves_fold_as_the_generic_quantifiers():
    # every mask pair (a, u), not only opens: leaf_open takes any mask
    for f in _fold_spaces():
        sp = finite_repr(f)
        for a in range(1 << f.n):
            pts = [finite_point(sp, e) for e in bits(a)]
            overt, compact = leaf_overt(sp, a), leaf_compact(sp, a)
            for u in range(1 << f.n):
                lo = leaf_open(sp, u)
                _same_value(overt.exists_(lo),
                            or_countable([lo.chi(p) for p in pts]))
                _same_value(compact.forall_(lo),
                            and_finite([lo.chi(p) for p in pts]))
    # a mask reaching past the carrier is refused when the leaf is built
    sp = finite_repr(make_space(2, [0, 0b11]))
    for leaf in (leaf_overt, leaf_compact):
        for mask in (0b100, 0b101, -1):
            with pytest.raises(ValueError):
                leaf(sp, mask)


def test_only_a_leaf_open_of_the_same_space_folds():
    f = make_space(3, [0, 0b010, 0b110, 0b111])
    sp = finite_repr(f)
    a, u = 0b110, 0b010
    lo = leaf_open(sp, u)
    asked = []

    def chi(p):
        asked.append(p)
        return lo.chi(p)

    pts = [finite_point(sp, e) for e in bits(a)]
    for value in (leaf_overt(sp, a).exists_, leaf_compact(sp, a).forall_):
        # a leaf open, also given as a point of O(X), folds: chi is not asked
        folded = value(LeafOpen(sp, chi, u))
        assert asked == []
        assert value(LeafOpen(sp, chi, u).as_point()).known == folded.known
        assert asked == []
        # a plain open wrapping the same chi is asked once per member
        _same_value(value(OpenSet(sp, chi)), folded)
        assert asked == pts
        del asked[:]
    # a leaf open of another space is refused, as any other open is
    other = finite_repr(make_space(3, [0, 0b111]))
    with pytest.raises(SpaceMismatch):
        leaf_overt(sp, a).exists_(leaf_open(other, u))


def test_delayed_points_are_read_through_the_leaf_open():
    sp = finite_repr(make_space(3, [0, 0b010, 0b110, 0b111]))
    for e in range(3):
        for u in range(8):
            for ask in (lambda d, lo: point_to_closed(d).exists_(lo),
                        lambda d, lo: point_to_compact(d).forall_(lo)):
                sv = ask(finite_point(sp, e, delay=2), leaf_open(sp, u))
                ref = read_table((finite_point(sp, e, delay=2).payload,),
                                 lambda v: u >> v & 1)
                assert sv.known is None and sv.bound == ref.bound == 3
                assert _charges(sv, range(6)) == _charges(ref, range(6))


# --- tau_K membership of a finite presubbase folds from masks -------------


def _subbases(ny, nx):
    """Every well-defined subbase over every index space with ``ny``
    points and a carrier with ``nx``."""
    for ysp in enumerate_spaces(ny):
        order = specialization(ysp)
        for fam in monotone_families(order, nx):
            yield FiniteSubbase(nx, fam, order)


def _presubbase_fold_cases():
    """Every subbase with at most 2 index and 2 carrier points, and a
    seeded sample of those with 3 of each."""
    small = [s for ny in range(3) for nx in range(3) for s in _subbases(ny, nx)]
    return small + random.Random(33).sample(list(_subbases(3, 3)), 24)


def _carrier_points(csp, x):
    """Carrier element x: its undelayed point, then per delay 0-3 a cold
    name (first value not yet read) and one run to its first value."""
    out = [(finite_point(csp, x), 1)]
    for d in range(4):
        out.append((Point(csp, delayed_name([(d, x)], tail=x)), None))
        warm = delayed_name([(d, x)], tail=x)
        warm.run_to(d + 1)
        out.append((Point(csp, warm), d + 1))
    return out


def _same_run(new, ref):
    """The same known outcome and bound, and the same answer and charge at
    every fuel up to one past the bound."""
    assert (new.known, new.bound) == (ref.known, ref.bound)
    fuels = range(-1, ref.bound + 2)
    assert _charges(new, fuels) == _charges(ref, fuels)


def test_presubbase_transposes_fold_as_the_generic_quantifiers():
    # today's open is `Presubbase.transpose`: each member y asks family(y)
    for sub in _presubbase_fold_cases():
        b = finite_presubbase(sub)
        isp, csp = b.index, b.carrier
        for x in range(sub.n):
            for xp, shift in _carrier_points(csp, x):
                t = b.transpose(xp)
                g = Presubbase.transpose(b, xp)
                if shift is None:
                    # a cold point's transpose is the generic open
                    assert type(t) is OpenSet
                else:
                    assert type(t) is ShiftedLeaf
                    assert (t.mask, t.step, t.cost) == (
                        sub.transpose(x), shift, shift)
                for a in range(1 << sub.m):
                    pts = [finite_point(isp, y) for y in bits(a)]
                    got = leaf_compact(isp, a).forall_(t)
                    ref = and_finite([g.chi(p) for p in pts])
                    if ref.known is None:
                        _same_run(got, ref)
                    else:
                        _same_value(got, ref)
                    got = leaf_overt(isp, a).exists_(t)
                    ref = or_countable([g.chi(p) for p in pts])
                    if ref.known is None:
                        _same_run(got, ref)
                    else:
                        _same_value(got, ref)
                # chi itself, at every index point undelayed and at fresh
                # cold names of delay 0-3 (both opens read the same name)
                for y in range(sub.m):
                    for yp in [finite_point(isp, y)] + [
                            Point(isp, delayed_name([(d, y)], tail=y))
                            for d in range(4)]:
                        _same_run(t.chi(yp), g.chi(yp))


def test_only_a_warm_carrier_point_gets_a_shifted_leaf():
    sub = make_subbase(2, [0b01, 0b11], [(0, 1)])
    b = finite_presubbase(sub)
    isp, csp = b.index, b.carrier
    warm = finite_point(csp, 1)
    t = transpose(b, warm)
    assert type(t) is ShiftedLeaf and t.mask == sub.transpose(1) == 0b10
    assert b.transpose(warm) is t  # built once per name
    assert type(embed_point(b, warm).payload) is ShiftedLeaf
    # a delayed point, a point of another space, and the same family as a
    # plain presubbase get the generic open
    assert type(b.transpose(finite_point(csp, 1, delay=2))) is OpenSet
    assert type(b.transpose(finite_point(isp, 1))) is OpenSet
    plain = Presubbase(isp, csp, b.family)
    assert type(plain.transpose(warm)) is OpenSet
    # a warm index name emitting past the index is read by the family,
    # which raises at the arrival step, as the generic open's read does
    bad = Point(isp, literal_name([5], tail=5))
    bad.payload.peek()
    for o in (t, plain.transpose(warm)):
        sv = o.chi(bad)
        assert sv.known is None and sv.bound == 2 and sv.status(1) is None
        with pytest.raises(IndexError):
            sv.status(2)
    # a leaf open, and a shifted leaf of a compact value, fold without
    # asking chi; an overt value asks a shifted leaf's chi once per member,
    # as it asks a plain open wrapping the same chi
    asked = []

    def chi(p):
        asked.append(p)
        return t.chi(p)

    members = [finite_point(isp, y) for y in range(2)]
    compact, overt = leaf_compact(isp, 0b11).forall_, leaf_overt(isp, 0b11).exists_
    compact(LeafOpen(isp, chi, 0b10))
    overt(LeafOpen(isp, chi, 0b10))
    folded = compact(ShiftedLeaf(isp, chi, 0b10, 1, 1))
    assert asked == [] and folded.known == NEVER and folded.bound == 4
    _same_value(compact(OpenSet(isp, chi)), folded)
    assert asked == members
    del asked[:]
    _same_value(overt(ShiftedLeaf(isp, chi, 0b10, 1, 1)), overt(OpenSet(isp, chi)))
    assert asked == members + members
