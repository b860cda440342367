import gc
import itertools
import weakref
from dataclasses import replace

import pytest

from synthtop.bases import (GaloisWitness, Presubbase, base_completion,
                            embed_point, galois_backward, galois_forward,
                            identity_base, kolmogorov_completion,
                            lacombe_to_prebase, meet_prebase, point_transpose,
                            prebase_from_point_closure, prebase_from_presubbase,
                            presubbase_space, product_prebase,
                            coproduct_prebase, sequence_prebase, star,
                            star_point,
                            subbase_open, subspace_prebase, tau_k_open)
from synthtop.hyper import (CompactSat, OpenSet, OvertClosed, as_compact,
                            as_open, box_embed, compact_intersection,
                            compact_union, filter_embed, point_to_closed,
                            point_to_compact, whole_open)
from synthtop.oracle import (bits, budgeted, compact_family_of_compacts,
                             family_compact, finite_point, finite_presubbase,
                             finite_repr, full_mask, leaf_compact, leaf_open,
                             leaf_overt, make_space, make_subbase, mask_of,
                             open_members, product_space, up_sets)
from synthtop.reals import DECIMAL, rational_interval_subbase
from synthtop.sierpinski import NEGATIVE_FUEL, and_finite, bot
from synthtop.spaces import (MissingWitnessError, Point, Space,
                             SpaceMismatch, compacts, inj0, inj1, meet_point,
                             opens, pair_point, product, proj1, proj2,
                             read_first, seq_at, seq_point, sequence,
                             subspace)

SIERP2 = make_space(2, [0, 0b10, 0b11])
DISC2 = make_space(2, [0, 0b01, 0b10, 0b11])


def chain_instance():
    sub = make_subbase(2, [0b10, 0b11], [(0, 1)])
    b = finite_presubbase(sub)
    return sub, b, presubbase_space(b)


def members_over(b, sub, u, fuel=None):
    return mask_of(
        x for x in range(sub.n)
        if budgeted(u.chi(embed_point(b, finite_point(b.carrier, x))), fuel))


def test_transpose_against_oracle():
    sub, b, bsp = chain_instance()
    for x in range(2):
        t = b.transpose(finite_point(b.carrier, x))
        got = mask_of(y for y in range(sub.m)
                      if budgeted(t.chi(finite_point(b.index, y))))
        assert got == sub.transposes[x]


def test_transpose_constant_families():
    sp = finite_repr(SIERP2)
    whole = Presubbase(index=sp, carrier=sp,
                       family=lambda y: whole_open(sp))
    t = whole.transpose(finite_point(sp, 0))
    assert all(budgeted(t.chi(finite_point(sp, y))) for y in range(2))
    empty = Presubbase(index=sp, carrier=sp,
                       family=lambda y: leaf_open(sp, 0))
    t = empty.transpose(finite_point(sp, 0))
    assert not any(budgeted(t.chi(finite_point(sp, y)), NEGATIVE_FUEL)
                   for y in range(2))


def test_induced_space_accepts_exactly_the_base_sets():
    sub, b, bsp = chain_instance()
    isp = b.index
    for k_mask in up_sets(sub.index_space()):
        want = full_mask(sub.n)
        for y in bits(k_mask):
            want &= sub.sets[y]
        u = tau_k_open(bsp, leaf_compact(isp, k_mask))
        assert members_over(b, sub, u) == want


def test_single_point_carrier_collapses():
    sub = make_subbase(1, [0b1])
    b = finite_presubbase(sub)
    bsp = presubbase_space(b)
    p = embed_point(b, finite_point(b.carrier, 0))
    u = tau_k_open(bsp, leaf_compact(b.index, 0b1))
    assert budgeted(u.chi(p))


def test_induced_space_filter_inverse_roundtrip():
    sub, b, bsp = chain_instance()
    from synthtop.hyper import neighborhood_filter
    for x in range(2):
        p = embed_point(b, finite_point(b.carrier, x))
        q = bsp.filter_inverse(neighborhood_filter(p), None)
        # extensionally the same transpose set
        got = mask_of(y for y in range(sub.m)
                      if budgeted(point_transpose(q).chi(finite_point(b.index, y))))
        assert got == sub.transposes[x]


def carrier_members(b, sub, u, fuel=10 ** 4):
    return mask_of(x for x in range(sub.n)
                   if budgeted(u.chi(finite_point(b.carrier, x)), fuel))


def test_prebase_from_presubbase_defining_equation():
    sub, b, bsp = chain_instance()
    pre = prebase_from_presubbase(b)
    isp = b.index
    # singleton saturated compact: the member itself
    for y in range(sub.m):
        kpt = point_to_compact(finite_point(isp, y))
        u = pre.family(kpt.as_point())
        assert carrier_members(b, sub, u) == sub.sets[y]
    # empty compact: the whole carrier
    empty = CompactSat(isp, lambda _u: and_finite([]))
    u = pre.family(empty.as_point())
    assert carrier_members(b, sub, u) == full_mask(sub.n)
    # resolver: intersection over a compact family equals the resolved union
    fam = compact_family_of_compacts(
        isp, [leaf_compact(isp, 0b10), leaf_compact(isp, 0b11)])
    a = pre.resolver(fam, None)
    inter = OpenSet(b.carrier,
                    lambda z: fam.forall_(
                        OpenSet(pre.index,
                                lambda kpt: pre.family(kpt).chi(z))))
    union = OpenSet(b.carrier,
                    lambda z: a.exists_(
                        OpenSet(pre.index,
                                lambda kpt: pre.family(kpt).chi(z))))
    for x in range(sub.n):
        xp = finite_point(b.carrier, x)
        assert budgeted(inter.chi(xp), 10 ** 4) == budgeted(union.chi(xp), 10 ** 4)


def test_filter_family_is_a_prebase_via_point_closure():
    # the compact-indexed filter family, resolved by compact unions
    sp = finite_repr(SIERP2)
    from synthtop.spaces import compacts
    base = Presubbase(index=compacts(sp), carrier=opens(sp),
                      family=lambda kpt: filter_embed(as_compact(kpt)))
    pre = prebase_from_point_closure(
        base, lambda kk: compact_union(kk).as_point())
    k1, k2 = leaf_compact(sp, 0b10), leaf_compact(sp, 0b11)
    kk = compact_family_of_compacts(sp, [k1, k2])
    a = pre.resolver(kk, None)
    union_members = mask_of(
        i for i, u in enumerate(SIERP2.opens)
        if budgeted(a.exists_(base.transpose(leaf_open(sp, u).as_point())),
                    10 ** 4))
    want = mask_of(i for i, u in enumerate(SIERP2.opens)
                   if 0b11 & ~u == 0)  # filters of sat(K1 u K2) = sat{0,1}
    assert union_members == want


def test_box_family_is_a_prebase_via_point_closure():
    sp = finite_repr(SIERP2)
    from synthtop.spaces import compacts
    base = Presubbase(index=opens(sp), carrier=compacts(sp),
                      family=lambda upt: box_embed(as_open(upt)))
    pre = prebase_from_point_closure(
        base, lambda kk: compact_intersection(kk).as_point())
    fam = family_compact(sp, [leaf_open(sp, 0b10), leaf_open(sp, 0b11)])
    a = pre.resolver(fam, None)
    # union over the resolved set of Box(U) families, evaluated at up-sets
    for k_mask in up_sets(SIERP2):
        kpt = leaf_compact(sp, k_mask).as_point()
        got = budgeted(a.exists_(base.transpose(kpt)), 10 ** 4)
        want = k_mask & ~0b10 == 0  # Box(U1) & Box(U2) = Box(U1 & U2)
        assert got == want


def test_lacombe_identity_base_invariants():
    for f in (SIERP2, DISC2, make_space(3, [0, 0b100, 0b110, 0b111])):
        sp = finite_repr(f)
        lb = identity_base(sp)
        for u in f.opens:
            uo = leaf_open(sp, u)
            back = lb.union_map(lb.union_inverse(uo))
            assert open_members(sp, back) == u


def test_identity_base_requires_witness():
    indiscrete = finite_repr(make_space(2, [0, 0b11]))
    with pytest.raises(MissingWitnessError):
        identity_base(indiscrete)


def test_lacombe_to_prebase_resolves_compact_intersections():
    sp = finite_repr(SIERP2)
    pre = lacombe_to_prebase(identity_base(sp))
    fam = family_compact(sp, [leaf_open(sp, 0b10), leaf_open(sp, 0b11)])
    a = pre.resolver(fam, None)
    got = open_members(
        sp, OpenSet(sp, lambda x: a.exists_(pre.transpose(x))), 10 ** 4)
    assert got == 0b10


def test_lacombe_singleton_index_space():
    one = finite_repr(make_space(1, [0, 0b1]))
    idx = finite_repr(make_space(1, [0, 0b1]))
    lb_union = lambda a: OpenSet(one, lambda x: a.exists_(whole_open(idx)))
    lb_inverse = lambda u: OvertClosed(
        idx, lambda v: and_finite([u.chi(finite_point(one, 0)),
                                   v.chi(finite_point(idx, 0))]))
    from synthtop.bases import LacombeBase
    lb = LacombeBase(index=idx, carrier=one, union_map=lb_union,
                     union_inverse=lb_inverse)
    for u in (0, 0b1):
        back = lb.union_map(lb.union_inverse(leaf_open(one, u)))
        assert open_members(one, back) == u


def test_product_prebase_generates_product_topology():
    subx = make_subbase(2, [0b10])
    b = finite_presubbase(subx, SIERP2)
    pre = product_prebase(replace(b, resolver=_trivial_resolver(b)),
                          replace(b, resolver=_trivial_resolver(b)))
    fg = product_space(SIERP2, SIERP2)
    spx = b.carrier
    for r in range(1):
        for s_ in range(1):
            u = pre.family(pair_point(finite_point(b.index, r),
                                      finite_point(b.index, s_)))
            for i in range(2):
                for j in range(2):
                    z = pair_point(finite_point(spx, i), finite_point(spx, j))
                    want = bool(0b10 >> i & 1) and bool(0b10 >> j & 1)
                    assert budgeted(u.chi(z), 10 ** 4) == want
    # transpose inverse recovers both components
    xy = pair_point(finite_point(spx, 1), finite_point(spx, 1))
    w = pre.transpose(xy)
    back = pre.transpose_inverse(w, 10 ** 4)
    assert read_first(proj1(back), 100) == 1
    assert read_first(proj2(back), 100) == 1


def _trivial_resolver(b):
    def resolver(k, fuel=None):
        # indices of a finite presubbase form a finite overt space; resolve
        # a compact index set by listing the indices it certifiably keeps
        isp = b.index
        f = isp.parts[0]
        members = [y for y in range(f.n)
                   if budgeted(k.forall_(leaf_open(isp, _upmask(f, y))), fuel)]
        mask = 0
        for y in members:
            mask |= 1 << y
        return leaf_overt(isp, mask if members else 0)

    return resolver


def _upmask(f, y):
    from synthtop.oracle import specialization
    return specialization(f)[y]


def test_product_construction_generates_product_topology():
    # identity-like factors: the decoded members of the constructed family
    # generate exactly the oracle product topology
    sub = make_subbase(2, [0b10, 0b11])
    b = finite_presubbase(sub, SIERP2)
    pre = product_prebase(b, b)
    fg = product_space(SIERP2, SIERP2)
    masks = []
    for r in range(sub.m):
        for s_ in range(sub.m):
            u = pre.family(pair_point(finite_point(b.index, r),
                                      finite_point(b.index, s_)))
            mask = 0
            for i in range(2):
                for j in range(2):
                    z = pair_point(finite_point(b.carrier, i),
                                   finite_point(b.carrier, j))
                    if budgeted(u.chi(z), 10 ** 4):
                        mask |= 1 << (i * 2 + j)
            masks.append(mask)
    from synthtop.oracle import generate_topology
    assert generate_topology(masks, 4) == fg


def test_coproduct_construction_generates_disjoint_union_topology():
    from synthtop.oracle import coproduct_space, generate_topology
    from synthtop.spaces import inj0, inj1
    sub = make_subbase(2, [0b10, 0b11])
    bx = finite_presubbase(sub, SIERP2)
    by = finite_presubbase(sub, SIERP2)
    pre = coproduct_prebase(bx, by)
    masks = []
    for tag in (0, 1):
        for y in range(sub.m):
            idx = (inj0(finite_point(bx.index, y), by.index) if tag == 0
                   else inj1(bx.index, finite_point(by.index, y)))
            u = pre.family(idx)
            mask = 0
            for ztag in (0, 1):
                for x in range(2):
                    zp = (inj0(finite_point(bx.carrier, x), by.carrier)
                          if ztag == 0
                          else inj1(bx.carrier, finite_point(by.carrier, x)))
                    if budgeted(u.chi(zp), 10 ** 4):
                        mask |= 1 << (ztag * 2 + x)
            masks.append(mask)
    assert generate_topology(masks, 4) == coproduct_space(SIERP2, SIERP2)


def test_meet_construction_regenerates_the_original_topology():
    from synthtop.oracle import generate_topology
    from synthtop.spaces import meet_point
    sub = make_subbase(2, [0b10, 0b11])
    b = finite_presubbase(sub, SIERP2)
    pre = meet_prebase(b, b)
    masks = []
    for y1 in range(sub.m):
        for y2 in range(sub.m):
            u = pre.family(pair_point(finite_point(b.index, y1),
                                      finite_point(b.index, y2)))
            mask = 0
            for x in range(2):
                z = meet_point(finite_point(b.carrier, x),
                               finite_point(b.carrier, x))
                if budgeted(u.chi(z), 10 ** 4):
                    mask |= 1 << x
            masks.append(mask)
    assert generate_topology(masks, 2) == SIERP2


def test_subspace_prebase_restricts():
    sub, b, bsp = chain_instance()
    zsp = subspace(b.carrier, lambda p: True)
    restricted = subspace_prebase(b, zsp)
    for y in range(sub.m):
        u = restricted.family(finite_point(b.index, y))
        got = mask_of(x for x in range(sub.n)
                      if budgeted(u.chi(Point(zsp, finite_point(b.carrier, x).payload))))
        assert got == sub.sets[y]


def test_coproduct_prebase_generates_disjoint_union_topology():
    sub = make_subbase(2, [0b10, 0b11], [(0, 1)])
    bx = finite_presubbase(sub, SIERP2)
    by = finite_presubbase(sub, SIERP2)
    pre = coproduct_prebase(bx, by)
    from synthtop.spaces import inj0, inj1
    for tag in (0, 1):
        for y in range(sub.m):
            idx = (inj0(finite_point(bx.index, y), by.index) if tag == 0
                   else inj1(bx.index, finite_point(by.index, y)))
            u = pre.family(idx)
            for ztag in (0, 1):
                for x in range(2):
                    zp = (inj0(finite_point(bx.carrier, x), by.carrier)
                          if ztag == 0
                          else inj1(bx.carrier, finite_point(by.carrier, x)))
                    want = (ztag == tag) and bool(sub.sets[y] >> x & 1)
                    assert budgeted(u.chi(zp), 10 ** 4) == want
    # transpose inverse finds the right branch, on either side
    for tag in (0, 1):
        for x in range(2):
            zp = (inj0(finite_point(bx.carrier, x), by.carrier) if tag == 0
                  else inj1(bx.carrier, finite_point(by.carrier, x)))
            back = pre.transpose_inverse(pre.transpose(zp), 10 ** 4)
            assert back.payload[0] == tag
            assert read_first(back.payload[1], 100) == x


def _compacts_over(index, points):
    """The saturation of every subset of ``points``, as compact values."""
    for r in range(len(points) + 1):
        for pts in itertools.combinations(points, r):
            yield CompactSat(index, lambda u, _p=pts: and_finite(
                [u.chi(t) for t in _p]))


def _resolver_mismatches(pre, index_points, carrier_points):
    """Count (K, z) where z lies in the intersection of the members over K
    but not in the union over ``resolver(K)``, or the other way round."""
    bad = 0
    for k in _compacts_over(pre.index, index_points):
        a = pre.resolver(k, None)
        for z in carrier_points:
            members = pre.transpose(z)
            bad += budgeted(k.forall_(members), 10 ** 4) != \
                budgeted(a.exists_(members), 10 ** 4)
    return bad


def test_coproduct_prebase_resolver_keeps_each_summand_apart():
    # a K inside one summand resolves to index sets in that summand only:
    # the other summand's empty intersection (all of it) must not leak in
    sub, b, _ = chain_instance()
    isp = b.index
    # index 0 exactly when K holds index 0 ({1} is the open missing it)
    pre = prebase_from_point_closure(b, lambda k: finite_point(
        isp, 1 if budgeted(k.forall_(leaf_open(isp, 0b10)), 10 ** 4) else 0))
    cp = coproduct_prebase(pre, pre)
    index_points = ([inj0(finite_point(isp, y), isp) for y in range(sub.m)] +
                    [inj1(isp, finite_point(isp, y)) for y in range(sub.m)])
    carrier_points = (
        [inj0(finite_point(b.carrier, x), b.carrier) for x in range(sub.n)] +
        [inj1(b.carrier, finite_point(b.carrier, x)) for x in range(sub.n)])
    # K = sat{inj0(1)}: inj1(0) lies outside B_inj0(1), so outside the union
    k = CompactSat(cp.index, lambda u: u.chi(index_points[1]))
    members = cp.transpose(carrier_points[2])
    assert not budgeted(cp.resolver(k, None).exists_(members), 10 ** 4)
    assert _resolver_mismatches(cp, index_points, carrier_points) == 0


@pytest.mark.parametrize("build, point_of", [(product_prebase, pair_point),
                                             (meet_prebase, meet_point)])
def test_pairwise_prebase_resolver_defining_equation(build, point_of):
    sub, b, _ = chain_instance()
    pre = build(prebase_from_wrap(b), prebase_from_wrap(b))
    index_points = [pair_point(finite_point(b.index, r),
                               finite_point(b.index, s_))
                    for r in range(sub.m) for s_ in range(sub.m)]
    # both views of a meet point denote one carrier element
    carrier_points = [point_of(finite_point(b.carrier, i),
                               finite_point(b.carrier, j))
                      for i in range(sub.n) for j in range(sub.n)
                      if point_of is pair_point or i == j]
    assert _resolver_mismatches(pre, index_points, carrier_points) == 0


def test_transpose_inverses_recover_the_point():
    sub, b, _ = chain_instance()
    pre = prebase_from_presubbase(b)
    zsp = subspace(b.carrier, lambda p: True)
    restricted = subspace_prebase(b, zsp)
    for x in range(sub.n):
        xp = finite_point(b.carrier, x)
        back = pre.transpose_inverse(pre.transpose(xp), 10 ** 4)
        assert read_first(back, 100) == x
        back = restricted.transpose_inverse(
            restricted.transpose(Point(zsp, xp.payload)), 10 ** 4)
        assert back.space is zsp and read_first(back, 100) == x
    sp = finite_repr(SIERP2)
    pre = lacombe_to_prebase(identity_base(sp))
    for x in range(2):
        back = pre.transpose_inverse(pre.transpose(finite_point(sp, x)),
                                     10 ** 4)
        assert read_first(back, 100) == x


def test_star_overt_witness_meets_exactly_the_inhabited_opens():
    _, b, _ = chain_instance()
    s = star(b.index)

    def tuples(length, mask):
        # the tuples of that length with every component in ``mask``
        return OpenSet(s, lambda t: and_finite(
            [leaf_open(b.index, mask).chi(c) for c in t.payload])
            if len(t.payload) == length else bot())

    assert budgeted(s.overt.exists_(tuples(0, 0)), 10 ** 4)
    assert s.overt.exists_(tuples(1, 0b10)).status(23) == 23
    # the race over lengths never ends; the length-n task has 2^n leaves
    assert s.overt.exists_(tuples(1, 0)).status(40) is None


@pytest.mark.parametrize("build, who", [(product_prebase, "product_prebase"),
                                        (meet_prebase, "meet_prebase"),
                                        (coproduct_prebase, "coproduct_prebase")])
def test_pairwise_prebases_name_themselves_without_overt_index(build, who):
    _, b, _ = chain_instance()
    bare = Space("bare", label="Bare")  # no overtness witness
    covert = Presubbase(index=bare, carrier=b.carrier, family=b.family)
    for bx, by in ((covert, b), (b, covert)):
        with pytest.raises(MissingWitnessError, match=f"^{who} needs an overt index"):
            build(bx, by)


def test_meet_prebase_of_space_with_itself():
    sub, b, bsp = chain_instance()
    pre = meet_prebase(b, b)
    from synthtop.spaces import meet_point
    for y1 in range(sub.m):
        for y2 in range(sub.m):
            u = pre.family(pair_point(finite_point(b.index, y1),
                                      finite_point(b.index, y2)))
            for x in range(sub.n):
                z = meet_point(finite_point(b.carrier, x),
                               finite_point(b.carrier, x))
                want = bool(sub.sets[y1] >> x & 1) and bool(sub.sets[y2] >> x & 1)
                assert budgeted(u.chi(z), 10 ** 4) == want


def test_sequence_prebase_cylinders_and_components():
    sub = make_subbase(2, [0b10, 0b11], [(0, 1)])
    b = finite_presubbase(sub, SIERP2)
    pre = sequence_prebase(b)  # presubbase in, presubbase out
    star_sp = pre.index
    vals = [1, 0, 1, 1]
    q = seq_point(b.carrier, [finite_point(b.carrier, v) for v in vals] +
                  [finite_point(b.carrier, 1) for _ in range(30)])
    # cylinder over (B_0, B_1): constrains the first two components
    tup = star_point(star_sp, (finite_point(b.index, 0),
                               finite_point(b.index, 1)))
    u = pre.family(tup)
    want = bool(sub.sets[0] >> vals[0] & 1) and bool(sub.sets[1] >> vals[1] & 1)
    assert budgeted(u.chi(q), 10 ** 4) == want
    # component recovery through overt projections
    w = pre.transpose(q)
    back = pre.transpose_inverse(w, 10 ** 4)
    for n in range(3):
        assert read_first(seq_at(back, n), 10 ** 4) == vals[n]


def test_sequence_prebase_resolver_defining_equation():
    sub = make_subbase(2, [0b10, 0b11], [(0, 1)])
    b = finite_presubbase(sub, SIERP2)
    pre = sequence_prebase(prebase_from_wrap(b))
    star_sp = pre.index
    # compact: the saturation of a single length-1 tuple
    tup = star_point(star_sp, (finite_point(b.index, 0),))
    k = point_to_compact(tup)
    a = pre.resolver(k, None)
    inter = OpenSet(pre.carrier,
                    lambda z: k.forall_(pre.transpose(z)))
    union = OpenSet(pre.carrier,
                    lambda z: a.exists_(pre.transpose(z)))
    for v in (0, 1):
        q = seq_point(b.carrier, lambda n, _v=v: finite_point(b.carrier, _v))
        assert budgeted(inter.chi(q), 10 ** 5) == budgeted(union.chi(q), 10 ** 5)


def prebase_from_wrap(b):
    return replace(b, resolver=_trivial_resolver(b))


# --- the resolver slot -----------------------------------------------------


@pytest.mark.parametrize("build", [product_prebase, meet_prebase,
                                   coproduct_prebase])
def test_pairwise_prebase_resolves_only_when_both_factors_do(build):
    _, b, _ = chain_instance()
    pre = prebase_from_wrap(b)
    assert build(b, b).resolver is None
    assert build(pre, b).resolver is None
    assert build(b, pre).resolver is None
    assert build(pre, pre).resolver is not None


def test_sequence_prebase_resolves_only_when_its_factor_does():
    _, b, _ = chain_instance()
    assert sequence_prebase(b).resolver is None
    assert sequence_prebase(prebase_from_wrap(b)).resolver is not None


def test_subspace_prebase_keeps_the_factor_resolver():
    _, b, _ = chain_instance()
    zsp = subspace(b.carrier, lambda p: True)
    assert subspace_prebase(b, zsp).resolver is None
    pre = prebase_from_wrap(b)
    assert subspace_prebase(pre, zsp).resolver is pre.resolver


# --- the transpose-inverse slot ---------------------------------------------


@pytest.mark.parametrize("build", [
    lambda b: product_prebase(b, b), lambda b: meet_prebase(b, b),
    lambda b: coproduct_prebase(b, b), sequence_prebase,
    lambda b: subspace_prebase(b, subspace(b.carrier, lambda p: True)),
    prebase_from_presubbase],
    ids=["product", "meet", "coproduct", "sequence", "subspace",
         "prebase_from_presubbase"])
def test_constructions_invert_only_when_their_factors_do(build):
    _, b, _ = chain_instance()
    assert build(b).transpose_inverse is not None
    # the rational-interval subbase of the reals carries no inverse
    assert build(rational_interval_subbase()).transpose_inverse is None


@pytest.mark.parametrize("build", [product_prebase, meet_prebase,
                                   coproduct_prebase])
def test_pairwise_prebase_inverts_only_when_both_factors_do(build):
    _, b, _ = chain_instance()
    bare = replace(b, transpose_inverse=None)
    assert build(b, bare).transpose_inverse is None
    assert build(bare, b).transpose_inverse is None


def test_point_closure_leaves_its_argument_without_a_resolver():
    _, b, bsp = chain_instance()
    pre = prebase_from_point_closure(
        b, lambda k: finite_point(b.index, 0))
    assert b.resolver is None
    assert pre.resolver is not None
    assert (pre.index, pre.carrier, pre.family, pre.transpose_inverse) == \
        (b.index, b.carrier, b.family, b.transpose_inverse)
    # each record induces its own space
    assert presubbase_space(b) is bsp
    assert presubbase_space(pre) is not bsp


def test_filter_inverse_off_range_is_a_detectable_error():
    # an "anti-filter" accepting only the empty open is not a neighborhood
    # filter of any point
    from synthtop.sierpinski import bot as _bot, top as _top
    sp = finite_repr(SIERP2)

    def chi(upt):
        return _top() if open_members(sp, as_open(upt)) == 0 else _bot()

    weird = OpenSet(opens(sp), chi)
    with pytest.raises(ValueError):
        sp.filter_inverse(weird, 100)


def test_completion_preserves_membership_and_idempotence():
    for f in (SIERP2, DISC2):
        sp = finite_repr(f)
        comp = kolmogorov_completion(sp)
        comp2 = kolmogorov_completion(comp.space)
        for u in f.opens:
            u1 = comp.open_back(leaf_open(sp, u))
            u2 = comp2.open_back(u1)
            for x in range(f.n):
                x1 = comp.forward(finite_point(sp, x))
                x2 = comp2.forward(x1)
                want = bool(u >> x & 1)
                assert budgeted(u1.chi(x1), 10 ** 4) == want
                assert budgeted(u2.chi(x2), 10 ** 4) == want


def test_completion_forward_rejects_a_point_of_another_space():
    sp, other = finite_repr(SIERP2), finite_repr(DISC2)
    with pytest.raises(SpaceMismatch):
        kolmogorov_completion(sp).forward(finite_point(other, 0))


def test_base_completion_covers_original_members():
    sub, b, bsp = chain_instance()
    lb = base_completion(b)
    for y in range(sub.m):
        member = subbase_open(bsp, finite_point(b.index, y))
        realized = lb.union_map(point_to_closed(member.as_point()))
        got = members_over(b, sub, realized)
        assert got == sub.sets[y]


def test_galois_identity_family_roundtrips():
    # the family of all opens over a discrete index: both directions give
    # identity-like translators
    sp = finite_repr(SIERP2)
    fam = SIERP2.opens
    isp = finite_repr(make_space(len(fam), list(range(1 << len(fam)))))

    def t(x):
        return OpenSet(isp, lambda y: leaf_open(
            sp, fam[read_first(y, 100)]).chi(x))

    u = galois_forward(GaloisWitness("rep_to_base", sp, isp, t))
    for y, mask in enumerate(fam):
        assert open_members(sp, u.translator(finite_point(isp, y)), 10 ** 4) == mask
    t2 = galois_backward(u)
    for x in range(2):
        got = mask_of(y for y in range(len(fam))
                      if budgeted(t2.translator(finite_point(sp, x))
                                  .chi(finite_point(isp, y)), 10 ** 4))
        assert got == mask_of(y for y, m in enumerate(fam) if m >> x & 1)


def test_galois_forward_backward_roundtrip():
    sp = finite_repr(SIERP2)
    isp = finite_repr(DISC2)
    fam = (0b10, 0b11)

    def t(x):
        return OpenSet(isp, lambda y: leaf_open(
            sp, fam[read_first(y, 100)]).chi(x))

    w = GaloisWitness("rep_to_base", sp, isp, t)
    u = galois_forward(w)
    for y in range(2):
        got = open_members(sp, u.translator(finite_point(isp, y)), 10 ** 4)
        assert got == fam[y]
    t2 = galois_backward(u)
    for x in range(2):
        got = mask_of(y for y in range(2)
                      if budgeted(t2.translator(finite_point(sp, x))
                                  .chi(finite_point(isp, y)), 10 ** 4))
        assert got == mask_of(y for y in range(2) if fam[y] >> x & 1)


def test_galois_direction_errors():
    sp = finite_repr(SIERP2)
    w = GaloisWitness("base_to_rep", sp, sp, lambda y: whole_open(sp))
    with pytest.raises(ValueError):
        galois_forward(w)
    w2 = GaloisWitness("rep_to_base", sp, sp, lambda x: whole_open(sp))
    with pytest.raises(ValueError):
        galois_backward(w2)


# --- interned shapes and per-shape witnesses ------------------------------


@pytest.mark.parametrize("build", [product_prebase, coproduct_prebase])
def test_second_pairwise_prebase_keeps_the_first_index_witness(build):
    _, b, _ = chain_instance()
    index = build(b, b).index
    witness = index.overt
    assert witness is not None
    again = build(b, b).index
    assert again is index
    assert again.overt is witness


def test_star_is_interned_and_keeps_its_witness():
    _, b, _ = chain_instance()
    s = star(b.index)
    witness = s.overt
    assert witness is not None
    assert star(b.index) is s
    assert s.overt is witness
    assert sequence_prebase(b).index is s


def test_presubbase_space_and_its_derived_spaces_die_with_it():
    _, b, bsp = chain_instance()
    derived = [opens(bsp), product(bsp, b.index), compacts(opens(bsp)),
               star(bsp), sequence(product(bsp, bsp))]
    refs = [weakref.ref(sp) for sp in [bsp, *derived]]
    del b, bsp, derived
    gc.collect()
    assert [r() for r in refs] == [None] * len(refs)


def test_repeated_completion_does_not_grow_the_derived_table():
    kolmogorov_completion(DECIMAL)
    table = dict(DECIMAL.derived)
    for _ in range(3):
        comp = kolmogorov_completion(DECIMAL)
        assert comp.space.parts[0].index is opens(DECIMAL)
    assert DECIMAL.derived == table
