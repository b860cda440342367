import gc
import itertools

import pytest

from synthtop.hyper import (OpenSet, as_open, attach_product_witnesses,
                            box_embed, box_invert, compact_image,
                            compact_intersection, compact_open_embed,
                            compact_open_invert, compact_union, closed_image,
                            coproduct_closed, filter_embed, filter_invert,
                            nat_singleton_open,
                            neighborhood_filter, overt_project, overt_union,
                            point_to_closed, point_to_compact, product_closed,
                            product_open, section, trace_embed, trace_invert,
                            whole_open)
from synthtop.laws import _product_leaf_open
from synthtop.oracle import (budgeted, closure, compact_members,
                             family_compact, family_overt, finite_point,
                             finite_repr, leaf_compact, leaf_open, leaf_overt,
                             make_space, open_members, overt_members,
                             product_space, saturate, up_sets)
from synthtop.sierpinski import (NEGATIVE_FUEL, SValue, and_finite, bot,
                                 first_accepting, top)
from synthtop.spaces import (NAT, SIERP, MissingWitnessError, SpaceMismatch,
                             apply_fun, coproduct, curry, fun_point,
                             nat_point, pair_point, product,
                             proj1, proj2, read_first, sierp_point,
                             sierp_value)

SIERP2 = make_space(2, [0, 0b10, 0b11])
CHAIN3 = make_space(3, [0, 0b100, 0b110, 0b111])


def test_membership_truth_table_on_sierpinski_space():
    sp = finite_repr(SIERP2)
    u = leaf_open(sp, 0b10)
    assert u.chi(finite_point(sp, 1)).status(10) is not None
    assert u.chi(finite_point(sp, 0)).status(NEGATIVE_FUEL) is None


def test_membership_exhaustive_on_chain():
    sp = finite_repr(CHAIN3)
    for mask in CHAIN3.opens:
        u = leaf_open(sp, mask)
        for x in range(3):
            assert budgeted(u.chi(finite_point(sp, x))) == bool(mask >> x & 1)


def test_neighborhood_filter_accepts_exactly_the_neighborhoods():
    sp = finite_repr(SIERP2)
    flt = neighborhood_filter(finite_point(sp, 1))
    assert budgeted(flt.chi(leaf_open(sp, 0b10).as_point()))
    assert budgeted(flt.chi(leaf_open(sp, 0b11).as_point()))
    assert not budgeted(flt.chi(leaf_open(sp, 0).as_point()))
    flt0 = neighborhood_filter(finite_point(sp, 0))
    assert budgeted(flt0.chi(leaf_open(sp, 0b11).as_point()))
    assert not budgeted(flt0.chi(leaf_open(sp, 0b10).as_point()))


def test_point_injections_agree_with_membership():
    sp = finite_repr(CHAIN3)
    for x in range(3):
        pc = point_to_closed(finite_point(sp, x))
        pk = point_to_compact(finite_point(sp, x))
        for mask in CHAIN3.opens:
            u = leaf_open(sp, mask)
            want = bool(mask >> x & 1)
            assert budgeted(pc.exists_(u)) == want
            assert budgeted(pk.forall_(u)) == want
        assert budgeted(pk.forall_(whole_open(sp)))
        assert not budgeted(pc.exists_(leaf_open(sp, 0)))


def test_images_are_natural_on_singletons():
    spx = finite_repr(SIERP2)
    f = fun_point(spx, spx, lambda p: finite_point(spx, 1))
    k = compact_image(f, point_to_compact(finite_point(spx, 0)))
    a = closed_image(f, point_to_closed(finite_point(spx, 0)))
    u = leaf_open(spx, 0b10)
    assert budgeted(k.forall_(u))
    assert budgeted(a.exists_(u))
    ident = fun_point(spx, spx, lambda p: p)
    k2 = compact_image(ident, leaf_compact(spx, 0b10))
    assert compact_members(spx, k2) == 0b10


def test_section_of_rectangle_is_factor():
    spx = finite_repr(SIERP2)
    w = product_open(leaf_open(spx, 0b11), leaf_open(spx, 0b10))
    sec = section(finite_point(spx, 0), w)
    assert open_members(spx, sec) == 0b10
    empty = product_open(leaf_open(spx, 0), leaf_open(spx, 0b10))
    assert open_members(spx, section(finite_point(spx, 1), empty)) == 0


def test_section_refuses_a_point_over_another_space():
    # the slice pairs y over the product it holds, so a foreign y is
    # refused there, even under a leaf that reads names and checks nothing
    spx, spy = finite_repr(SIERP2), finite_repr(CHAIN3)
    sec = section(finite_point(spx, 1), _product_leaf_open(spx, spy, 3, 0b111000))
    assert [budgeted(sec.chi(finite_point(spy, j))) for j in range(3)] == [
        True] * 3
    for foreign in (finite_point(spx, 0), nat_point(0)):
        with pytest.raises(SpaceMismatch):
            sec.chi(foreign)
    with pytest.raises(SpaceMismatch):
        section(finite_point(spy, 0), _product_leaf_open(spx, spy, 3, 0))


def test_quantifiers_take_opens_of_their_own_space_only():
    sp, other = finite_repr(SIERP2), finite_repr(CHAIN3)
    lo = leaf_open(sp, 0b10)
    as_fun = fun_point(sp, SIERP, lambda x: sierp_point(lo.chi(x)))
    for q in (leaf_overt(sp, 0b11).exists_, leaf_compact(sp, 0b10).forall_):
        for foreign in (leaf_open(other, 0b100),
                        leaf_open(other, 0b100).as_point(),
                        finite_point(sp, 1)):
            with pytest.raises(SpaceMismatch):
                q(foreign)
        for u in (lo, lo.as_point(), as_fun):
            assert budgeted(q(u))
        assert not budgeted(q(leaf_open(sp, 0)), NEGATIVE_FUEL)


def test_product_open_is_rectangle():
    spx = finite_repr(SIERP2)
    w = product_open(leaf_open(spx, 0b10), leaf_open(spx, 0b11))
    for i in range(2):
        for j in range(2):
            want = (0b10 >> i & 1) and (0b11 >> j & 1)
            got = budgeted(w.chi(pair_point(finite_point(spx, i),
                                            finite_point(spx, j))))
            assert got == bool(want)


def test_product_closed_meets_rectangles():
    spx = finite_repr(SIERP2)
    pv = product_closed(leaf_overt(spx, 0b01), leaf_overt(spx, 0b10))
    hit = product_open(leaf_open(spx, 0b11), leaf_open(spx, 0b10))
    miss = product_open(leaf_open(spx, 0b10), leaf_open(spx, 0b10))
    assert budgeted(pv.exists_(hit))
    assert not budgeted(pv.exists_(miss), NEGATIVE_FUEL)


def test_overt_union_of_singleton_family_is_the_open():
    sp = finite_repr(CHAIN3)
    u = leaf_open(sp, 0b110)
    fam = family_overt(sp, [u])
    assert open_members(sp, overt_union(fam)) == 0b110


def test_overt_union_empty_family_is_empty():
    sp = finite_repr(SIERP2)
    assert open_members(sp, overt_union(family_overt(sp, []))) == 0


def test_compact_intersection_of_saturated_singleton_and_pair():
    sp = finite_repr(CHAIN3)
    u, v = leaf_open(sp, 0b110), leaf_open(sp, 0b101 & 0b111)
    one = compact_intersection(family_compact(sp, [u]))
    assert open_members(sp, one) == 0b110
    both = compact_intersection(family_compact(sp, [leaf_open(sp, 0b110),
                                                    leaf_open(sp, 0b100)]))
    assert open_members(sp, both) == 0b100


def test_compact_union_of_singleton_is_itself():
    sp = finite_repr(CHAIN3)
    from synthtop.oracle import compact_family_of_compacts
    kk = compact_family_of_compacts(sp, [leaf_compact(sp, 0b100)])
    assert compact_members(sp, compact_union(kk)) == 0b100
    pair_fam = compact_family_of_compacts(
        sp, [leaf_compact(sp, 0b100), leaf_compact(sp, 0b010)])
    got = compact_union(pair_fam)
    assert budgeted(got.forall_(whole_open(sp)))
    assert compact_members(sp, got) == 0b110


def test_filter_embed_is_the_forall_transformer():
    sp = finite_repr(SIERP2)
    k = leaf_compact(sp, 0b10)
    w = filter_embed(k)
    assert budgeted(w.chi(leaf_open(sp, 0b10).as_point()))
    assert not budgeted(w.chi(leaf_open(sp, 0).as_point()))
    back = filter_invert(w)
    assert compact_members(sp, back) == 0b10


def test_trace_embed_roundtrip():
    sp = finite_repr(SIERP2)
    a = leaf_overt(sp, 0b01)
    w = trace_embed(a)
    assert budgeted(w.chi(leaf_open(sp, 0b11).as_point()))
    assert not budgeted(w.chi(leaf_open(sp, 0b10).as_point()))
    from synthtop.oracle import overt_members
    assert overt_members(sp, trace_invert(w)) == 0b01


def test_box_embed_and_invert():
    sp = finite_repr(SIERP2)
    u = leaf_open(sp, 0b10)
    w = box_embed(u)
    assert budgeted(w.chi(point_to_compact(finite_point(sp, 1)).as_point()))
    assert not budgeted(w.chi(point_to_compact(finite_point(sp, 0)).as_point()))
    assert open_members(sp, box_invert(w)) == 0b10


def test_compact_open_embed_identity_and_constant():
    sp = finite_repr(SIERP2)
    ident = fun_point(sp, sp, lambda p: p)
    w = compact_open_embed(ident)
    k1 = leaf_compact(sp, 0b10).as_point()
    assert budgeted(w.chi(pair_point(k1, leaf_open(sp, 0b10).as_point())))
    const1 = fun_point(sp, sp, lambda p: finite_point(sp, 1))
    wc = compact_open_embed(const1)
    for kmask in (0b01, 0b10, 0b11):
        kpt = leaf_compact(sp, kmask).as_point()
        assert budgeted(wc.chi(pair_point(kpt, leaf_open(sp, 0b10).as_point())))
        assert not budgeted(wc.chi(pair_point(kpt, leaf_open(sp, 0).as_point())))


def test_compact_open_invert_recovers_function():
    sp = finite_repr(SIERP2)
    swap = fun_point(sp, sp,
                     lambda p: finite_point(sp, 1 - read_first(p, 100)))
    w = compact_open_embed(swap)
    back = compact_open_invert(w, 10 ** 4)
    for x in range(2):
        assert read_first(apply_fun(back, finite_point(sp, x)), 10 ** 4) == 1 - x


def test_compact_open_invert_needs_witness():
    indiscrete = finite_repr(make_space(2, [0, 0b11]))
    f = fun_point(indiscrete, indiscrete, lambda p: p)
    w = compact_open_embed(f)
    with pytest.raises(MissingWitnessError):
        compact_open_invert(w, 100)


def test_eval_helpers_and_planted_overt_witness():
    sp = finite_repr(SIERP2)
    x = finite_point(sp, 1)
    u = leaf_open(sp, 0b10)
    assert budgeted(point_to_compact(x).forall_(u)) \
        == budgeted(u.chi(x))
    # the whole space is overt: a nonempty open is found by the witness
    assert budgeted(sp.overt.exists_(u))
    assert not budgeted(sp.overt.exists_(leaf_open(sp, 0)))
    assert not budgeted(leaf_overt(sp, 0b01).exists_(leaf_open(sp, 0)))
    # one closed, saturated set of a discrete space, overt and compact
    disc = make_space(2, [0, 0b01, 0b10, 0b11])
    dsp = finite_repr(disc)
    a_mask = 0b01
    assert closure(disc, a_mask) == saturate(disc, a_mask) == a_mask
    assert overt_members(dsp, leaf_overt(dsp, a_mask)) == a_mask
    assert compact_members(dsp, leaf_compact(dsp, a_mask)) == a_mask
    # and the complement of an open
    assert open_members(dsp, leaf_open(dsp, 0b10)) == 0b10
    assert overt_members(dsp, leaf_overt(dsp, a_mask)) \
        == 0b11 & ~open_members(dsp, leaf_open(dsp, 0b10))


def test_overt_projection_matches_oracle():
    sp = finite_repr(SIERP2)
    w = product_open(leaf_open(sp, 0b10), leaf_open(sp, 0b11))
    projected = overt_project(w)
    assert open_members(sp, projected) == 0b10


def test_quantifiers_monotone_in_inclusion_order():
    # growing the queried open never loses an acceptance
    for f in (SIERP2, CHAIN3):
        spc = finite_repr(f)
        for k_mask in (m for m in range(1 << f.n)):
            kv = leaf_compact(spc, k_mask)
            av = leaf_overt(spc, k_mask)
            for u in f.opens:
                for v in f.opens:
                    if u & ~v:
                        continue  # only u subseteq v
                    if budgeted(kv.forall_(leaf_open(spc, u))):
                        assert budgeted(kv.forall_(leaf_open(spc, v)))
                    if budgeted(av.exists_(leaf_open(spc, u))):
                        assert budgeted(av.exists_(leaf_open(spc, v)))


def test_open_point_round_trip_is_free(monkeypatch):
    sp = finite_repr(SIERP2)
    x = finite_point(sp, 1)
    lo = leaf_open(sp, 0b10)
    assert as_open(lo.as_point()) is lo
    assert budgeted(lo.chi(x))  # the point's first value is now cached
    flt = neighborhood_filter(x)
    upt = lo.as_point()
    built = []
    init = SValue.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SValue, "__init__", counting)
    assert budgeted(flt.chi(upt))
    assert len(built) <= 1


def test_warm_finite_queries_leave_no_reference_cycles():
    # a value holding a cycle (a set caching its own point, say) would
    # leave garbage for the cycle collector on every query
    h = product_space(SIERP2, CHAIN3)
    sp = finite_repr(h)
    pts = [finite_point(sp, e) for e in range(h.n)]
    full = (1 << h.n) - 1
    for p in pts:  # read every name once, so every leaf below is warm
        assert budgeted(leaf_open(sp, full).chi(p))
    ups = up_sets(h)
    gc.collect()
    gc.disable()
    try:
        for k in ups:
            emb = filter_embed(leaf_compact(sp, k))
            back = filter_invert(emb)
            for u in h.opens:
                inside = k & ~u == 0
                assert budgeted(emb.chi(leaf_open(sp, u).as_point())) == inside
                assert budgeted(back.forall_(leaf_open(sp, u))) == inside
                assert budgeted(leaf_compact(sp, k).forall_(
                    leaf_open(sp, u))) == inside
                assert budgeted(leaf_overt(sp, k).exists_(
                    leaf_open(sp, u))) == bool(k & u)
        for u in h.opens:
            emb = box_embed(leaf_open(sp, u))
            back = box_invert(emb)
            for k in ups:
                assert budgeted(emb.chi(leaf_compact(sp, k).as_point())) == (
                    k & ~u == 0)
            a = full & ~u
            tw = trace_embed(leaf_overt(sp, a))
            tback = trace_invert(tw)
            for v in h.opens:
                assert budgeted(tw.chi(leaf_open(sp, v).as_point())) == bool(a & v)
                assert budgeted(tback.exists_(leaf_open(sp, v))) == bool(a & v)
            for x, p in enumerate(pts):
                assert budgeted(back.chi(p)) == bool(u >> x & 1)
                flt = neighborhood_filter(p)
                assert budgeted(flt.chi(leaf_open(sp, u).as_point())) == bool(
                    u >> x & 1)
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage == 0


# (k, delay) -> the step at which the race over N's singletons accepts
# the filter of the point k delayed by ``delay`` steps
NAT_RACE_LANDINGS = {(0, 0): 2, (0, 3): 11, (1, 0): 5, (1, 3): 17,
                     (5, 0): 27, (5, 3): 51, (17, 0): 189, (17, 3): 249}


@pytest.mark.parametrize("k, d", sorted(NAT_RACE_LANDINGS))
def test_nat_filter_inverse_emits_where_the_singleton_race_lands(k, d):
    flt = neighborhood_filter(nat_point(k, d))
    hit = first_accepting(
        lambda i: flt.chi(nat_singleton_open(i).as_point()), None, 10 ** 4)
    assert hit == (k, NAT_RACE_LANDINGS[k, d])
    nm = NAT.filter_inverse(flt).payload
    nm.prefix(1, 10 ** 4)
    assert nm.first[:2] == hit


# --- witnesses checked against their defining equations --------------------


def test_coproduct_closed_meets_an_open_by_either_summand():
    sp = finite_repr(SIERP2)
    cop = coproduct(sp, sp)
    for a, b in itertools.product(range(4), repeat=2):
        closed = coproduct_closed(cop, leaf_overt(sp, a), leaf_overt(sp, b))
        for w0, w1 in itertools.product(range(4), repeat=2):
            w = OpenSet(cop, lambda z: leaf_open(
                sp, (w0, w1)[z.payload[0]]).chi(z.payload[1]))
            assert budgeted(closed.exists_(w)) == bool(a & w0 or b & w1)


def test_product_filter_inverse_returns_both_components():
    sp = finite_repr(SIERP2)
    prod = attach_product_witnesses(product(sp, sp))
    for i, j in itertools.product(range(2), repeat=2):
        p = pair_point(finite_point(sp, i), finite_point(sp, j))
        back = prod.filter_inverse(neighborhood_filter(p), 10 ** 4)
        assert (read_first(proj1(back), 100),
                read_first(proj2(back), 100)) == (i, j)


def test_sierpinski_filter_inverse_recovers_the_point():
    for v, accepts in ((top(), True), (bot(), False)):
        back = SIERP.filter_inverse(neighborhood_filter(sierp_point(v)))
        assert budgeted(sierp_value(back)) == accepts


def test_curried_map_into_sierpinski_is_an_open():
    # a plain function point into S, not an `OpenSet`, read as an open
    sp = finite_repr(SIERP2)
    u, v = leaf_open(sp, 0b10), leaf_open(sp, 0b11)
    f = fun_point(product(sp, sp), SIERP, lambda pr: sierp_point(
        and_finite([u.chi(proj1(pr)), v.chi(proj2(pr))])))
    for x in range(2):
        row = as_open(apply_fun(curry(f), finite_point(sp, x)))
        assert row.space is sp
        assert open_members(sp, row, 10 ** 4) == (0b11 if x == 1 else 0)
