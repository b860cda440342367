import gc
import random
import weakref

import pytest

from synthtop.oracle import finite_point, finite_repr, leaf_open, make_space
from synthtop.spaces import (NAT, SIERP, Point, Space, SpaceMismatch,
                             apply_fun, check_space, compacts, coproduct, curry,
                             fun_point, function, inj0, inj1,
                             meet, meet_left, meet_point, meet_right,
                             nat_point, opens, overts, pair_point, product,
                             proj1, proj2, read_first, seq_at, seq_point,
                             sequence, sierp_point, sierp_value, subspace,
                             uncurry)

SIERP2 = make_space(2, [0, 0b10, 0b11])
DISC2 = make_space(2, [0, 0b01, 0b10, 0b11])


def sp():
    return finite_repr(SIERP2)


def test_eval_identity_is_extensional():
    s = sp()
    x = finite_point(s, 1)
    assert apply_fun(fun_point(s, s, lambda p: p), x) is x


def test_eval_characteristic_function_on_sierpinski_space():
    u = leaf_open(sp(), 0b10)
    chi = u.as_point()
    out = apply_fun(chi, finite_point(sp(), 1))
    assert sierp_value(out).status(10) is not None
    out0 = apply_fun(chi, finite_point(sp(), 0))
    assert sierp_value(out0).status(10 ** 4) is None


def test_eval_shape_mismatch_is_an_error():
    other = finite_repr(DISC2)
    u = leaf_open(sp(), 0b10)
    with pytest.raises(SpaceMismatch):
        apply_fun(u.as_point(), nat_point(1))
    with pytest.raises(SpaceMismatch):
        apply_fun(u.as_point(), finite_point(other, 1))


def _swap_fun(space):
    f = space.parts[0]

    def swap(p):
        v = read_first(p, 100)
        return finite_point(space, {0: 1, 1: 0}[v])

    return fun_point(product(space, space), space,
                     lambda pr: swap(proj1(pr)))


def test_curry_uncurry_roundtrip_on_sampled_points():
    space = sp()
    f = _swap_fun(space)
    rng = random.Random(2)
    for _ in range(100):
        x = finite_point(space, rng.randrange(2))
        y = finite_point(space, rng.randrange(2))
        direct = apply_fun(f, pair_point(x, y))
        curried = apply_fun(apply_fun(curry(f), x), y)
        again = apply_fun(uncurry(curry(f)), pair_point(x, y))
        assert read_first(direct, 100) == read_first(curried, 100) \
            == read_first(again, 100)


def test_curry_of_uncurry_roundtrip():
    from synthtop.spaces import function
    space = sp()
    g = fun_point(
        space, function(space, space),
        lambda x: fun_point(space, space,
                            lambda y: finite_point(
                                space, read_first(x, 10) & read_first(y, 10))))
    rng = random.Random(8)
    for _ in range(100):
        x = finite_point(space, rng.randrange(2))
        y = finite_point(space, rng.randrange(2))
        direct = apply_fun(apply_fun(g, x), y)
        again = apply_fun(apply_fun(curry(uncurry(g)), x), y)
        assert read_first(direct, 100) == read_first(again, 100)


def test_curry_preserves_acceptance_step_counts():
    # frozen constant: currying is closure plumbing, zero step overhead
    from synthtop.spaces import SIERP
    space = sp()
    u = leaf_open(space, 0b10)
    f = fun_point(product(space, space), SIERP,
                  lambda pr: sierp_point(u.chi(proj1(pr))))
    x, y = finite_point(space, 1), finite_point(space, 0)
    direct = u.chi(x).status(100)
    via = sierp_value(apply_fun(apply_fun(curry(f), x), y))
    assert via.status(100) == direct


class _Payload:
    """A payload that a weak reference can follow."""


def test_function_point_applies_its_transformer_once_per_argument():
    s = sp()
    calls = []

    def image(p):
        calls.append(p)
        return Point(s, _Payload())

    f = fun_point(s, s, image)
    x = finite_point(s, 1)
    twin = Point(s, x.payload)
    fx = apply_fun(f, x)
    assert apply_fun(f, x) is fx
    assert apply_fun(f, twin) is not fx  # arguments are told apart by identity
    assert calls == [x, twin]
    # curry builds the function point of one argument once, so the
    # uncurried map meets each pair once
    pairs = fun_point(product(s, s), s, image)
    g = curry(pairs)
    assert apply_fun(g, x) is apply_fun(g, x)
    assert apply_fun(apply_fun(g, x), twin) is apply_fun(apply_fun(g, x), twin)
    assert len(calls) == 3
    # the images die with their function point: there is no shared table
    kept = weakref.ref(fx.payload)
    del f, fx
    gc.collect()
    assert kept() is None


def test_raising_transformer_raises_on_every_application():
    s = sp()
    calls = []

    def image(p):
        calls.append(p)
        raise LookupError("no image")

    f = fun_point(s, s, image)
    x = finite_point(s, 0)
    for _ in range(3):
        with pytest.raises(LookupError, match="no image"):
            apply_fun(f, x)
    assert calls == [x] * 3


def test_projections_recover_components():
    x, y = nat_point(4), nat_point(9)
    pr = pair_point(x, y)
    assert proj1(pr) is x
    assert proj2(pr) is y


def test_nested_products_associate_extensionally():
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = (nat_point(rng.randrange(20)) for _ in range(3))
        left = pair_point(pair_point(a, b), c)
        right = pair_point(a, pair_point(b, c))
        assert read_first(proj1(proj1(left)), 10) \
            == read_first(proj1(right), 10)
        assert read_first(proj2(proj1(left)), 10) \
            == read_first(proj1(proj2(right)), 10)
        assert read_first(proj2(left), 10) \
            == read_first(proj2(proj2(right)), 10)


def test_coproduct_tags_roundtrip():
    space = sp()
    rng = random.Random(1)
    for _ in range(100):
        tag = rng.randrange(2)
        x = finite_point(space, rng.randrange(2))
        p = inj0(x, space) if tag == 0 else inj1(space, x)
        assert p.payload == (tag, x)


def test_meet_projections_recover_views():
    space = sp()
    m = meet_point(finite_point(space, 1), finite_point(space, 1))
    assert read_first(meet_left(m), 10) == read_first(meet_right(m), 10) == 1


def test_meet_mismatch_detectable_at_oracle_scale():
    space = sp()
    m = meet_point(finite_point(space, 0), finite_point(space, 1))
    assert read_first(meet_left(m), 10) != read_first(meet_right(m), 10)


def test_sequence_projection():
    space = sp()
    const = seq_point(space, lambda n: finite_point(space, 1))
    for n in range(33):
        assert read_first(seq_at(const, n), 10) == 1
    listed = seq_point(space, [finite_point(space, i % 2) for i in range(8)])
    for n in range(8):
        assert read_first(seq_at(listed, n), 10) == n % 2


def test_sequence_computes_each_term_once():
    space = sp()
    calls = []

    def term(n):
        calls.append(n)
        return finite_point(space, n % 2)

    q = seq_point(space, term)
    for _ in range(3):
        for n in (4, 0, 7, 4):
            assert read_first(seq_at(q, n), 10) == n % 2
    assert sorted(calls) == [0, 4, 7]
    # a second point over the same terms keeps its own memo
    seq_at(seq_point(space, term), 4)
    assert sorted(calls) == [0, 4, 4, 7]


def test_listed_sequence_reads_like_its_list():
    space = sp()
    items = [finite_point(space, i % 2) for i in range(5)]
    q = seq_point(space, iter(items))
    assert [seq_at(q, n) for n in range(5)] == items
    assert seq_at(q, -1) is items[-1]
    with pytest.raises(IndexError):
        seq_at(q, 5)


def test_sequence_random_prefixes_roundtrip():
    space = sp()
    rng = random.Random(9)
    vals = [rng.randrange(2) for _ in range(8)]
    q = seq_point(space, [finite_point(space, v) for v in vals])
    assert [read_first(seq_at(q, n), 10) for n in range(8)] == vals


def test_projection_is_lazy_in_the_other_component():
    # frozen overhead constant: zero steps of the sibling's generator
    from synthtop.kernel import literal_name
    left = literal_name([3], tail=3)
    right = literal_name([8], tail=8)
    space = sp()
    pr = pair_point(Point(space, left), Point(space, right))
    read_first(proj1(pr), 50)
    assert right.steps == 0


# --- interned shapes ------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda x, y: product(x, y), lambda x, y: coproduct(x, y),
    lambda x, y: meet(x, y), lambda x, y: function(x, y),
    lambda x, y: sequence(x), lambda x, y: opens(x),
    lambda x, y: overts(x), lambda x, y: compacts(x),
    lambda x, y: product(product(x, y), opens(y))])
def test_constructors_return_one_object_per_shape(build):
    x, y = sp(), finite_repr(DISC2)
    first = build(x, y)
    assert build(x, y) is first
    assert build(finite_repr(SIERP2), finite_repr(DISC2)) is first
    assert build(y, x) is not first


def test_opens_is_the_function_space_into_sierpinski():
    x = sp()
    assert opens(x) is function(x, SIERP)
    assert function(NAT, SIERP) is opens(NAT)
    assert repr(function(NAT, SIERP)) == "O(N)"
    assert repr(function(NAT, NAT)) == "C(N,N)"


def test_opens_and_compacts_read_the_interned_shapes():
    x, y = Space("probe", label="P"), Space("probe", label="Q")
    o = function(x, SIERP)  # made before opens(x) is asked for
    assert opens(x) is o and opens(x) is o
    k = compacts(y)  # made by compacts itself
    assert compacts(y) is k and y.derived[("compacts", None)] is k
    assert opens(y) is function(y, SIERP) and compacts(x) is not k


def test_points_of_one_shape_pass_the_identity_check():
    x = sp()
    pr = pair_point(finite_point(x, 0), finite_point(x, 1))
    check_space(pr, product(x, x))
    with pytest.raises(SpaceMismatch):
        check_space(pr, product(x, finite_repr(DISC2)))


def test_subspaces_with_different_predicates_are_different_spaces():
    x = sp()

    def keep(p):
        return True

    def also_keep(p):
        return True

    assert subspace(x, keep) is subspace(x, keep)
    z = Point(subspace(x, keep), finite_point(x, 1).payload)
    check_space(z, subspace(x, keep))
    with pytest.raises(SpaceMismatch):
        check_space(z, subspace(x, also_keep))
