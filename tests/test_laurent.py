import pickle
import random

import pytest

from klcells import kl
from klcells.laurent import (
    MonomialOrder,
    MonomialSpace,
    lex_order,
    padd_into,
    pbar,
    pmul,
    pneg,
    poly_from_terms,
    poly_json,
    poly_text,
    psub,
    split,
    symmetrize_nonneg,
)

from conftest import system


def is_bar_invariant(p, space):
    return p == pbar(p, space)


def padd(p, q):
    out = dict(p)
    padd_into(out, q)
    return out


def compare(order, m1, m2):
    """-1, 0, +1 as m1 <, ==, > m2."""
    if m1 == m2:
        return 0
    return order.sign(order.space.mul(m1, order.space.inv(m2)))


def rand_poly(rng, space, nterms=5, span=6, coeff=9):
    return poly_from_terms(space, [
        (tuple(rng.randint(-span, span) for _ in range(space.rank)),
         rng.randint(-coeff, coeff))
        for _ in range(rng.randint(0, nterms))
    ])


def test_pack_roundtrip():
    space = MonomialSpace(2)
    for exps in [(0, 0), (3, -5), (-100, 100), (24, 24)]:
        assert space.unpack(space.pack(exps)) == exps
    m1 = space.pack((2, -1))
    m2 = space.pack((-3, 4))
    assert space.unpack(space.mul(m1, m2)) == (-1, 3)
    assert space.unpack(space.inv(m1)) == (-2, 1)
    with pytest.raises(ValueError):
        space.pack((1 << 13, 0))


def test_rank_one_unbounded():
    space = MonomialSpace(1)
    big = 10 ** 9
    assert space.pack((big,)) == big
    assert space.mul(3, 4) == 7 and space.inv(5) == -5


def test_ring_axioms_randomized():
    rng = random.Random(20240)
    for rank in (1, 2, 3):
        space = MonomialSpace(rank)
        one = space.one
        for _ in range(40):
            p, q, r = (rand_poly(rng, space) for _ in range(3))
            assert pmul(p, q, one) == pmul(q, p, one)
            assert pmul(pmul(p, q, one), r, one) == pmul(p, pmul(q, r, one), one)
            assert pmul(padd(p, q), r, one) == padd(pmul(p, r, one),
                                                    pmul(q, r, one))
            assert psub(padd(p, q), q) == p


def test_bar_involution():
    rng = random.Random(7)
    space = MonomialSpace(2)
    p = poly_from_terms(space, [((2, -1), 1), ((0, 0), 3)])
    assert pbar(p, space) == poly_from_terms(space, [((-2, 1), 1), ((0, 0), 3)])
    assert pbar({}, space) == {}
    for _ in range(25):
        p, q = rand_poly(rng, space), rand_poly(rng, space)
        assert pbar(pbar(p, space), space) == p
        assert pbar(pmul(p, q, space.one), space) == \
            pmul(pbar(p, space), pbar(q, space), space.one)


def test_order_validation():
    space = MonomialSpace(2)
    with pytest.raises(ValueError):
        MonomialOrder(space, [(1, 0)])            # rank deficient
    with pytest.raises(ValueError):
        MonomialOrder(space, [(1, 1), (2, 2)])
    MonomialOrder(space, [(1, 1), (2, 2), (0, 1)])  # redundant rows are fine


def test_lex_and_weighted_comparisons():
    space = MonomialSpace(2)
    # y-dominant lexicographic order: x^-5 y is positive
    order = MonomialOrder(space, [(0, 1), (1, 0)])
    assert order.sign(space.pack((-5, 1))) > 0
    # weighted order with tiebreak: x^-2 y has functional value 0, i < 0
    order = MonomialOrder(space, [(1, 2), (1, 0)])
    m = space.pack((-2, 1))
    assert order.sign(m) < 0
    assert compare(order, m, space.one) < 0
    assert compare(order, m, m) == 0


def test_order_properties_randomized():
    rng = random.Random(99)
    space = MonomialSpace(2)
    for fs in ([(1, 0), (0, 1)], [(2, 5), (0, 1)], [(1, 1), (1, 0)]):
        order = MonomialOrder(space, fs)
        monos = [space.pack((rng.randint(-9, 9), rng.randint(-9, 9)))
                 for _ in range(60)]
        for m in monos:
            s = order.sign(m)
            assert order.sign(space.inv(m)) == -s
        # translation invariance and multiplicative closure of the cone
        for m1, m2 in zip(monos, monos[1:]):
            d = space.pack((rng.randint(-5, 5), rng.randint(-5, 5)))
            assert compare(order, m1, m2) == \
                compare(order, space.mul(m1, d), space.mul(m2, d))
            if order.sign(m1) > 0 and order.sign(m2) > 0:
                assert order.sign(space.mul(m1, m2)) > 0
        # sort key agrees with comparison
        ordered = sorted(monos, key=order.key)
        for a, b in zip(ordered, ordered[1:]):
            assert compare(order, a, b) <= 0


def direct_sign(order, m):
    """Sign of m under the order, from the functional stack alone."""
    exps = order.space.unpack(m)
    for f in order.functionals:
        v = sum(c * e for c, e in zip(f, exps))
        if v:
            return 1 if v > 0 else -1
    return 0


@pytest.mark.parametrize("fs", [
    [(2, -5), (1, 1)],
    [(1, 1), (3, -1)],
    [(1, 2, -1), (0, 1, 3), (1, 0, 0)],
    [(0, 1, 1), (2, -1, 0), (1, 1, -4)],
])
def test_sign_memo_matches_functionals(fs):
    rng = random.Random(7)
    space = MonomialSpace(len(fs))
    order = MonomialOrder(space, fs)
    monos = [space.pack(tuple(rng.randint(-6, 6) for _ in fs))
             for _ in range(300)] + [space.one]
    # the second pass over each monomial is served from the memo
    for _ in range(2):
        assert [order.sign(m) for m in monos] == \
            [direct_sign(order, m) for m in monos]
    copy = pickle.loads(pickle.dumps(order))
    fresh = [space.pack(tuple(rng.randint(-6, 6) for _ in fs))
             for _ in range(100)]
    for m in monos + fresh:
        assert copy.sign(m) == direct_sign(copy, m) == direct_sign(order, m)


def test_split():
    space = MonomialSpace(2)
    order = lex_order(space)
    vs = (1, 0)
    p = poly_from_terms(space, [(vs, 1), ((-1, 0), -1)])
    pos, const, neg = split(p, order)
    assert pos == poly_from_terms(space, [(vs, 1)])
    assert const == 0
    assert neg == poly_from_terms(space, [((-1, 0), -1)])
    assert split(poly_from_terms(space, [((0, 0), 3)]), order) == ({}, 3, {})
    # dihedral M under lexicographic order with x dominant
    m = poly_from_terms(space, [((1, -1), 1), ((-1, 1), 1)])
    pos, const, neg = split(m, order)
    assert pos == poly_from_terms(space, [((1, -1), 1)]) and const == 0
    # reassembly
    rng = random.Random(5)
    for _ in range(20):
        p = rand_poly(rng, space)
        pos, const, neg = split(p, order)
        total = padd(padd(pos, neg), {space.one: const} if const else {})
        assert total == p


def test_symmetrize_nonneg():
    space = MonomialSpace(2)
    order = lex_order(space)
    gamma = (2, 1)
    q = poly_from_terms(space, [(gamma, 1), ((-3, 0), 7)])
    m = symmetrize_nonneg(q, order)
    assert m == poly_from_terms(space, [(gamma, 1), ((-2, -1), 1)])
    assert is_bar_invariant(m, space)
    assert symmetrize_nonneg(poly_from_terms(space, [((-1, 2), 4)]), order) == {}
    q = poly_from_terms(space, [((0, 0), 1), ((-1, 0), 1)])
    assert symmetrize_nonneg(q, order) == poly_from_terms(space, [((0, 0), 1)])
    # difference with the input is supported strictly below 1
    rng = random.Random(11)
    for _ in range(30):
        q = rand_poly(rng, space)
        m = symmetrize_nonneg(q, order)
        assert is_bar_invariant(m, space)
        for mono in psub(m, q):
            assert order.sign(mono) < 0


def test_text_and_json_forms():
    space = MonomialSpace(2)
    order = lex_order(space)
    p = poly_from_terms(space, [((2, -1), 1), ((0, 0), 3), ((-1, 1), -2)])
    assert poly_text(space, p, order) == "x^2*y^-1 + 3 - 2*x^-1*y"
    assert poly_json(space, p, order) == [[[2, -1], 1], [[0, 0], 3],
                                          [[-1, 1], -2]]
    assert poly_text(space, {}, order) == "0"
    space1 = MonomialSpace(1)
    assert poly_text(space1, {-1: 1}, lex_order(space1)) == "v^-1"


def direct_key(order, m):
    """Sort key of m, from the functional stack alone."""
    exps = order.space.unpack(m)
    return tuple(sum(c * e for c, e in zip(f, exps))
                 for f in order.functionals)


def test_all_negative_and_key_memo_match_functionals():
    # every polynomial of a two-variable B3 run, under the run's order
    # (all P* below 1, M mixed) and under an order whose leading
    # functional is negative on one class (mixed answers for both)
    sys = system("B3")
    space, params = kl.class_params(sys)
    run_order = MonomialOrder(space, [(1, 2), (1, 0)])
    data = kl.compute_kl(sys, params, run_order)
    polys = [p for row in data.rows for p in row.values()]
    polys.extend(data.mu.values())
    for order in (run_order, MonomialOrder(space, [(2, -5), (1, 1)])):
        answers = set()
        for _ in range(2):      # the second pass is served from the memos
            for p in polys:
                want = all(direct_sign(order, m) < 0 for m in p)
                assert order.all_negative(p) == want
                answers.add(want)
                for m in p:
                    assert order.key(m) == direct_key(order, m)
        assert answers == {True, False}
        assert order.negatives == {m for m, s in order._signs.items()
                                   if s < 0}


def test_all_negative_signs_monomials_it_has_not_seen():
    space = MonomialSpace(2)
    order = MonomialOrder(space, [(1, 2), (1, 0)])
    below = space.pack((-1, 0))
    assert order.all_negative({below: 1})
    # a monomial never signed is signed, not taken as negative
    for exps, want in [((-1, 1), False), ((0, 0), False), ((1, -1), True)]:
        m = space.pack(exps)
        assert m not in order._signs
        assert order.all_negative({below: 2, m: -1}) is want
        assert order._signs[m] == direct_sign(order, m)
        assert (m in order.negatives) is want
    assert order.all_negative({}) is True
