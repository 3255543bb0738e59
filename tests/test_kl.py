import tracemalloc
from dataclasses import replace

import pytest

from klcells import cli, kl
from klcells.laurent import (
    MonomialOrder,
    MonomialSpace,
    lex_order,
    padd_into,
    pbar,
    pmul,
    pneg,
    poly_from_terms,
    pscale,
    psub,
)

from conftest import system


def generic_run(name, functionals=None):
    sys = system(name)
    space, params = kl.class_params(sys)
    if functionals is None:
        order = lex_order(space)
    else:
        order = MonomialOrder(space, functionals)
    return sys, space, order, kl.compute_kl(sys, params, order)


def dihedral_p_expected(sys, space, y, w):
    """Closed form for P_{y,w} = v_w v_y^-1 P*_{y,w}, lex order v_s > v_t."""
    s, t = 0, 1
    length = sys.length
    left = sys.cayley_left
    right = sys.cayley_right
    word_w = sys.words[w]
    m_s = sum(1 for g in word_w if g == s) - sum(1 for g in sys.words[y] if g == s)
    m_t = len(word_w) - sum(1 for g in word_w if g == s) \
        - (len(sys.words[y]) - sum(1 for g in sys.words[y] if g == s))
    tw = left[t][w]
    wt = right[t][w]
    sw = left[s][w]
    ws = right[s][w]
    tsw = left[t][left[s][w]]
    stw = left[s][left[t][w]]
    if length[tw] > length[w] and length[wt] > length[w] \
            and length[tsw] < length[sw] and sys.bruhat_leq(y, tsw):
        return {space.pack((0, 2 * i)): (-1) ** i for i in range(m_t + 1)}
    if length[sw] > length[w] and length[ws] > length[w] \
            and length[stw] < length[tw] and sys.bruhat_leq(y, stw):
        return poly_from_terms(space, [((0, 0), 1), ((0, 2), 1)])
    return {space.one: 1}


@pytest.mark.parametrize("m", [4, 6, 8])
def test_dihedral_closed_forms(m):
    sys, space, order, data = generic_run(f"I2:{m}")
    one = space.one
    v = data.v_elem
    for w in range(sys.size):
        for y in data.rows[w]:
            if y == w:
                continue
            shift = v[w] + space.inv(v[y]) - one
            p_norm = pscale(data.rows[w][y], 1, shift, one)
            assert p_norm == dihedral_p_expected(sys, space, y, w), (y, w)
    # M closed form for the heavy generator s: gap 1 gives v_s/v_t + v_t/v_s,
    # gap 3 gives 1, everything else vanishes; all M for t vanish
    gap1 = poly_from_terms(space, [((1, -1), 1), ((-1, 1), 1)])
    gap3 = {one: 1}
    for (s, y, w), m_poly in data.mu.items():
        assert s == 0
        gap = sys.length[w] - sys.length[y]
        assert m_poly == (gap1 if gap == 1 else gap3)
        assert gap in (1, 3)
    count1 = sum(1 for (s, y, w) in data.mu
                 if sys.length[w] - sys.length[y] == 1)
    count3 = len(data.mu) - count1
    assert count1 == m - 2 and count3 == max(0, m - 4)


def test_p_diagonal_is_one():
    for name in ("A2", "B3"):
        sys, space, order, data = generic_run(name)
        for w in range(sys.size):
            assert data.rows[w][w] == {space.one: 1}


@pytest.mark.parametrize("name,stacks", [
    ("I2:4", [[(1, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 2), (0, 1)]]),
    ("I2:6", [[(1, 0), (0, 1)], [(0, 1), (1, 0)], [(2, 1), (0, 1)]]),
    ("B3", [[(1, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 3), (1, 0)]]),
])
def test_oracle_agreement(name, stacks):
    sys = system(name)
    space, params = kl.class_params(sys)
    for fs in stacks:
        order = MonomialOrder(space, fs)
        data = kl.compute_kl(sys, params, order)
        oracle = kl.oracle_kl(sys, params, order)
        assert kl.tables_equal(data, oracle), (name, fs)


def test_oracle_agreement_a3_embedded():
    # one generator class: embed the single parameter into a rank-2 group
    # so that three genuinely different order objects can be exercised
    sys = system("A3")
    space = MonomialSpace(2)
    params = tuple(space.pack((1, 0)) for _ in range(sys.rank))
    for fs in ([(1, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 1), (1, 0)]):
        order = MonomialOrder(space, fs)
        data = kl.compute_kl(sys, params, order)
        oracle = kl.oracle_kl(sys, params, order)
        assert kl.tables_equal(data, oracle), fs


def test_tables_equal_sees_a_replaced_and_an_extra_entry():
    sys, space, order, data = generic_run("B3")
    assert kl.tables_equal(data, replace(data, rows=[dict(r) for r in
                                                    data.rows]))
    w = sys.longest
    y = next(y for y in data.rows[w] if y != w)
    # one P* entry replaced; one entry P*_{s,1} that no table holds
    for w, y, p in ((w, y, pneg(data.rows[w][y])), (0, 1, {space.one: -1})):
        rows = [dict(r) for r in data.rows]
        rows[w][y] = p
        assert not kl.tables_equal(data, replace(data, rows=rows)), (w, y)


def test_oracle_guard(b4):
    space, params = kl.class_params(b4)
    with pytest.raises(ValueError):
        kl.oracle_kl(b4, params, lex_order(space))


def weight_run(name, weight):
    sys = system(name)
    space, params, order = kl.weight_params(sys, weight)
    return sys, space, order, kl.compute_kl(sys, params, order)


def check_r_table(sys, space, data):
    rtab = kl.compute_r(sys, data.params, space)
    one = space.one
    for y in range(sys.size):
        assert rtab[(y, y)] == {one: 1}
    s_elt = sys.word_to_element((0,))
    vs = data.params[0]
    assert rtab[(0, s_elt)] == {vs: 1, space.inv(vs): -1}
    # independent oracle: bar(T_y) = (T_{y^-1})^-1 expanded by repeated
    # left multiplication with T_g^-1 = T_g - (v_g - v_g^-1)
    def expand_inverse(word):
        vec = {0: {one: 1}}
        for g in word:
            vg = data.params[g]
            out = {}
            for x, p in vec.items():
                gx = sys.cayley_left[g][x]
                q = out.setdefault(gx, {})
                padd_into(q, p)
                if not q:
                    del out[gx]
                if sys.length[gx] > sys.length[x]:
                    corr = pscale(p, -1, vg, one)
                    padd_into(corr, pscale(p, 1, space.inv(vg), one))
                    q = out.setdefault(x, {})
                    padd_into(q, corr)
                    if not q:
                        del out[x]
            vec = out
        return vec

    for y in range(sys.size):
        expansion = expand_inverse(tuple(reversed(sys.words[y])))
        want = {x: pbar(rtab[(x, y)], space) for x in range(sys.size)
                if (x, y) in rtab}
        assert expansion == want, y


def test_r_polynomials():
    # one parameter per generator class on A2, and weights on B3
    for sys, space, order, data in (generic_run("A2"),
                                    weight_run("B3", (2, 1, 1))):
        check_r_table(sys, space, data)


def test_r_normalization():
    # v_y v_x^-1 R_{x,y} is a polynomial in the v^2 with the sign of the
    # length gap as constant term
    sys, space, order, data = generic_run("B3")
    rtab = kl.compute_r(sys, data.params, space)
    v = data.v_elem
    one = space.one
    for (x, y), r in rtab.items():
        shift = v[y] + space.inv(v[x]) - one
        const = 0
        for m, c in r.items():
            exps = space.unpack(m + shift - one)
            assert all(e >= 0 and e % 2 == 0 for e in exps), (x, y)
            if not any(exps):
                const = c
        assert const == (-1) ** (sys.length[y] - sys.length[x])


def verify_bar_identity(data, rtab=None, pairs=None):
    """Check bar(P*)_{x,w} - P*_{x,w} = sum R_{x,y} P*_{y,w} for x < w.

    ``pairs`` restricts the check (default: every stored pair).  This
    entry-by-entry form is the independent reference for
    :func:`kl.verify_bar_identity_full`.
    """
    sys, space, one = data.sys, data.space, data.space.one
    report = kl.CheckReport("bar-identity")
    if pairs is None:
        pairs = [(x, w) for w in range(sys.size) for x in data.rows[w]
                 if x != w]
    by_w = {}
    for x, w in pairs:
        by_w.setdefault(w, []).append(x)
    if rtab is None:
        rtab = kl.compute_r(sys, data.params, space)
    for w, xs in by_w.items():
        row = data.rows[w]
        for x in xs:
            acc = {}
            for y, p in row.items():
                if y == x:
                    continue
                r = rtab.get((x, y))
                if r:
                    padd_into(acc, pmul(r, p, one))
            pxw = row.get(x, {})
            lhs = psub(pbar(pxw, space), pxw)
            report.checked += 1
            if lhs != acc:
                report.violations.append((x, w))
    return report


def test_bar_identity_dict_and_sparse():
    for name in ("I2:4", "A3"):
        sys, space, order, data = generic_run(name)
        rep = verify_bar_identity(data)
        assert rep.ok and rep.checked > 0
        rep = kl.verify_bar_identity_full(data)
        assert rep.ok
    # weight mode too
    sys = system("B3")
    _, w, order = kl.weight_params(sys, (2, 1, 1))
    data = kl.compute_kl(sys, w, order)
    assert kl.verify_bar_identity_full(data).ok


def reference_slices(data):
    """Monomials at which bar(P) = R * P fails, from the dict-based check.

    Every pair x != w is checked; for each flagged pair the monomials of
    R * P - bar(P) at (x, w) are the violated slices.
    """
    sys, space, one = data.sys, data.space, data.space.one
    rtab = kl.compute_r(sys, data.params, space)
    n = sys.size
    pairs = [(x, w) for w in range(n) for x in range(n) if x != w]
    rep = verify_bar_identity(data, rtab, pairs)
    monos = set()
    for x, w in rep.violations:
        acc = {}
        for y, p in data.rows[w].items():
            padd_into(acc, pmul(rtab.get((x, y), {}), p, one))
        monos.update(psub(acc, pbar(data.rows[w].get(x, {}), space)))
    return [("slice", space.unpack(m)) for m in sorted(monos,
                                                         key=data.order.key)]


@pytest.mark.parametrize("name, weight, functionals", [
    ("B3", (2, 1, 1), None),
    ("B3", None, ((1, 2), (1, 0))),
    ("I2:6", None, None),
    ("A1xA2", None, None),
    ("G2", None, ((1, 3), (1, 0))),
])
def test_full_bar_check_flags_the_reference_slices(name, weight,
                                                   functionals):
    if weight is None:
        sys, space, order, good = generic_run(name, functionals)
    else:
        sys, space, order, good = weight_run(name, weight)
    assert kl.verify_bar_identity_full(good).ok
    assert reference_slices(good) == []
    # corrupt one entry P*_{y,w0} with y of middle length: the identity
    # then fails at (x, w0) for every x <= y, in several slices
    w0 = sys.longest
    y = next(y for y in sorted(good.rows[w0], key=sys.length.__getitem__)
             if 2 * sys.length[y] >= sys.length[w0])
    p = good.rows[w0][y]
    low = min(p, key=order.key)
    rows = [dict(row) for row in good.rows]
    rows[w0][y] = {**p, low: p[low] + 1}
    bad = kl.KLData(sys=sys, space=space, params=good.params, order=order,
                    rows=rows, mu=dict(good.mu))
    rep = kl.verify_bar_identity_full(bad)
    assert len(rep.violations) > 1
    assert rep.violations == reference_slices(bad)
    assert rep.checked == kl.verify_bar_identity_full(good).checked


def test_full_bar_check_overflow_guard_bounds_every_partial_sum():
    # scale the P* coefficients so that the old guard rmax * pmax * n
    # passes while n * max ||R_{x,y}||_1 * pmax reaches int64
    sys, space, order, good = generic_run("B3")
    n = sys.size
    rtab = kl.compute_r(sys, good.params, space)
    rmax = max(abs(c) for r in rtab.values() for c in r.values())
    rnorm = max(sum(map(abs, r.values())) for r in rtab.values())
    pmax = max(abs(c) for row in good.rows for p in row.values()
               for c in p.values())
    k = -(-2 ** 63 // ((n * rnorm + 1) * pmax))
    assert rmax * k * pmax * n < 2 ** 62
    assert (n * rnorm + 1) * k * pmax >= 2 ** 63
    rows = [{y: {m: k * c for m, c in p.items()} for y, p in row.items()}
            for row in good.rows]
    scaled = kl.KLData(sys=sys, space=space, params=good.params,
                       order=order, rows=rows, mu={})
    with pytest.raises(OverflowError):
        kl.verify_bar_identity_full(scaled)


def test_full_bar_check_memory_on_b4():
    # R is held as its 299 distinct polynomials, not as its 418,737
    # terms; scipy is imported before the measurement starts
    from scipy import sparse  # noqa: F401

    sys, space, order, data = weight_run("B4", (5, 2, 2, 2))
    tracemalloc.start()
    try:
        rep = kl.verify_bar_identity_full(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.checked == sum(map(len, data.rows))
    assert peak < 24 * 2 ** 20


def test_lemma_suites():
    for name in ("I2:6", "A3", "B3"):
        sys, space, order, data = generic_run(name)
        assert kl.check_lemma_p(data).ok
        assert kl.check_lemma_m(data).ok
        rep = kl.check_bounds(data)
        assert rep.ok
        bound = rep.notes["strict_bound"]
        assert bound == sys.length[sys.longest]
        assert all(abs(v) <= bound for v in rep.notes["min_exponents"])


def test_mu_bar_invariance_and_pattern():
    sys, space, order, data = generic_run("B3")
    for (s, y, w), m_poly in data.mu.items():
        assert pbar(m_poly, space) == m_poly
        assert sys.length[sys.cayley_left[s][y]] < sys.length[y]
        assert sys.length[sys.cayley_left[s][w]] > sys.length[w]
        assert sys.bruhat_leq(y, w) and y != w


def test_invalid_params_rejected(i24):
    space, params = kl.class_params(i24)
    order = lex_order(space)
    with pytest.raises(ValueError):
        kl.compute_kl(i24, (params[0], space.inv(params[1])), order)
    with pytest.raises(ValueError):
        kl.weight_params(i24, (1, 0))
    with pytest.raises(ValueError):
        kl.weight_params(system("A2"), (1, 2))  # not constant on the class


def test_weight_mode_matches_specialized_order_mode(i26):
    # the same table through two routes: lex order then specialize, versus
    # the direct single-variable computation
    from klcells import weights

    space, params = kl.class_params(i26)
    order = lex_order(space)
    odata = kl.compute_kl(i26, params, order)
    _, w, worder = kl.weight_params(i26, (3, 1))
    wdata = kl.compute_kl(i26, w, worder)
    rep = weights.specialization_consistency(odata, wdata, (3, 1))
    assert rep.ok and rep.checked > 50


def test_a_base_needs_the_run_parameters_or_one_variable_per_class(b3):
    _, params, order = kl.weight_params(b3, (2, 1, 1))
    base = kl.compute_kl(b3, kl.weight_params(b3, (3, 1, 1))[1], order)
    with pytest.raises(ValueError, match="a base run needs the same"):
        kl.compute_kl(b3, params, order, base=base)


@pytest.mark.parametrize("weight, equal", [
    ((5, 2, 2, 2), 383), ((1, 1, 1, 1), 180)], ids=["inside", "breakpoint"])
def test_weight_run_on_an_order_base_at_its_ratio(b4, monkeypatch, weight,
                                                  equal):
    # a weight run whose base is an order run at its own ratio, one
    # variable per class, carries the base to the weight once (with
    # kl.specialized) and equals the run without a base; each of its rows
    # equal to the image's, taken or computed, is the image's object;
    # (5, 2, 2, 2) lies inside 0 < b/a < 1/2, where the order certifies
    # the weight, and (1, 1, 1, 1) at the breakpoint b/a = 1
    from klcells import weights

    space, params = kl.class_params(b4)
    base = kl.compute_kl(b4, params, weights.weighted_order(
        space, kl.class_weights_of(b4, weight), 0))
    _, params, order = kl.weight_params(b4, weight)
    specialized, images = kl.specialized, []

    def recording(*args, **kwargs):
        images.append(specialized(*args, **kwargs))
        return images[-1]

    monkeypatch.setattr(kl, "specialized", recording)
    data = kl.compute_kl(b4, params, order, base=base)
    plain = kl.compute_kl(b4, params, order)
    assert data.rows == plain.rows
    assert list(data.mu.items()) == list(plain.mu.items())
    [image] = images
    same = [u for u in range(1, b4.size) if data.rows[u] == image.rows[u]]
    assert len(same) == equal
    assert all(data.rows[u] is image.rows[u] for u in same)


def test_specialized_tables_carry_v_w(b3):
    # the image of an order run at a weight it certifies has the weight
    # run's v_w, and the normalization and bound checks read the same
    # verdicts and counts from it as from the weight run's own tables
    from test_weights import certified_b3_pair

    odata, wdata, cw = certified_b3_pair(b3)
    image = kl.specialized(odata, cw)
    assert image.v_elem == wdata.v_elem
    for check in (kl.check_lemma_p, kl.check_lemma_m, kl.check_bounds):
        got, want = check(image), check(wdata)
        assert (got.ok, got.checked) == (want.ok, want.checked)
        assert got.ok and got.checked > 0


@pytest.mark.parametrize("name, before, after", [
    ("I2:6", ((1, 2), (1, 0)), ((2, 1), (0, 1))),
    ("I2:8", ((0, 1), (1, 0)), ((1, 0), (0, 1))),
    ("A2xA2", ((3, 1), (0, 1)), ((1, 3), (1, 0))),
    ("I2:8", (3, 1), (1, 3)),
])
def test_automorphic_image_equals_a_direct_compute(name, before, after):
    # the tables of an order run (functionals ``before``) or a weight run
    # carried through the class swap are those computed directly with
    # the swapped functionals, resp. the swapped weights ``after``
    sys = system(name)
    perm = next(p for p in sys.diagram_automorphisms()
                if sys.class_of_gen[p[0]] != sys.class_of_gen[0])
    if isinstance(before[0], tuple):
        space, params = kl.class_params(sys)
        runs = [(params, MonomialOrder(space, f)) for f in (before, after)]
    else:
        runs = [kl.weight_params(sys, w)[1:] for w in (before, after)]
    data, direct = (kl.compute_kl(sys, *run) for run in runs)
    image = kl.automorphic_image(data, perm, sys.element_map_for_auto(perm))
    assert image.params == direct.params
    assert image.order.functionals == direct.order.functionals
    assert image.rows == direct.rows and image.mu == direct.mu
    assert image.v_elem == direct.v_elem


@pytest.mark.parametrize("name, weight", [
    ("B3", None), ("B3", (2, 1, 1)), ("B4", None), ("B4", (5, 2, 2, 2)),
])
def test_rows_share_one_object_per_distinct_polynomial(name, weight):
    if weight is None:
        data = generic_run(name, ((1, 2), (1, 0)))[3]
    else:
        sys = system(name)
        _, params, order = kl.weight_params(sys, weight)
        data = kl.compute_kl(sys, params, order)
    polys = [p for row in data.rows for p in row.values()]
    polys.extend(data.mu.values())
    by_content = {}
    for p in polys:
        by_content.setdefault(frozenset(p.items()), set()).add(id(p))
    assert all(len(ids) == 1 for ids in by_content.values())
    assert len({id(p) for p in polys}) == len(by_content) < len(polys)


def test_checks_report_every_entry_of_a_shared_polynomial():
    # one bad polynomial object stored at three entries: two with the
    # same (y, w) shift, one with another; the id memos of the checks
    # must still report each entry.  The shared P*_{1,s1} = v^-1 is also
    # stored at (1, w0), where its shift makes it fail the lemma.
    sys = system("A2")
    space, params, order = kl.weight_params(sys, (1, 1))
    good = kl.compute_kl(sys, params, order)
    bad = {space.pack((-100,)): 3}
    w0 = sys.longest
    s1, s2 = sys.word_to_element((0,)), sys.word_to_element((1,))
    rows = [dict(row) for row in good.rows]
    rows[w0][s1] = rows[w0][s2] = rows[s2][0] = bad
    rows[w0][0] = rows[s1][0]
    data = kl.KLData(sys=sys, space=space, params=params, order=order,
                     rows=rows, mu=dict(good.mu))
    lemma = kl.check_lemma_p(data)
    assert sorted(lemma.violations) == \
        sorted([(s1, w0), (s2, w0), (0, s2), (0, w0)])
    assert lemma.checked == kl.check_lemma_p(good).checked
    bounds = kl.check_bounds(data)
    assert sorted(tag for tag, _ in bounds.violations) == \
        sorted([("P", s1, w0), ("P", s2, w0), ("P", 0, s2)])
    assert all(exps == (-100,) for _, exps in bounds.violations)
    assert kl.check_lemma_p(good).ok and kl.check_bounds(good).ok


def _with_extra_monomial(data, exps):
    """A copy of ``data`` whose first off-diagonal P* entry of w0 gains
    the monomial with exponents ``exps``, and that entry's key."""
    space, w0 = data.space, data.sys.longest
    y = next(y for y in data.rows[w0] if y != w0)
    rows = list(data.rows)
    rows[w0] = dict(rows[w0])
    rows[w0][y] = {**rows[w0][y], space.pack(exps): 1}
    return replace(data, rows=rows), ("P", y, w0)


def test_one_variable_bound_is_attained_and_not_exceeded():
    sys = system("B3")
    data = kl.compute_kl(sys, *kl.weight_params(sys, (2, 1, 1))[1:])
    rep = kl.check_bounds(data)
    assert rep.ok and rep.notes["strict_bound"] == 12
    assert rep.notes["min_exponents"] == [-12]
    bad, key = _with_extra_monomial(data, (-13,))
    assert kl.check_bounds(bad).violations == [(key, (-13,))]


def test_two_variable_bound_is_strict():
    data = generic_run("B3")[3]
    assert kl.check_bounds(data).notes["strict_bound"] == 9
    bad, key = _with_extra_monomial(data, (-9, 0))
    assert kl.check_bounds(bad).violations == [(key, (-9, 0))]
    assert kl.check_bounds(_with_extra_monomial(data, (-8, 0))[0]).ok


def lower_flags(sys, s):
    """lower[x]: whether s is a left descent of x."""
    left_s, length = sys.cayley_left[s], sys.length
    return [length[left_s[x]] < length[x] for x in range(sys.size)]


def test_absent_entry_gets_the_negated_product():
    # plant an entry z in rows[y] that the expansion of C_u never reaches:
    # it must come out as -M^s_{y,w} * P, and the cached product must stay
    # the positive product
    sys, space, order, data = generic_run("A3")
    one = space.one
    (s, y, w), m_poly = next(iter(sorted(data.mu.items())))
    u = sys.cayley_left[s][w]
    z = sys.longest
    lower = lower_flags(sys, s)
    assert z not in data.rows[u] and z != y and lower[z]
    planted = {space.pack((-1,)): 2, space.pack((-3,)): -1}
    rows = list(data.rows)
    rows[y] = {**rows[y], z: planted}
    products = {}
    half, mu_local = kl._half_row(sys, rows, s, u, order, data.params[s],
                                  lower, lambda p: p, products)
    assert mu_local[y] == m_poly
    expected = pmul(m_poly, planted, one)
    assert half[z] == {m: -c for m, c in expected.items()}
    assert products[id(mu_local[y])][id(planted)] == expected
    assert {x: p for x, p in half.items() if x != z} == \
        {x: p for x, p in data.rows[u].items() if lower[x]}


def test_interner_keeps_hash_colliding_polynomials_apart():
    # hash(-1) == hash(-2) in CPython, so v^-1 and v^-2 have one hash
    v1, v2 = {-1: 1}, {-2: 1}
    assert hash(frozenset(v1.items())) == hash(frozenset(v2.items()))
    intern = kl._interner()
    assert intern(v1) is v1 and intern(v2) is v2
    p = {-3: 2, -1: 1}
    assert intern(p) is p
    assert intern({-1: 1, -3: 2}) is p
    assert intern({-2: 1}) is v2 and intern({-1: 1}) is v1


def test_compute_kl_stores_colliding_polynomials_apart():
    sys, space, order, data = weight_run("B3", (2, 1, 1))
    found = {}
    for row in data.rows:
        for p in row.values():
            if p in ({-1: 1}, {-2: 1}):
                assert found.setdefault(min(p), p) is p
    assert set(found) == {-1, -2}
    assert found[-1] == {-1: 1} and found[-2] == {-2: 1}


def test_compute_kl_temporary_memory_on_b4():
    # the caches of the computation (intern table, products, shifts) stay
    # small next to the tables they build: measured 1.44 times the memory
    # held after the call, 1.65 with frozenset intern keys and tuple
    # product keys
    sys = system("B4")
    space, params, order = kl.weight_params(sys, (5, 2, 2, 2))
    tracemalloc.start()
    try:
        data = kl.compute_kl(sys, params, order)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data.rows) == sys.size
    assert peak < 1.55 * held, (peak, held)


@pytest.mark.parametrize("name,weight,functionals", [
    ("B3", (2, 1, 1), None),
    ("B4", (5, 2, 2, 2), None),
    ("B4", None, [(1, 2), (1, 0)]),
    ("F4", (1, 1, 2, 2), None),
], ids=["B3-weight", "B4-weight", "B4-order", "F4-weight"])
def test_rows_satisfy_every_left_descent_relation(name, weight, functionals):
    # T_s C_u = v_s C_u for every left descent s of u: the support of
    # row u is closed under y -> sy and P*_{y,u} = v_s^-1 P*_{sy,u}
    # whenever sy > y
    if weight is None:
        sys, space, order, data = generic_run(name, functionals)
    else:
        sys, space, order, data = weight_run(name, weight)
    one, length = space.one, sys.length
    for u, row in enumerate(data.rows):
        for s in sys.left_descents(u):
            left_s = sys.cayley_left[s]
            down = space.inv(data.params[s])
            for y, p in row.items():
                sy = left_s[y]
                assert sy in row, (s, y, u)
                if length[sy] > length[y]:
                    assert p == pscale(row[sy], 1, down, one), (s, y, u)


def test_descent_choice_check_catches_a_dropped_m_term(monkeypatch):
    # drop the M^s_{y,w} * C_y term from the half of C_u built through a
    # left descent s that is not the first one: compute_kl must refuse
    sys = system("B3")
    space, params, order = kl.weight_params(sys, (2, 1, 1))
    data = kl.compute_kl(sys, params, order)
    s, y, w = next((s, y, w) for s, y, w in sorted(data.mu)
                   if sys.left_descents(sys.cayley_left[s][w])[0] != s)
    u = sys.cayley_left[s][w]
    real = kl._half_row
    calls = []

    def dropping(sys_, rows, s_, u_, *args):
        if (s_, u_) == (s, u):
            calls.append(u_)
            rows = list(rows)
            rows[y] = {}
        return real(sys_, rows, s_, u_, *args)

    monkeypatch.setattr(kl, "_half_row", dropping)
    with pytest.raises(kl.KLError, match="descent choice changed"):
        kl.compute_kl(sys, params, order)
    assert calls == [u]


def _doubled_diagonal(real):
    """``_half_row`` with P*_{u,u} doubled."""
    def half_row(sys, rows, s, u, *args):
        half, mu_local = real(sys, rows, s, u, *args)
        half[u] = {m: 2 * c for m, c in half[u].items()}
        return half, mu_local
    return half_row


@pytest.mark.parametrize("name, fault, message", [
    ("_half_row", _doubled_diagonal, "leading coefficient of C_"),
    # without M^s_{y,w} the half row keeps its non-negative terms
    ("symmetrize_nonneg", lambda real: lambda q, order: {},
     "has a non-negative monomial"),
], ids=["leading-coefficient", "negativity"])
def test_compute_kl_refuses_a_planted_fault(tmp_path, capsys, monkeypatch,
                                            name, fault, message):
    monkeypatch.setattr(kl, name, fault(getattr(kl, name)))
    sys = system("B3")
    space, params, order = kl.weight_params(sys, (2, 1, 1))
    with pytest.raises(kl.KLError, match=message):
        kl.compute_kl(sys, params, order)
    # through the CLI: exit 1, one error line and no archive entry
    assert cli.main(["compute", "--type", "B3", "--weight", "2,1,1",
                     "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert message in err[0]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("planted", ["one", "v_s", "unsigned"])
def test_negativity_post_condition_catches_a_planted_monomial(monkeypatch,
                                                              planted):
    # a copy of one P* entry of the longest element gains a monomial that
    # is not below 1: 1 itself, a parameter (signed positive long
    # before), or v^99, which the order has never signed
    sys = system("B3")
    space, params, order = kl.weight_params(sys, (2, 1, 1))
    mono = {"one": space.one, "v_s": params[0], "unsigned": 99}[planted]
    real = kl._half_row

    def planting(sys_, rows, s, u, *args):
        half, mu_local = real(sys_, rows, s, u, *args)
        if u == sys.longest:
            x = next(x for x in half if x != u)
            half[x] = {**half[x], mono: 1}
        return half, mu_local

    monkeypatch.setattr(kl, "_half_row", planting)
    with pytest.raises(kl.KLError, match="has a non-negative monomial"):
        kl.compute_kl(sys, params, order)
    assert order.sign(mono) >= 0 and mono not in order.negatives


def test_lemma_m_reports_bar_and_support_violations():
    sys = system("B3")
    space, params, order = kl.weight_params(sys, (2, 1, 1))
    data = kl.compute_kl(sys, params, order)
    first, second = sorted(data.mu)[:2]
    mu = dict(data.mu)
    mu[first] = {params[first[0]]: 1}     # v_s alone: not bar-invariant
    # bar-invariant, but v_s v_w v_y^-1 M is no polynomial
    mu[second] = poly_from_terms(space, [((-100,) * space.rank, 1),
                                         ((100,) * space.rank, 1)])
    rep = kl.check_lemma_m(replace(data, mu=mu))
    assert sorted(rep.violations) == [("bar", *first), ("support", *second)]
    assert rep.checked == len(mu) - 1


def test_bound_check_reports_an_m_entry():
    sys = system("B3")
    data = kl.compute_kl(sys, *kl.weight_params(sys, (2, 1, 1))[1:])
    key = next(iter(data.mu))
    bad = replace(data, mu={**data.mu,
                            key: {**data.mu[key], data.space.pack((-13,)): 1}})
    assert kl.check_bounds(bad).violations == [(("M",) + key, (-13,))]


def test_parameters_that_differ_on_a_generator_class_are_refused():
    sys = system("B3")          # generator classes [0] and [1, 2]
    _, params, order = kl.weight_params(sys, (2, 1, 1))
    kl.validate_params(sys, params, order)
    with pytest.raises(ValueError, match=r"differ on generator class \[1, 2\]"):
        kl.validate_params(sys, (params[0], params[1], params[0]), order)
