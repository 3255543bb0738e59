from fractions import Fraction

import pytest

from klcells import cells, kl, weights
from klcells.laurent import MonomialSpace, lex_order

from conftest import system


def lex_run(name):
    sys = system(name)
    space, params = kl.class_params(sys)
    order = lex_order(space)
    data = kl.compute_kl(sys, params, order)
    left, edges = cells.left_cells(sys, data.mu)
    return sys, space, data, left


def test_normalize_weight():
    assert weights.normalize_weight((2, 2, 4, 4)) == (1, 1, 2, 2)
    assert weights.normalize_weight((1, 1, 1, 1)) == (1, 1, 1, 1)
    assert weights.normalize_weight((6, 6, 9, 9)) == (2, 2, 3, 3)


def test_gamma_plus_single_generator():
    sys = system("A1")
    space, params = kl.class_params(sys)
    order = lex_order(space)
    data = kl.compute_kl(sys, params, order)
    gamma = weights.gamma_plus_W(data)
    assert {space.unpack(m) for m in gamma} == {(1,)}


@pytest.mark.parametrize("m", [4, 6, 8])
def test_gamma_plus_dihedral_bounds(m):
    # under the lexicographic order with v_s dominant, the certifying set
    # stays inside {i >= 0, i + j >= 0} minus the identity
    sys, space, data, left = lex_run(f"I2:{m}")
    gamma = weights.gamma_plus_W(data)
    for mono in gamma:
        i, j = space.unpack(mono)
        assert i >= 0 and i + j >= 0 and (i, j) != (0, 0)


def test_check_star():
    space = MonomialSpace(2)
    assert weights.check_star(space, (1, 1), set())[0]
    gamma = {space.pack((1, -1)), space.pack((0, 1))}
    assert weights.check_star(space, (2, 1), gamma)[0]
    ok, viol = weights.check_star(space, (1, 1), gamma | {space.pack((2, -2))})
    assert not ok and (2, -2) in viol


def test_star_certifies_dihedral_side():
    sys, space, data, left = lex_run("I2:6")
    gamma = weights.gamma_plus_W(data)
    assert weights.check_star(space, (2, 1), gamma)[0]      # L(s) > L(t)
    assert not weights.check_star(space, (1, 1), gamma)[0]  # equal weights
    assert not weights.check_star(space, (1, 2), gamma)[0]


def test_validity_interval():
    space = MonomialSpace(2)
    # both coordinates positive: every positive ratio works
    lo, hi, *_ = weights.validity_interval(
        space, {space.pack((1, 0)), space.pack((0, 1))}, 1)
    assert (lo, hi) == (Fraction(0), None)
    gamma = {space.pack((-5, 2)), space.pack((3, -1)), space.pack((1, 0))}
    lo, hi, blo, bhi = weights.validity_interval(space, gamma, 1)
    assert (lo, hi) == (Fraction(5, 2), Fraction(3, 1))
    assert blo == [(-5, 2)] and bhi == [(3, -1)]
    with pytest.raises(ValueError):
        weights.validity_interval(space, {space.pack((-1, 0))}, 1)
    with pytest.raises(ValueError):
        weights.validity_interval(
            space, {space.pack((-3, 1)), space.pack((2, -1))}, 1)


def test_gamma_plus_prime_contains_gamma():
    sys, space, data, left = lex_run("I2:4")
    gamma = weights.gamma_plus_W(data)
    gp, dups = weights.gamma_plus_prime_W(data, left)
    assert gamma <= gp
    assert not dups
    # delta of the identity is trivial; top monomials invert correctly
    assert weights.delta_of_element(data, 0) == space.one
    for w in range(1, sys.size):
        d = weights.delta_of_element(data, w)
        assert data.order.sign(d) > 0


@pytest.mark.parametrize("m", [4, 6, 8])
def test_distinguished_involutions_dihedral(m):
    # heavy s: the distinguished involutions are 1, s, t, tst, t*w0, w0
    sys = system(f"I2:{m}")
    space, params, order = kl.weight_params(sys, (2, 1))
    data = kl.compute_kl(sys, params, order)
    left, _ = cells.left_cells(sys, data.mu)
    report = weights.distinguished_involutions(data, left)
    assert report.ok
    expected = {
        0,
        sys.word_to_element((0,)),
        sys.word_to_element((1,)),
        sys.word_to_element((1, 0, 1)),
        sys.cayley_left[1][sys.longest],
        sys.longest,
    }
    assert set(report.distinguished_elements()) == expected
    assert report.per_cell[0]["delta"] == 0 and report.per_cell[0]["n"] == 1


def test_specialization_consistency_certified(b3):
    space, params = kl.class_params(b3)
    order = lex_order(space)  # t-class dominant: certifies large ratios
    odata = kl.compute_kl(b3, params, order)
    gamma = weights.gamma_plus_W(odata)
    num_coord = b3.class_of_gen[b3.spec.numerator_gen]
    lo, hi, *_ = weights.validity_interval(space, gamma, num_coord)
    assert (lo, hi) == (Fraction(2), None)
    r = weights._mediant(lo, hi)
    cw = [0, 0]
    cw[num_coord] = r.numerator
    cw[1 - num_coord] = r.denominator
    wt = weights.weight_from_class_values(b3, cw)
    _, w1, worder = kl.weight_params(b3, wt)
    wdata = kl.compute_kl(b3, w1, worder)
    rep = weights.specialization_consistency(odata, wdata, cw)
    assert rep.ok


def test_scan_dihedral():
    for m in (4, 6):
        sys = system(f"I2:{m}")
        report = weights.scan_equivalence_classes(sys)
        assert report.breakpoints == [Fraction(1)]
        assert report.mirrored
        reps_found = {tuple(c["representative_weight"])
                      for c in report.partition_classes}
        assert reps_found == {(1, 1), (2, 1), (1, 2)}
        assert len(report.partition_classes) == 3
        # every ratio lands in exactly one region
        for r in (Fraction(1, 3), Fraction(1), Fraction(7, 5), Fraction(9)):
            report.region_of_ratio(r)


def test_scan_regions_tile_b3(b3):
    report = weights.scan_equivalence_classes(b3)
    assert report.breakpoints == [Fraction(1), Fraction(2)]
    assert not report.mirrored
    assert len(report.partition_classes) == 5
    # regions tile (0, oo): adjacent bounds coincide
    spans = sorted((r.lo, r.hi) for r in report.regions if not r.exact)
    assert spans[0][0] == 0 and spans[-1][1] is None
    for (lo1, hi1), (lo2, hi2) in zip(spans, spans[1:]):
        assert hi1 == lo2
    exact = sorted(r.lo for r in report.regions if r.exact)
    assert exact == report.breakpoints
    # open-region certificates contain their assigned intervals
    for reg in report.regions:
        if not reg.exact and reg.validity:
            vlo, vhi = reg.validity
            assert vlo <= reg.lo
            assert vhi is None or reg.hi is None or vhi >= reg.hi


def test_scan_weight_landing_exhaustive():
    # every weight with values <= 10 lands in exactly one region whose
    # partition equals its directly computed one
    for name in ("I2:4", "I2:6", "B3"):
        sys = system(name)
        report = weights.scan_equivalence_classes(sys)
        num_gen = sys.spec.numerator_gen
        num_cls = sys.class_of_gen[num_gen]
        for a in range(1, 11):
            for b in range(1, 11):
                vals = [0, 0]
                vals[num_cls] = b
                vals[1 - num_cls] = a
                wt = weights.weight_from_class_values(sys, vals)
                idx = report.region_of_ratio(Fraction(b, a))
                region = report.regions[idx]
                _, w1, order1 = kl.weight_params(sys, wt)
                data = kl.compute_kl(sys, w1, order1)
                left, _ = cells.left_cells(sys, data.mu)
                assert left.canonical() == region.left.canonical(), (name, wt)


@pytest.fixture(scope="module")
def b3_scan_chars(b3):
    return weights.scan_equivalence_classes(b3, chartable_name="b3")


def test_scan_parallel_matches_serial(i26, b3, b3_scan_chars):
    # B3 has no class-swap mirror, so every region is computed; every
    # computed region carries its characters in both modes
    from klcells import pipeline

    i26_serial = weights.scan_equivalence_classes(i26, chartable_name="i2_6")
    for sys, table, serial in ((i26, "i2_6", i26_serial),
                               (b3, "b3", b3_scan_chars)):
        parallel = weights.scan_equivalence_classes(
            sys, chartable_name=table, jobs=2)
        assert pipeline.scan_to_json(serial) == \
            pipeline.scan_to_json(parallel)
        for report in (serial, parallel):
            for reg in report.regions:
                assert reg.by_symmetry or reg.char_labels is not None, \
                    (table, reg.interval_text())


def test_scan_regions_match_compute(b3, b3_scan_chars):
    # constancy on each region: a weight run at the region's
    # representative weight has the region's left cells and characters
    from klcells import pipeline

    for reg in b3_scan_chars.regions:
        res = pipeline.run_pipeline(
            pipeline.RunConfig("B3", weight=reg.weight, checks=()), sys=b3)
        assert res.left.canonical() == reg.left.canonical(), reg.weight
        assert res.left_chars == reg.left_chars, reg.weight


def test_scan_rejects_one_class_systems(a3):
    with pytest.raises(weights.ScanError):
        weights.scan_equivalence_classes(a3)


def test_asymptotic_class_bound(b3):
    assert weights.asymptotic_class_bound(b3) == 18
    report = weights.scan_equivalence_classes(b3)
    top = [r for r in report.regions if r.hi is None][0]
    assert top.lo <= 18
    assert top.lo == 2


def test_mirror_requires_automorphism(b3):
    with pytest.raises(weights.ScanError):
        weights.scan_equivalence_classes(b3, use_mirror=True)


def test_refinement_helpers(i24):
    _, _, _, left = lex_run("I2:4")
    assert weights.check_refinement(left, left) == []


@pytest.mark.slow
def test_f4_pure_lex_gamma_set(f4):
    """Numerator-dominant pure lex data for F4: the certifying set stays in
    {x^i : i>0} union {x^i y^j : j>0, i+4j >= 0}, its validity interval is
    (4, oo) with the ratio-9 threshold for the enlarged set, and the star
    condition separates the weights (1,5) and (1,4)."""
    from klcells.laurent import MonomialOrder

    space = MonomialSpace(2)
    _, params = kl.class_params(f4, space)
    order = MonomialOrder(space, [(0, 1), (1, 0)])
    data = kl.compute_kl(f4, params, order)
    gamma = weights.gamma_plus_W(data)
    for mono in gamma:
        i, j = space.unpack(mono)
        assert (j == 0 and i > 0) or (j > 0 and i + 4 * j >= 0), (i, j)
    lo, hi, blo, _ = weights.validity_interval(space, gamma, 1)
    assert (lo, hi) == (Fraction(4), None)
    assert all(i + 4 * j == 0 for i, j in blo)
    assert weights.check_star(space, (1, 5), gamma)[0]
    ok, viol = weights.check_star(space, (1, 4), gamma)
    assert not ok and (-4, 1) in viol
    # exponents obey the strict two-variable bound
    rep = kl.check_bounds(data)
    assert rep.ok and rep.notes["strict_bound"] == 24
    assert all(abs(v) <= 23 for v in rep.notes["min_exponents"])
    assert all(abs(v) <= 23 for v in rep.notes["max_exponents"])
    # the enlarged set needs b/a > 9
    left, _ = cells.left_cells(f4, data.mu)
    gp, _ = weights.gamma_plus_prime_W(data, left)
    glo, ghi, *_ = weights.validity_interval(space, gp, 1)
    assert (glo, ghi) == (Fraction(9), None)


@pytest.mark.slow
def test_f4_specialization_consistency_sampled(f4):
    """Both computation routes agree entrywise on F4: the numerator-dominant
    pure lex tables specialize exactly onto the weight-(1,1,5,5) tables."""
    from klcells.laurent import MonomialOrder

    space = MonomialSpace(2)
    _, params = kl.class_params(f4, space)
    order = MonomialOrder(space, [(0, 1), (1, 0)])
    odata = kl.compute_kl(f4, params, order)
    _, w1, worder = kl.weight_params(f4, (1, 1, 5, 5))
    wdata = kl.compute_kl(f4, w1, worder)
    rep = weights.specialization_consistency(odata, wdata, (1, 5))
    assert rep.ok and rep.checked > 400000


def test_no_mirror_descent_matches_mirrored():
    sys = system("I2:8")
    direct = weights.scan_equivalence_classes(sys, use_mirror=False)
    mirrored = weights.scan_equivalence_classes(sys)
    def canon(rep):
        return {(r.lo, r.hi, r.exact): r.left.canonical() for r in rep.regions}
    assert canon(direct) == canon(mirrored)
    assert not direct.mirrored and mirrored.mirrored
