import json
import math
import multiprocessing
from dataclasses import replace
from fractions import Fraction

import pytest

from klcells import cells, cli, kl, pipeline, weights
from klcells.laurent import MonomialOrder, MonomialSpace, lex_order

from conftest import system


def lex_run(name):
    sys = system(name)
    space, params = kl.class_params(sys)
    order = lex_order(space)
    data = kl.compute_kl(sys, params, order)
    left, edges = cells.left_cells(sys, data.mu)
    return sys, space, data, left


def normalize_weight(weights):
    """Divide all values by their gcd."""
    weights = tuple(int(x) for x in weights)
    g = math.gcd(*weights) if len(weights) > 1 else weights[0]
    return tuple(x // g for x in weights)


def test_normalize_weight():
    assert normalize_weight((2, 2, 4, 4)) == (1, 1, 2, 2)
    assert normalize_weight((1, 1, 1, 1)) == (1, 1, 1, 1)
    assert normalize_weight((6, 6, 9, 9)) == (2, 2, 3, 3)


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


def delta_of_element(data, w):
    """delta_w: the inverse of the top monomial of P*_{1,w}, and the
    trivial monomial for the identity."""
    if w == 0:
        return data.space.one
    return data.space.inv(max(data.rows[w][0], key=data.order.key))


def test_gamma_plus_prime_contains_gamma():
    sys, space, data, left = lex_run("I2:4")
    gamma = weights.gamma_plus_W(data)
    gp = weights.gamma_plus_prime_W(data, left, gamma)
    assert gamma <= gp
    # the delta values within each left cell are distinct
    for blk in left.blocks:
        deltas = [delta_of_element(data, w) for w in blk]
        assert len(set(deltas)) == len(deltas), blk
    # delta of the identity is trivial; top monomials invert correctly
    assert delta_of_element(data, 0) == space.one
    for w in range(1, sys.size):
        d = delta_of_element(data, w)
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
    assert {e["d"] for e in report.per_cell} == expected
    assert report.per_cell[0]["delta"] == 0 and report.per_cell[0]["n"] == 1


def certified_b3_pair(b3):
    """An order run of B3, a weight run inside its validity interval, the
    class values of that weight and the order run's certifying set."""
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
    return odata, kl.compute_kl(b3, w1, worder), cw, gamma


def test_specialization_consistency_certified(b3):
    odata, wdata, cw, gamma = certified_b3_pair(b3)
    rep = weights.specialization_consistency(odata, wdata, cw, gamma)
    assert rep.ok


def test_specialization_consistency_sees_a_changed_entry(b3):
    # the specialization is memoised per polynomial object; a replaced
    # entry is a new object, whatever objects the others share
    odata, wdata, cw, gamma = certified_b3_pair(b3)
    checked = weights.specialization_consistency(odata, wdata, cw,
                                                 gamma).checked
    w = b3.longest
    y = next(y for y in odata.rows[w] if y != w)
    rows = [dict(r) for r in odata.rows]
    rows[w][y] = {m: 2 * c for m, c in rows[w][y].items()}
    rep = weights.specialization_consistency(replace(odata, rows=rows),
                                             wdata, cw, gamma)
    assert rep.violations == [("P-row", b3.word_text(w))]
    assert rep.checked == checked
    key = min(odata.mu)
    mu = dict(odata.mu)
    mu[key] = {m: 2 * c for m, c in mu[key].items()}
    rep = weights.specialization_consistency(replace(odata, mu=mu),
                                             wdata, cw, gamma)
    assert rep.violations == [("M entry", key)]


def test_specialization_consistency_sees_sigma_kill_an_m_entry(b3):
    # an order-side M entry that sigma maps to 0, v^(b,0) - v^(0,a) under
    # class values (a, b), while the weight side has a nonzero entry there
    odata, wdata, cw, gamma = certified_b3_pair(b3)
    checked = weights.specialization_consistency(odata, wdata, cw,
                                                 gamma).checked
    key = min(odata.mu)
    space = odata.space
    mu = {**odata.mu, key: {space.pack((cw[1], 0)): 1,
                            space.pack((0, cw[0])): -1}}
    rep = weights.specialization_consistency(replace(odata, mu=mu),
                                             wdata, cw, gamma)
    assert rep.violations == [("sigma(M) = 0", key), ("M entry", key)]
    assert rep.checked == checked


def test_specialization_consistency_sees_an_extra_weight_side_entry(b3):
    odata, wdata, cw, gamma = certified_b3_pair(b3)
    checked = weights.specialization_consistency(odata, wdata, cw,
                                                 gamma).checked
    key = min(odata.mu)
    mu = {k: m for k, m in odata.mu.items() if k != key}
    rep = weights.specialization_consistency(replace(odata, mu=mu),
                                             wdata, cw, gamma)
    assert rep.violations == [("extra weight-side M entry", key)]
    assert rep.checked == checked - 1


def test_specialization_consistency_needs_the_star_condition(b3):
    # the order run certifies 2 < b/a only: at b/a = 1 nothing is compared
    odata, wdata, _, gamma = certified_b3_pair(b3)
    ok, viol = weights.check_star(odata.space, (1, 1), gamma)
    assert not ok and viol
    rep = weights.specialization_consistency(odata, wdata, (1, 1), gamma)
    assert rep.violations == [("star condition fails", viol[:5])]
    assert rep.checked == 0


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


def test_exact_run_returns_the_task_shape_of_a_probe(i26, b3):
    # an exact run, like an order probe, returns (regions, gamma, cover);
    # it has no certifying set and covers the point ratio, and under the
    # class swap of I2:6 it also returns the image region at 1/ratio
    perm = next(p for p in i26.diagram_automorphisms()
                if i26.class_of_gen[p[0]] != i26.class_of_gen[0])
    swap = (perm, i26.element_map_for_auto(perm))
    found, gamma, cover = weights._exact_regions(i26, None, swap, Fraction(2))
    assert gamma is None and cover == (Fraction(2), Fraction(2))
    assert [(r.lo, r.hi, r.exact, r.by_symmetry) for r in found] == [
        (Fraction(2), Fraction(2), True, False),
        (Fraction(1, 2), Fraction(1, 2), True, True)]
    found, gamma, cover = weights._exact_regions(b3, None, None, Fraction(1))
    assert gamma is None and cover == (Fraction(1), Fraction(1))
    assert [(r.lo, r.hi, r.exact) for r in found] == [
        (Fraction(1), Fraction(1), True)]


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
    return weights.scan_equivalence_classes(b3, chart=pipeline.chart_for(b3))


@pytest.fixture(scope="module")
def i26_scan_chars(i26):
    return weights.scan_equivalence_classes(i26, chart=pipeline.chart_for(i26))


def test_scan_parallel_matches_serial(i26, b3, b3_scan_chars, i26_scan_chars):
    # every region, an image under the class swap or not, carries its
    # characters in both modes
    for sys, table, serial in ((i26, "i2_6", i26_scan_chars),
                               (b3, "b3", b3_scan_chars)):
        parallel = weights.scan_equivalence_classes(
            sys, chart=pipeline.chart_for(sys), jobs=2)
        assert pipeline.scan_to_json(serial) == \
            pipeline.scan_to_json(parallel)
        for report in (serial, parallel):
            for reg in report.regions:
                assert reg.left_chars is not None, \
                    (table, reg.interval_text())


def test_scan_regions_match_compute(b3, i26, b3_scan_chars, i26_scan_chars):
    # constancy on each region: a weight run at the region's
    # representative weight has the region's cells with their DAGs, its
    # characters and its distinguished involutions; on I2:6 and I2:8 the
    # regions below 1 are images under the class swap
    i28 = system("I2:8")
    i28_scan = weights.scan_equivalence_classes(
        i28, chart=pipeline.chart_for(i28))
    for sys, scan in ((b3, b3_scan_chars), (i26, i26_scan_chars),
                      (i28, i28_scan)):
        assert scan.mirrored == (sys is not b3)
        for reg in scan.regions:
            res = pipeline.run_pipeline(pipeline.RunConfig(
                sys.spec.name, weight=reg.weight, checks=()), sys=sys)
            for part in ("left", "two_sided"):
                got, want = getattr(res, part), getattr(reg, part)
                assert (got.blocks, got.reduction) == \
                    (want.blocks, want.reduction), (part, reg.weight)
            assert res.left_chars == reg.left_chars, reg.weight
            assert res.distinguished == reg.distinguished, reg.weight


def test_order_and_specialised_minimisers_agree(b3, b4, b3_scan_chars):
    # on an open region whose representative ratio lies inside the
    # validity interval of the enlarged certifying set, Delta compared in
    # the region's own order and Delta of the data specialised at that
    # ratio name the same distinguished involutions
    compared = 0
    for sys, scan in ((b3, b3_scan_chars),
                      (b4, weights.scan_equivalence_classes(b4))):
        space, params = kl.class_params(sys)
        num = weights.numerator_coord(sys)
        for reg in scan.regions:
            if reg.exact:
                continue
            cw = weights.class_weights_of(sys, reg.weight)
            ratio = Fraction(cw[num], cw[1 - num])
            glo, ghi = reg.gamma_prime_validity
            if not (glo < ratio and (ghi is None or ratio < ghi)):
                continue
            data = kl.compute_kl(sys, params,
                                 MonomialOrder(space, reg.functionals))
            left, _ = cells.left_cells(sys, data.mu)
            assert left.canonical() == reg.left.canonical()
            own = weights.distinguished_involutions(data, left)
            spec = weights.distinguished_involutions(data, left, cw)
            assert own.ok and spec.ok, reg.interval_text()
            assert [e["d"] for e in own.per_cell] == \
                [e["d"] for e in spec.per_cell], reg.interval_text()
            compared += 1
    assert compared == 6


def test_scan_rejects_one_class_systems(a3):
    with pytest.raises(ValueError, match="two generator classes"):
        weights.scan_equivalence_classes(a3)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_run_bound_ends_a_scan_that_never_converges(tmp_path, capsys,
                                                    monkeypatch, jobs):
    # every certificate starts above the ratios still to cover, so each
    # probe splits its interval and the scan cannot finish; the run bound
    # 16 * 9**2 + 64 of B3 ends it at submission, with one error line,
    # no files and no worker left running
    first = []
    compute_kl = kl.compute_kl

    def reuse_first(*args, base=None):
        if not first:
            first.append(compute_kl(*args))
        return first[0]

    monkeypatch.setattr(kl, "compute_kl", reuse_first)
    monkeypatch.setattr(weights, "validity_interval",
                        lambda *args: (Fraction(10**6), None, [], []))
    assert cli.main(["scan", "--type", "B3", "--jobs", jobs,
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: scan exceeded 1360 pipeline runs"]
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_failed_run_ends_the_scan_and_its_workers(tmp_path, capsys,
                                                  monkeypatch, jobs):
    # a KLError in an exact run, raised in a worker with --jobs 2 while
    # order probes may still be queued or running, ends the scan as it
    # does in process: exit 1, the same error line, no scan directory
    compute_kl = kl.compute_kl

    def fail_exact(sys, params, order, base=None):
        if order.space.rank == 1:
            raise kl.KLError("injected failure")
        return compute_kl(sys, params, order, base=base)

    monkeypatch.setattr(kl, "compute_kl", fail_exact)
    assert cli.main(["scan", "--type", "B4", "--jobs", jobs,
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: injected failure"]
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name, taken", [
    ("B3", [0, 17, 17, 35, 35]),
    ("I2:6", [0, 4]),
    ("B4", [0, 91, 91, 203, 203, 332, 332, 355, 355, 375, 375])],
    ids=["B3", "I2:6", "B4"])
def test_scan_runs_equal_runs_without_a_base(tmp_path, monkeypatch, name,
                                             taken, jobs):
    # every run of the scan, order probe or exact run, is redone without a
    # base and with a plain order: rows, M-table and the order of the
    # M-table are equal; each run (in a worker with --jobs 2) appends its
    # kind, whether it had a base and how many rows it took from it, and
    # the rows taken per run are pinned, so that lost reuse fails here
    compute_kl, half_row = kl.compute_kl, kl._half_row
    built = set()

    def building(sys, rows, s, u, *args):
        built.add(u)
        return half_row(sys, rows, s, u, *args)

    def compared(sys, params, order, base=None):
        built.clear()
        data = compute_kl(sys, params, order, base=base)
        taken = sys.size - 1 - len(built)
        plain = compute_kl(sys, params,
                           MonomialOrder(order.space, order.functionals))
        assert data.rows == plain.rows
        assert list(data.mu.items()) == list(plain.mu.items())
        kind = "exact" if order.space.rank == 1 else "probe"
        with open(tmp_path / "runs", "a") as fh:
            fh.write(f"{kind} {int(base is not None)} {taken}\n")
        return data

    monkeypatch.setattr(kl, "_half_row", building)
    monkeypatch.setattr(kl, "compute_kl", compared)
    assert cli.main(["scan", "--type", name, "--jobs", jobs,
                     "--out", str(tmp_path / "out")]) == 0
    scan = json.loads((tmp_path / "out" / "scan" / "scan.json").read_text())
    runs = [(kind, int(based), int(taken)) for kind, based, taken in
            map(str.split, (tmp_path / "runs").read_text().splitlines())]
    assert len(runs) == scan["order_runs"]
    # only the top probe runs without a base, and it takes nothing
    assert sorted(r for r in runs if not r[1]) == [("probe", 0, 0)]
    assert {kind for kind, based, _ in runs if based} == (
        {"exact"} if name == "I2:6" else {"exact", "probe"})
    assert sorted(n for *_, n in runs) == taken


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_planted_monomial_in_a_taken_row_ends_the_scan(tmp_path, capsys,
                                                       monkeypatch, jobs):
    # a row that an exact run takes from its base passes the post-condition
    # of a computed row: 1 planted into one of its entries ends the scan,
    # in a worker with --jobs 2 as in process, with one error line, no
    # files and no worker left running
    take = kl._Reuse.take

    def planting(self, u, rows):
        taken = take(self, u, rows)
        if taken and self.base.space.rank == 1:
            row, mu_items = taken
            y = next(y for y in row if y != u)
            taken = {**row, y: {**row[y], 0: 1}}, mu_items
        return taken

    monkeypatch.setattr(kl._Reuse, "take", planting)
    assert cli.main(["scan", "--type", "B3", "--jobs", jobs,
                     "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "has a non-negative monomial" in err[0]
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def _base_and_run(sys, base_ratio, ratio):
    """A run at b/a = ``base_ratio`` as base, the order at ``ratio`` and
    the run there without a base."""
    space, params = kl.class_params(sys)
    num = weights.numerator_coord(sys)

    def order(r):
        return weights.weighted_order(
            space, weights.ratio_class_values(r, num), 1 - num)

    new = order(ratio)
    return (kl.compute_kl(sys, params, order(base_ratio)), new,
            kl.compute_kl(sys, params, new))


def _below_one(order, row, u):
    return all(order.all_negative(p) for y, p in row.items() if y != u)


@pytest.mark.parametrize("name, base_ratio, ratio, rows", [
    ("B3", Fraction(5, 4), Fraction(5, 2), 41),
    ("B4", Fraction(5, 2), Fraction(7, 4), 278)], ids=["B3", "B4"])
def test_base_rows_below_one_are_the_canonical_basis(name, base_ratio, ratio,
                                                     rows):
    # a base row is bar-invariant, so by uniqueness every base row whose
    # entries off the diagonal all lie below 1 in the new order is the new
    # run's row, whatever the rows it read
    sys = system(name)
    base, new, plain = _base_and_run(sys, base_ratio, ratio)
    below = [u for u in range(1, sys.size) if _below_one(new, base.rows[u], u)]
    assert len(below) == rows
    assert [u for u in below if base.rows[u] != plain.rows[u]] == []


def test_rows_with_an_entry_above_one_are_rebuilt(b3, monkeypatch):
    # 4 rows of the B3 base at b/a = 5/4 read only rows that are equal at
    # 5/2 (su for each left descent s, y for each nonzero M^s_{y,su}) but
    # have an entry not below 1 there: the run builds them itself and
    # equals the run without a base
    base, new, plain = _base_and_run(b3, Fraction(5, 4), Fraction(5, 2))

    def reads(u):
        sus = [b3.cayley_left[s][u] for s in b3.left_descents(u)]
        return sus + [y for s, y, w in base.mu
                      if w in sus and b3.cayley_left[s][w] == u]

    gated = [u for u in range(1, b3.size)
             if all(base.rows[r] == plain.rows[r] for r in reads(u))
             and not _below_one(new, base.rows[u], u)]
    assert len(gated) == 4
    half_row, built = kl._half_row, set()

    def building(sys, rows, s, u, *args):
        built.add(u)
        return half_row(sys, rows, s, u, *args)

    monkeypatch.setattr(kl, "_half_row", building)
    data = kl.compute_kl(b3, base.params, new, base=base)
    assert set(gated) <= built
    assert data.rows == plain.rows
    assert list(data.mu.items()) == list(plain.mu.items())


def test_taken_rows_read_their_m_support(b4, monkeypatch):
    # from b/a = 7/2 to 5/2 on B4, a take that reads only su for each left
    # descent s, and not the y of each nonzero M^s_{y,su}, gets rows equal
    # to the run without a base but 8 wrong M entries
    base, new, plain = _base_and_run(b4, Fraction(7, 2), Fraction(5, 2))

    def wrong_mu():
        data = kl.compute_kl(b4, base.params, new, base=base)
        assert data.rows == plain.rows
        return sum(data.mu.get(k) != plain.mu.get(k)
                   for k in data.mu.keys() | plain.mu.keys())

    assert wrong_mu() == 0
    take = kl._Reuse.take

    def su_only(self, u, rows):
        keys, self.keys[u] = self.keys[u], []
        taken = take(self, u, rows)
        self.keys[u] = keys
        return taken and (taken[0], [(k, self.base.mu[k]) for k in keys])

    monkeypatch.setattr(kl._Reuse, "take", su_only)
    assert wrong_mu() == 8


def test_breakpoint_candidates():
    # |i/j| for each monomial with exponent i of the denominator class
    # and j of the numerator class, both nonzero
    space = MonomialSpace(2)
    monomials = {space.pack(e) for e in [(-5, 2), (3, -1), (1, 0), (0, 1)]}
    assert weights.breakpoint_candidates(space, monomials, 1) == {
        Fraction(5, 2), Fraction(3)}


def test_asymptotic_class_bound(b3):
    assert weights.asymptotic_class_bound(b3) == 18
    report = weights.scan_equivalence_classes(b3)
    top = [r for r in report.regions if r.hi is None][0]
    assert top.lo <= 18
    assert top.lo == 2


def test_refinement_helpers(i24):
    _, _, _, left = lex_run("I2:4")
    assert cells.check_union_refinement(left, left) == []


@pytest.mark.slow
def test_f4_pure_lex_gamma_set(f4):
    """Numerator-dominant pure lex data for F4: the certifying set stays in
    {x^i : i>0} union {x^i y^j : j>0, i+4j >= 0}, its validity interval is
    (4, oo) with the ratio-9 threshold for the enlarged set, and the star
    condition separates the weights (1,5) and (1,4)."""
    from klcells.laurent import MonomialOrder

    space, params = kl.class_params(f4)
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
    gp = weights.gamma_plus_prime_W(data, left, gamma)
    glo, ghi, *_ = weights.validity_interval(space, gp, 1)
    assert (glo, ghi) == (Fraction(9), None)


@pytest.mark.slow
def test_f4_specialization_consistency_sampled(f4):
    """Both computation routes agree entrywise on F4: the numerator-dominant
    pure lex tables specialize exactly onto the weight-(1,1,5,5) tables."""
    from klcells.laurent import MonomialOrder

    space, params = kl.class_params(f4)
    order = MonomialOrder(space, [(0, 1), (1, 0)])
    odata = kl.compute_kl(f4, params, order)
    _, w1, worder = kl.weight_params(f4, (1, 1, 5, 5))
    wdata = kl.compute_kl(f4, w1, worder)
    rep = weights.specialization_consistency(
        odata, wdata, (1, 5), weights.gamma_plus_W(odata))
    assert rep.ok and rep.checked > 400000


@pytest.mark.parametrize("name", ["A1xA1", "A2xA2", "B2", "G2", "I2:8",
                                  "A1xA2"])
def test_scan_tiles_the_ratio_line(tmp_path, capsys, name):
    # the scan exits 0 and every sample ratio lies in exactly one region;
    # with a class swap the breakpoints are closed under r -> 1/r
    assert cli.main(["scan", "--type", name, "--out", str(tmp_path)]) == 0
    scan = json.loads((tmp_path / "scan" / "scan.json").read_text())
    frac = lambda x: None if x is None else Fraction(x)
    spans = [(frac(r["lo"]), frac(r["hi"]), r["exact"])
             for r in scan["regions"]]
    breakpoints = {Fraction(b) for b in scan["breakpoints"]}
    samples = {Fraction(1), Fraction(1, 7), Fraction(2, 3), Fraction(3, 2),
               Fraction(7)} | breakpoints
    for r in samples:
        hits = [(lo, hi) for lo, hi, exact in spans
                if (r == lo if exact else lo < r and (hi is None or r < hi))]
        assert len(hits) == 1, (r, hits)
    assert scan["mirrored"] == (name != "A1xA2")
    if scan["mirrored"]:
        assert {1 / b for b in breakpoints} == breakpoints


def _with_p1(data, w, p):
    """A copy of ``data`` whose P*_{1,w} is ``p``."""
    rows = list(data.rows)
    rows[w] = {**rows[w], 0: p}
    return replace(data, rows=rows)


def test_distinguished_involution_faults_are_reported():
    sys = system("B3")
    data = kl.compute_kl(sys, *kl.weight_params(sys, (2, 1, 1))[1:])
    left, _ = cells.left_cells(sys, data.mu)
    report = weights.distinguished_involutions(data, left)
    assert report.ok
    mins, key = [e["d"] for e in report.per_cell], data.order.key
    # a second minimizer: P*_{1,d} copied to a later element of d's cell
    ci, d, w = next((ci, d, w) for ci, d in enumerate(mins)
                    for w in left.blocks[ci] if w > d)
    rep = weights.distinguished_involutions(
        _with_p1(data, w, data.rows[d][0]), left)
    assert rep.violations == [("non-unique minimizer", ci,
                               [sys.word_text(d), sys.word_text(w)])]
    # a non-involution whose P*_{1,w} has a higher top monomial than d's
    ci, d, w = next((ci, d, w) for ci, d in enumerate(mins)
                    for w in left.blocks[ci] if sys.mult(w, w) != 0)
    top = max(data.rows[d][0], key=key)
    higher = data.space.pack((data.space.unpack(top)[0] + 1,))
    assert key(higher) > key(top)
    rep = weights.distinguished_involutions(_with_p1(data, w, {higher: 1}),
                                            left)
    assert rep.violations == [("minimizer not an involution", ci,
                               sys.word_text(w))]
    # a leading coefficient of 2: P*_{1,d} doubled
    ci, d = 1, mins[1]
    p = data.rows[d][0]
    rep = weights.distinguished_involutions(
        _with_p1(data, d, {m: 2 * c for m, c in p.items()}), left)
    assert rep.violations == [("leading coefficient not a unit", ci,
                               2 * p[max(p, key=key)])]
