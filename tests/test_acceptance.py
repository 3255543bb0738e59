"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a PASS line on
success (pytest reports failures).  The heavy computations (full F4
ratio scan, B4 weight grid) are computed once per session and shared.
Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import dataclasses
import time
from fractions import Fraction

import pytest

from klcells import cells, kl, pipeline, reps, weights
from klcells.laurent import MonomialOrder, MonomialSpace, lex_order, pscale, poly_from_terms

from conftest import system

pytestmark = pytest.mark.acceptance

F4_CASE_RATIOS = {"equal": Fraction(1), "b2a": Fraction(2),
                  "between": Fraction(7, 4), "beyond": Fraction(3)}
F4_REPRESENTATIVE_WEIGHTS = [(1, 1, 4, 4), (1, 1, 3, 3), (2, 2, 5, 5),
                             (1, 1, 2, 2), (2, 2, 3, 3), (3, 3, 4, 4),
                             (1, 1, 1, 1)]
B4_CLASS_OF_RATIO = [
    (Fraction(1), (1, 1, 1, 1)), (Fraction(2), (2, 1, 1, 1)),
    (Fraction(3), (3, 1, 1, 1)),
]
B4_REPRESENTATIVES = [(1, 2, 2, 2), (1, 1, 1, 1), (2, 1, 1, 1), (3, 1, 1, 1),
                      (3, 2, 2, 2), (5, 2, 2, 2), (4, 1, 1, 1)]


def report(num, text):
    print(f"\n[criterion {num:2d}] PASS: {text}")


def weight_run(sys, wt):
    _, params, order = kl.weight_params(sys, wt)
    data = kl.compute_kl(sys, params, order)
    left, edges = cells.left_cells(sys, data.mu)
    ts = cells.two_sided_cells(sys, edges)
    return data, left, ts


@pytest.fixture(scope="module")
def f4_scan(f4):
    t0 = time.time()
    rep = weights.scan_equivalence_classes(f4, chart=pipeline.chart_for(f4),
                                           jobs=2)
    rep.elapsed = time.time() - t0
    return rep


@pytest.fixture(scope="module")
def b4_partitions(b4):
    """Canonical left partitions for the seven conjectured representatives."""
    t0 = time.time()
    parts = {}
    for wt in B4_REPRESENTATIVES:
        _, left, ts = weight_run(b4, wt)
        parts[wt] = (left.canonical(), left, ts)
    return parts, time.time() - t0


# -- criterion 1 -------------------------------------------------------------


def _dihedral_expected_p(sys, space, y, w):
    length = sys.length
    left, right = sys.cayley_left, sys.cayley_right
    m_t = sum(1 for g in sys.words[w] if g == 1) \
        - sum(1 for g in sys.words[y] if g == 1)
    tw, wt = left[1][w], right[1][w]
    sw, ws = left[0][w], right[0][w]
    tsw, stw = left[1][left[0][w]], left[0][left[1][w]]
    if length[tw] > length[w] and length[wt] > length[w] \
            and length[tsw] < length[sw] and sys.bruhat_leq(y, tsw):
        return {space.pack((0, 2 * i)): (-1) ** i for i in range(m_t + 1)}
    if length[sw] > length[w] and length[ws] > length[w] \
            and length[stw] < length[tw] and sys.bruhat_leq(y, stw):
        return poly_from_terms(space, [((0, 0), 1), ((0, 2), 1)])
    return {space.one: 1}


def test_criterion_01_dihedral_closed_forms():
    t0 = time.time()
    for m in (4, 6, 8):
        sys = system(f"I2:{m}")
        space, params = kl.class_params(sys)
        data = kl.compute_kl(sys, params, lex_order(space))
        one = space.one
        v = data.v_elem
        for w in range(sys.size):
            for y in data.rows[w]:
                if y == w:
                    continue
                shift = v[w] + space.inv(v[y]) - one
                got = pscale(data.rows[w][y], 1, shift, one)
                assert got == _dihedral_expected_p(sys, space, y, w), (m, y, w)
        gap1 = poly_from_terms(space, [((1, -1), 1), ((-1, 1), 1)])
        for (s, y, w), m_poly in data.mu.items():
            assert s == 0, "an M-polynomial for the light generator is nonzero"
            gap = sys.length[w] - sys.length[y]
            assert gap in (1, 3)
            assert m_poly == (gap1 if gap == 1 else {one: 1})
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(1, f"dihedral P- and M-closed forms exact for m=4,6,8 "
              f"({elapsed:.2f}s < 1s)")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_02_oracle_equivalence():
    t0 = time.time()
    cases = 0
    for name, stacks in [
        ("I2:4", [[(1, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 2), (0, 1)]]),
        ("I2:6", [[(1, 0), (0, 1)], [(0, 1), (1, 0)], [(3, 1), (0, 1)]]),
        ("B3", [[(1, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 3), (1, 0)]]),
    ]:
        sys = system(name)
        space, params = kl.class_params(sys)
        for fs in stacks:
            order = MonomialOrder(space, fs)
            data = kl.compute_kl(sys, params, order)
            oracle = kl.oracle_kl(sys, params, order)
            assert kl.tables_equal(data, oracle), (name, fs)
            cases += 1
    sys = system("A3")
    space = MonomialSpace(2)
    params = tuple(space.pack((1, 0)) for _ in range(sys.rank))
    for fs in ([(1, 0), (0, 1)], [(0, 1), (1, 0)], [(1, 1), (1, 0)]):
        order = MonomialOrder(space, fs)
        assert kl.tables_equal(kl.compute_kl(sys, params, order),
                               kl.oracle_kl(sys, params, order)), fs
        cases += 1
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    report(2, f"recursion equals the bar-invariance oracle entrywise in "
              f"{cases} (system, order) pairs ({elapsed:.1f}s < 30s)")


# -- criterion 3 -------------------------------------------------------------


def _structural_suite(data):
    assert kl.check_lemma_p(data).ok
    assert kl.check_lemma_m(data).ok
    assert kl.check_bounds(data).ok
    assert kl.verify_bar_identity_full(data).ok


def test_criterion_03_structural_lemma_suites(b3, b4, f4):
    t0 = time.time()
    tables = 0
    for m in (4, 6, 8):
        sys = system(f"I2:{m}")
        space, params = kl.class_params(sys)
        _structural_suite(kl.compute_kl(sys, params, lex_order(space)))
        _, w1, order1 = kl.weight_params(sys, (2, 1))
        _structural_suite(kl.compute_kl(sys, w1, order1))
        tables += 2
    a3 = system("A3")
    _, w1, order1 = kl.weight_params(a3, (1, 1, 1))
    _structural_suite(kl.compute_kl(a3, w1, order1))
    tables += 1
    for wt in [(1, 1, 1), (2, 1, 1), (3, 2, 2)]:
        _, w1, order1 = kl.weight_params(b3, wt)
        _structural_suite(kl.compute_kl(b3, w1, order1))
        tables += 1
    for wt in B4_REPRESENTATIVES:
        _, w1, order1 = kl.weight_params(b4, wt)
        _structural_suite(kl.compute_kl(b4, w1, order1))
        tables += 1
    for wt in F4_REPRESENTATIVE_WEIGHTS:
        _, w1, order1 = kl.weight_params(f4, wt)
        _structural_suite(kl.compute_kl(f4, w1, order1))
        tables += 1
    elapsed = time.time() - t0
    report(3, f"normalization lemmas, exponent bounds, bar-invariance and "
              f"the R-identity hold exactly on {tables} tables "
              f"({elapsed / 60:.1f} min)")


# -- criteria 4..7, 9 use the full F4 scan -----------------------------------


def _case_region(f4_scan, case):
    return f4_scan.regions[f4_scan.region_of_ratio(F4_CASE_RATIOS[case])]


def test_criterion_04_f4_classification(f4_scan):
    assert f4_scan.elapsed < 3600, f"scan took {f4_scan.elapsed:.0f}s"
    upper = [c for c in f4_scan.partition_classes
             if Fraction(c["representative_weight"][2],
                         c["representative_weight"][0]) >= 1]
    assert len(upper) == 4
    # class membership by sampled ratios: boundaries are exactly
    # {b=a}, {b=2a}, {a<b<2a}, {b>2a}
    cls_of = f4_scan.class_of_ratio
    eq, b2a = cls_of(Fraction(1)), cls_of(Fraction(2))
    betw, bey = cls_of(Fraction(7, 4)), cls_of(Fraction(3))
    assert len({eq, b2a, betw, bey}) == 4
    for r in (Fraction(5, 4), Fraction(4, 3), Fraction(3, 2), Fraction(19, 10)):
        assert cls_of(r) == betw, r
    for r in (Fraction(9, 4), Fraction(5, 2), Fraction(3), Fraction(7, 2),
              Fraction(4), Fraction(17, 4), Fraction(10), Fraction(973)):
        assert cls_of(r) == bey, r
    counts = {case: len(_case_region(f4_scan, case).two_sided)
              for case in F4_CASE_RATIOS}
    assert counts == {"equal": 11, "b2a": 15, "between": 21, "beyond": 21}
    for case in F4_CASE_RATIOS:
        ok, detail = pipeline.match_reference_order(
            _case_region(f4_scan, case), case)
        assert ok, (case, detail)
    report(4, "F4 scan: exactly 4 partition classes for b >= a with "
              "boundaries b=a / b=2a / 2a>b>a / b>2a; two-sided "
              "condensations 11/15/21/21 blocks, diagrams isomorphic to "
              f"the reference (scan {f4_scan.elapsed:.0f}s < 60min)")


def test_reference_order_rejects_mutated_regions(f4_scan):
    # a dropped Hasse edge, or one left cell carrying another cell's
    # characters, is not the published diagram
    for case in F4_CASE_RATIOS:
        region = _case_region(f4_scan, case)
        assert pipeline.match_reference_order(region, case)[0], case
        ts = region.two_sided
        dropped = dataclasses.replace(region, two_sided=dataclasses.replace(
            ts, reduction=ts.reduction[1:]))
        ok, detail = pipeline.match_reference_order(dropped, case)
        assert not ok and len(detail["missing"]) == 1, case
        swapped = list(region.left_chars)
        swapped[0] = swapped[1]
        ok, _ = pipeline.match_reference_order(
            dataclasses.replace(region, left_chars=swapped), case)
        assert not ok, case


def test_f4_scan_files_are_pinned(tmp_path, f4_scan, f4):
    # sha256 of the sorted (name, file sha256) pairs of the 56 files the
    # F4 scan writes: the largest scan, 13 of its 27 regions mirrored
    import hashlib

    out = pipeline.write_scan(f4_scan, tmp_path / "scan", f4)
    files = sorted((p.name, hashlib.sha256(p.read_bytes()).hexdigest())
                   for p in out.iterdir())
    assert len(files) == 56
    assert hashlib.sha256(repr(files).encode()).hexdigest() == \
        "aac129001f13964e55081dbc4cd04a670ae5442c02b233a1bbf19c676b71a2e6"


def test_criterion_05_f4_characters(f4_scan):
    for case in F4_CASE_RATIOS:
        region = _case_region(f4_scan, case)
        assert region.left_chars is not None
        for mults in region.left_chars:
            assert mults and all(m > 0 for _, m in mults)
        ok, detail = pipeline.match_reference_constructible(region, case)
        assert ok, (case, detail)
    # the boxed multi-character cells, spelled out
    eq_chars = {pipeline._char_key(m)
                for m in _case_region(f4_scan, "equal").left_chars}
    assert (("12_1", 1), ("16_1", 2), ("4_1", 1), ("6_2", 1), ("9_2", 1),
            ("9_3", 1)) in eq_chars
    b2a_chars = {pipeline._char_key(m)
                 for m in _case_region(f4_scan, "b2a").left_chars}
    assert (("1_3", 1), ("8_3", 1)) in b2a_chars
    assert (("1_3", 1), ("2_1", 1)) not in b2a_chars
    assert (("1_2", 1), ("2_2", 1)) not in b2a_chars
    report(5, "F4 cell characters decompose with nonnegative integer "
              "multiplicities and equal the published constructible lists "
              "in all four cases, including the boxed cells and the "
              "corrected b=2a list")


def test_criterion_06_property_L(f4_scan, b3, b4, b4_partitions):
    checked = 0
    assert len(f4_scan.regions) == 27
    for region in f4_scan.regions:
        sys = system("F4")
        assert cells.check_property_L(sys, region.left, region.two_sided) \
            == [], region.interval_text()
        checked += 1
    parts, _ = b4_partitions
    for wt, (_, left, ts) in parts.items():
        assert cells.check_property_L(b4, left, ts) == [], wt
        checked += 1
    for wt in [(1, 1, 1), (2, 1, 1), (1, 2, 2), (3, 2, 2), (3, 1, 1)]:
        _, left, ts = weight_run(b3, wt)
        assert cells.check_property_L(b3, left, ts) == [], wt
        checked += 1
    report(6, f"left preorder is trivial inside every two-sided cell in "
              f"{checked} runs (all F4 scan regions, B3 and B4 "
              f"representatives)")


def test_criterion_07_distinguished_involutions(f4_scan):
    for region in f4_scan.regions:
        dist = region.distinguished
        assert dist is not None and dist.ok, region.interval_text()
        for entry in dist.per_cell:
            assert entry["unique"] and entry["involution"] and entry["n_unit"]
        if not region.exact:
            assert region.order_distinguished_ok, region.interval_text()
    for m in (4, 6, 8):
        sys = system(f"I2:{m}")
        data, left, _ = weight_run(sys, (2, 1))
        rep = weights.distinguished_involutions(data, left)
        assert rep.ok
        expected = {0, sys.word_to_element((0,)), sys.word_to_element((1,)),
                    sys.word_to_element((1, 0, 1)),
                    sys.cayley_left[1][sys.longest], sys.longest}
        assert {e["d"] for e in rep.per_cell} == expected
    report(7, "every left cell in every F4 region has a unique minimizer, "
              "an involution with unit leading coefficient; dihedral "
              "distinguished sets are {1, s, t, tst, t*w0, w0}")


# -- criterion 8 -------------------------------------------------------------


def test_criterion_08_b4_classes(b4, b4_partitions):
    t0 = time.time()
    parts, fixture_elapsed = b4_partitions
    canon = {wt: c for wt, (c, _, _) in parts.items()}
    assert len(set(canon.values())) == 7, "representatives must be distinct"

    def predicted(b, a):
        r = Fraction(b, a)
        for exact, wt in B4_CLASS_OF_RATIO:
            if r == exact:
                return wt
        if r < 1:
            return (1, 2, 2, 2)
        if r < 2:
            return (3, 2, 2, 2)
        if r < 3:
            return (5, 2, 2, 2)
        return (4, 1, 1, 1)

    for b in range(1, 9):
        for a in range(1, 9):
            _, left, _ = weight_run(b4, (b, a, a, a))
            assert left.canonical() == canon[predicted(b, a)], (b, a)
    elapsed = time.time() - t0 + fixture_elapsed
    assert elapsed < 1800, f"took {elapsed:.0f}s"
    report(8, f"B4: 7 pairwise distinct representative partitions; all 64 "
              f"weights (b,a) with 1<=a,b<=8 land in the predicted class "
              f"({elapsed / 60:.1f} min < 30 min)")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_09_refinement(f4_scan, b3):
    eq = _case_region(f4_scan, "equal").left
    b2a = _case_region(f4_scan, "b2a").left
    betw = _case_region(f4_scan, "between").left
    bey = _case_region(f4_scan, "beyond").left
    # exact-ratio cells are unions of the cells of the adjacent chambers
    assert cells.check_union_refinement(eq, betw) == []
    assert cells.check_union_refinement(b2a, bey) == []
    assert cells.check_union_refinement(b2a, betw) == []
    # the literal reading "a=b cells are unions of b>2a cells" is false as
    # a matter of computation (the published remark's first bullet carries
    # a typo; its second bullet and the stated B3/B4 behaviour pin the
    # corrected form asserted above -- see the decisions ledger)
    assert cells.check_union_refinement(eq, bey) != []
    # dihedral analogue: the equal-parameter cells refine into both sides
    for m in (4, 6, 8):
        sys = system(f"I2:{m}")
        _, left_eq, _ = weight_run(sys, (1, 1))
        _, left_s, _ = weight_run(sys, (2, 1))
        _, left_t, _ = weight_run(sys, (1, 2))
        assert cells.check_union_refinement(left_eq, left_s) == []
        assert cells.check_union_refinement(left_eq, left_t) == []
    # B3 analogue: facet cells are unions of adjacent-chamber cells
    runs = {wt: weight_run(b3, wt)[1]
            for wt in [(1, 1, 1), (2, 1, 1), (1, 2, 2), (3, 2, 2), (3, 1, 1)]}
    assert cells.check_union_refinement(runs[(1, 1, 1)], runs[(3, 2, 2)]) == []
    assert cells.check_union_refinement(runs[(1, 1, 1)], runs[(1, 2, 2)]) == []
    assert cells.check_union_refinement(runs[(2, 1, 1)], runs[(3, 2, 2)]) == []
    assert cells.check_union_refinement(runs[(2, 1, 1)], runs[(3, 1, 1)]) == []
    report(9, "exact-ratio cells are exact unions of adjacent-chamber cells "
              "for F4 (a=b into 2a>b>a; b=2a into both b>2a and 2a>b>a), "
              "I2(m) and B3; the literal 'a=b into b>2a' reading fails "
              "as documented")


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_determinism(tmp_path, b3, i26):
    import hashlib
    from pathlib import Path

    def tree_digest(root):
        h = hashlib.sha256()
        for path in sorted(Path(root).rglob("*")):
            if path.is_file():
                h.update(path.relative_to(root).as_posix().encode())
                h.update(path.read_bytes())
        return h.hexdigest()

    digests = []
    for sub in ("one", "two"):
        cfg = pipeline.RunConfig(system="B3", weight=(2, 1, 1),
                                 checks=("lemmas", "bounds", "bar", "L"))
        res = pipeline.run_pipeline(cfg, sys=b3)
        out = pipeline.write_archive(res, tmp_path / sub / "archive")
        scan = weights.scan_equivalence_classes(
            i26, chart=pipeline.chart_for(i26))
        pipeline.write_scan(scan, tmp_path / sub / "scan", i26)
        digests.append(tree_digest(tmp_path / sub))
    assert digests[0] == digests[1]
    report(10, "two full pipeline reruns (archive + scan outputs) are "
               "byte-identical")
