import io
import json

import numpy as np
import pytest

import chargen
from klcells import cells, kl, reps
from klcells.laurent import lex_order, poly_from_terms

from conftest import system


def weight_run(name, weight):
    sys = system(name)
    space, params, order = kl.weight_params(sys, weight)
    data = kl.compute_kl(sys, params, order)
    left, edges = cells.left_cells(sys, data.mu)
    return sys, data, left


def test_bundled_tables_load():
    for name, rows, classes in [("a1", 2, 2), ("a2", 3, 3), ("a3", 5, 5),
                                ("b3", 10, 10), ("b4", 20, 20),
                                ("f4", 25, 25), ("i2_4", 5, 5),
                                ("i2_6", 6, 6), ("i2_8", 6, 7)]:
        table = reps.load_bundled_table(name)
        assert len(table.rows) == rows
        assert len(table.class_words) == classes
    a1 = reps.load_bundled_table("a1")
    assert sorted(a1.degrees) == [1, 1]
    assert {tuple(r) for r in a1.rows} == {(1, 1), (1, -1)}


def test_f4_table_shape():
    table = reps.load_bundled_table("f4")
    assert len(table.labels) == 25
    assert sorted(table.degrees) == sorted(
        [1] * 4 + [2] * 4 + [4] * 5 + [6] * 2 + [8] * 4 + [9] * 4 + [12, 16])
    assert table.labels == sorted(
        table.labels, key=lambda s: tuple(map(int, s.split("_"))))


def test_table_validation_errors():
    raw = chargen.dihedral_table(4)
    raw["irreducibles"][0]["values"][1] += 1
    with pytest.raises(reps.CharacterDataError):
        reps.load_character_table(io.StringIO(json.dumps(raw)))
    raw = chargen.dihedral_table(4)
    raw["class_sizes"][0] = 2
    with pytest.raises(reps.CharacterDataError):
        reps.load_character_table(io.StringIO(json.dumps(raw)))


def test_table_for_system_mismatch(i24, a2):
    table = reps.load_bundled_table("i2_4")
    assert reps.table_for_system(i24, table) == [0, 1, 2, 3, 4]
    with pytest.raises(reps.CharacterDataError):
        reps.table_for_system(a2, table)


@pytest.mark.parametrize("spellings", [
    ("G2", "I2:6", "I_2(6)"), ("B2", "I2:4"), ("C3", "B3"), ("C4", "B4"),
    ("I2:3", "A2")])
def test_chart_for_reads_the_coxeter_matrix(spellings):
    from klcells import pipeline

    charts = [pipeline.chart_for(system(name)) for name in spellings]
    assert all(c is not None for c in charts)
    assert len({(t.name, repr(t.rows), tuple(m)) for t, m in charts}) == 1


@pytest.mark.parametrize("name", ["H3", "A1xA1"])
def test_chart_for_without_a_table(name):
    from klcells import pipeline

    assert pipeline.chart_for(system(name)) is None


def test_word_products_match_the_plain_product():
    # the prefix walk against one matrix product per letter of each word
    sys, data, left = weight_run("B3", (2, 1, 1))
    words = [sys.words[rep] for rep, _ in sys.conjugacy_classes()]
    for blk in left.blocks:
        mats = reps.cell_action_matrices_v1(sys, data, blk)
        got = list(reps.word_products(mats, words, len(blk)))
        assert [word for word, _ in got] == sorted(words)
        for word, prod in got:
            want = np.eye(len(blk), dtype=np.int64)
            for s in word:
                want = want @ mats[s]
            assert np.array_equal(prod, want), (blk, word)


def test_word_products_refuse_int64_overflow():
    # 3 * 2**31 * 2**31 passes 2**63; one factor alone does not
    big = np.full((3, 3), 1 << 31, dtype=np.int64)
    (_, prod), = reps.word_products([big], [(0,)], 3)
    assert prod.max() == 1 << 31
    with pytest.raises(OverflowError):
        list(reps.word_products([big], [(0, 0)], 3))


def test_dixon_matches_closed_form_dihedral(i24, i26):
    for sys, name in ((i24, "i2_4"), (i26, "i2_6")):
        raw = chargen.dixon_table(sys)
        dixon = reps.load_character_table(io.StringIO(json.dumps(raw)))
        closed = reps.load_bundled_table(name)
        assert sorted(map(tuple, dixon.rows)) == sorted(map(tuple, closed.rows))


def check_group_relations(sys, mats, dim):
    """The pairs s <= t whose relation (st)^m_st = 1 fails for the
    specialized matrices: quadratic for s = t, braid otherwise."""
    pair_of = {(s, t) * sys.spec.matrix[s][t]: (s, t)
               for s in range(sys.rank) for t in range(s, sys.rank)}
    eye = np.eye(dim, dtype=np.int64)
    return sorted(pair_of[word] for word, prod in
                  reps.word_products(mats, pair_of, dim)
                  if not np.array_equal(prod, eye))


def test_trivial_and_sign_cells():
    for name, weight in (("I2:4", (2, 1)), ("A2", (1, 1)), ("B3", (1, 2, 2))):
        sys, data, left = weight_run(name, weight)
        mu_idx = data.mu_by_sw()
        triv = left.blocks[left.block_of[0]]
        assert triv == (0,)
        mats = reps.cell_action_matrices_v1(sys, data, triv, mu_idx)
        assert not check_group_relations(sys, mats, len(triv))
        values = reps.cell_character(sys, data, triv, mu_idx)
        assert all(v == 1 for v in values)
        sign_cell = left.blocks[left.block_of[sys.longest]]
        assert sign_cell == (sys.longest,)
        mats = reps.cell_action_matrices_v1(sys, data, sign_cell, mu_idx)
        assert not check_group_relations(sys, mats, len(sign_cell))
        values = reps.cell_character(sys, data, sign_cell, mu_idx)
        reps_classes = sys.conjugacy_classes()
        assert values == [(-1) ** sys.length[rep] for rep, _ in reps_classes]


def test_cell_action_matrix_by_hand(i24):
    """Two-element cell {s, ts} under the lexicographic order: at
    v_s = v_t = 1 the action entries follow the module rule, with
    M^s_{s,ts} = v_s/v_t + v_t/v_s taking the value 2."""
    sys = i24
    space, params = kl.class_params(sys)
    order = lex_order(space)
    data = kl.compute_kl(sys, params, order)
    left, _ = cells.left_cells(sys, data.mu)
    s_elt = sys.word_to_element((0,))
    ts = sys.word_to_element((1, 0))
    cell = left.blocks[left.block_of[s_elt]]
    assert cell == (s_elt, ts)
    assert data.mu[0, s_elt, ts] == poly_from_terms(
        space, [((1, -1), 1), ((-1, 1), 1)])
    mat_s, mat_t = reps.cell_action_matrices_v1(sys, data, cell)
    # T_s e_s = -v_s^-1 e_s ; T_s e_ts = v_s e_ts + M e_s (sign (-1)^1 = -1)
    assert mat_s.tolist() == [[-1, 2], [0, 1]]
    # T_t e_s = e_ts + v_t e_s ; T_t e_ts = -v_t^-1 e_ts
    assert mat_t.tolist() == [[1, 0], [1, -1]]


def test_regular_character_sum():
    for name, weight, table_name in (("I2:6", (1, 2), "i2_6"),
                                     ("A3", (1, 1, 1), "a3"),
                                     ("B3", (2, 1, 1), "b3")):
        sys, data, left = weight_run(name, weight)
        chars = reps.all_cell_characters(sys, data, left)
        if sys.size <= 24:
            for blk in left.blocks:
                mats = reps.cell_action_matrices_v1(sys, data, blk)
                assert not check_group_relations(sys, mats, len(blk))
        table = reps.load_bundled_table(table_name)
        class_map = reps.table_for_system(sys, table)
        degrees = {}
        for values in chars:
            for lab, m in reps.decompose(values, table, class_map):
                degrees[lab] = degrees.get(lab, 0) + m
        # every irreducible occurs with total multiplicity equal to its degree
        for lab, deg in zip(table.labels, table.degrees):
            assert degrees.get(lab, 0) * table.norms[table.labels.index(lab)] \
                == deg


def test_decompose_rejects_mismatches(i24):
    table = reps.load_bundled_table("i2_4")
    class_map = reps.table_for_system(i24, table)
    with pytest.raises(reps.CharacterDataError):
        reps.decompose([3, 0, 0, 0, 0], table, class_map)  # not a character
    triv = [1, 1, 1, 1, 1]
    assert reps.decompose(triv, table, class_map) == [("1_1", 1)]
    assert reps.decomposition_name([("4_1", 1), ("16_1", 2)]) \
        == "4_1 + 2*16_1"


def test_folded_dihedral_decomposition():
    # the regular character of I2(8) decomposes with the folded row
    # carrying multiplicity two per member times ... exactly degree/norm
    sys = system("I2:8")
    table = reps.load_bundled_table("i2_8")
    class_map = reps.table_for_system(sys, table)
    regular = [sys.size] + [0] * (len(sys.conjugacy_classes()) - 1)
    got = dict(reps.decompose(regular, table, class_map))
    assert got["2_1+2_3"] == 2
    assert got["2_2"] == 2
    assert got["1_1"] == 1


def test_b2a_box_has_no_common_constituent():
    """The three constructible characters sharing the two-sided cell of
    1_3 at b = 2a have no irreducible constituent in common."""
    from klcells import pipeline

    node, = (n for n in pipeline.load_reference("b2a")["nodes"]
             if n["label"] == "1_3")
    box = [dict(c) for c in node["cells"]]
    assert box == [{"1_3": 1, "8_3": 1}, {"2_1": 1, "9_1": 1},
                   {"8_3": 1, "9_1": 1}]
    common = set(box[0])
    for c in box[1:]:
        common &= set(c)
    assert common == set()
