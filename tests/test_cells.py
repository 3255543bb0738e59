import pytest

from klcells import cells, kl
from klcells.laurent import lex_order, padd_into, pmul, pscale, psub_into

from conftest import system


def run(name, weight=None):
    sys = system(name)
    if weight is None:
        space, params = kl.class_params(sys)
        order = lex_order(space)
    else:
        space, params, order = kl.weight_params(sys, weight)
    data = kl.compute_kl(sys, params, order)
    left, edges = cells.left_cells(sys, data.mu)
    ts = cells.two_sided_cells(sys, edges)
    return sys, data, left, edges, ts


def test_identity_edges(i24):
    space, params = kl.class_params(i24)
    data = kl.compute_kl(i24, params, lex_order(space))
    edges = cells.left_edges(i24, data.mu)
    # every generator contributes the elementary relation between 1 and s
    for s in range(i24.rank):
        g = i24.word_to_element((s,))
        assert (g, 0) in edges


@pytest.mark.parametrize("m", [4, 6, 8])
def test_dihedral_unequal_cells(m):
    sys, data, left, edges, ts = run(f"I2:{m}")
    assert len(left) == 6
    assert len(ts) == 5
    # mu edges occur exactly at length gaps 1 and 3
    gaps = {sys.length[w] - sys.length[y] for (_, y, w) in data.mu}
    assert gaps <= {1, 3}
    assert cells.check_property_L(sys, left, ts) == []
    # the identity is always a singleton block
    assert left.blocks[left.block_of[0]] == (0,)


def test_dihedral_equal_cells(i24):
    sys, data, left, edges, ts = run("I2:4", weight=(1, 1))
    blocks = {tuple(sorted(sys.word_text(w) for w in blk))
              for blk in left.blocks}
    assert blocks == {("e",), ("1", "121", "21"), ("12", "2", "212"),
                      ("1212",)}
    assert len(ts) == 3


def test_a2_equal_cells_match_brute_force(a2):
    sys, data, left, edges, ts = run("A2", weight=(1, 1))
    blocks = {tuple(sorted(sys.word_text(w) for w in blk))
              for blk in left.blocks}
    assert blocks == {("e",), ("1", "21"), ("12", "2"), ("121",)}
    assert cells.check_property_L(sys, left, ts) == []


def test_a2_multiplication_rule_brute_force(a2):
    """Re-expand T_s * C_w in the T-basis and compare against the rule
    C_{sw} - v_s^-1 C_w + sum of M^s C_y, for every s and every sw > w."""
    sys = a2
    space, params, order = kl.weight_params(sys, (1, 1))
    data = kl.compute_kl(sys, params, order)
    one = space.one
    mu_by_sw = {}
    for (s, y, w), mp in data.mu.items():
        mu_by_sw.setdefault((s, w), []).append((y, mp))
    for w in range(sys.size):
        for s in range(sys.rank):
            sw = sys.cayley_left[s][w]
            if sys.length[sw] < sys.length[w]:
                continue
            # left side: T_s * C_w computed directly from the T-basis rule
            lhs = {}
            vs, vsi = params[s], space.inv(params[s])
            for y, p in data.rows[w].items():
                sy = sys.cayley_left[s][y]
                q = lhs.setdefault(sy, {})
                padd_into(q, p)
                if sys.length[sy] < sys.length[y]:
                    corr = pscale(p, 1, vs, one)
                    padd_into(corr, pscale(p, -1, vsi, one))
                    padd_into(lhs.setdefault(y, {}), corr)
            # right side: C_{sw} - v_s^-1 C_w + corrections
            rhs = {}
            for y, p in data.rows[sw].items():
                padd_into(rhs.setdefault(y, {}), p)
            for y, p in data.rows[w].items():
                psub_into(rhs.setdefault(y, {}), pscale(p, 1, vsi, one))
            for y, mp in mu_by_sw.get((s, w), ()):
                for z, p in data.rows[y].items():
                    padd_into(rhs.setdefault(z, {}), pmul(mp, p, one))
            lhs = {y: p for y, p in lhs.items() if p}
            rhs = {y: p for y, p in rhs.items() if p}
            assert lhs == rhs, (s, sys.word_text(w))


def test_right_cells_are_inverted_left_cells(i24):
    sys, data, left, edges, ts = run("I2:4")
    right = cells.right_cells(sys, left)
    inv_blocks = {tuple(sorted(sys.inverse[w] for w in blk))
                  for blk in left.blocks}
    assert set(right.blocks) == inv_blocks
    # involution-closed left cells equal their right counterparts
    for blk in left.blocks:
        if all(sys.inverse[w] in blk for w in blk):
            assert blk in right.blocks


def test_two_sided_blocks_are_unions():
    for name, weight in (("I2:6", None), ("B3", (2, 1, 1))):
        sys, data, left, edges, ts = run(name, weight)
        assert cells.check_union_refinement(ts, left) == []
        right = cells.right_cells(sys, left)
        assert cells.check_union_refinement(ts, right) == []


def test_partition_depends_only_on_zero_pattern(b3):
    sys, data, left, edges, ts = run("B3", weight=(3, 1, 1))
    one = data.space.one
    flat_mu = {key: {one: 1} for key in data.mu}
    left2, edges2 = cells.left_cells(sys, flat_mu)
    assert left2.canonical() == left.canonical()
    ts2 = cells.two_sided_cells(sys, edges2)
    assert ts2.canonical() == ts.canonical()


def test_block_dag_and_closure():
    sys, data, left, edges, ts = run("I2:4", weight=(2, 1))
    # closure is reflexive-transitive and idempotent
    clo = left.closure()
    for b in range(len(left.blocks)):
        assert b in clo[b]
        for c in clo[b]:
            assert clo[c] <= clo[b]
    # identity block is the unique maximum, w0 block the unique minimum
    top = left.block_of[0]
    bot = left.block_of[sys.longest]
    assert all(top in clo[b] for b in range(len(left.blocks)))
    assert clo[bot] == frozenset(range(len(left.blocks)))


def test_property_l_detects_violations(i24):
    sys, data, left, edges, ts = run("I2:4")
    # gluing all blocks into one fake two-sided cell must raise violations
    fake = cells.CellPartition(blocks=(tuple(range(sys.size)),),
                               block_of=(0,) * sys.size)
    assert cells.check_property_L(sys, left, fake)


@pytest.mark.parametrize("name,weight",
                         [("B4", (5, 2, 2, 2)), ("I2:6", (2, 1))])
def test_blocks_are_sorted_and_ordered_by_their_least_element(name, weight):
    sys, data, left, edges, ts = run(name, weight)
    for part in (left, cells.right_cells(sys, left), ts):
        assert all(isinstance(b, tuple) and list(b) == sorted(b)
                   for b in part.blocks)
        least = [b[0] for b in part.blocks]
        assert least == sorted(least)
        # indices are breadth-first by length, so the two orders agree
        assert least == sorted(least, key=lambda v: (sys.length[v], v))
        assert all(part.block_of[w] == i
                   for i, b in enumerate(part.blocks) for w in b)


def test_dot_export():
    sys, data, left, edges, ts = run("A1", weight=(1,))
    dot = cells.dot_export(ts, labels=["triv", "sign"])
    # the sign block (index 1, holding w0) sits below the trivial block
    assert "digraph" in dot and "b1 -> b0" in dot
    assert dot.count("->") == 1
