"""Left-cell modules, their characters and character-table decomposition.

The action of T_s on the free module over a left cell has the matrix

    T_s . e_w = e_{sw} + v_s e_w
                - sum over z < w, sz < z of (-1)^(l(w)-l(z)) M^s_{z,w} e_z
                                                        if sw > w,
    T_s . e_w = -v_s^-1 e_w                             if sw < w,

with e_z read as 0 outside the cell.  Specializing v_s -> 1 turns the
generator matrices into an integer representation of W; the character
carried by the cell is obtained by multiplying those matrices along
reduced words of conjugacy-class representatives and taking traces.

Character tables are shipped as JSON data files and validated on load
(integer values, row orthogonality with per-row norms).  A row norm
larger than 1 marks a Galois-folded row: the sum of an orbit of
algebraically conjugate irreducibles, which is what the dihedral table
for m = 8 needs to stay integer-valued.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

_INT64_GUARD = 1 << 26  # refuse int64 matmul once entries could overflow


class CharacterDataError(ValueError):
    """Character table file is malformed or fails validation."""


@dataclass
class CharacterTable:
    name: str
    group_order: int
    class_words: list        # reduced word (tuple of generator indices) per class
    class_sizes: list
    labels: list
    rows: list               # rows[i][j] = value of irreducible i on class j
    norms: list              # inner-product norm per row (1 = true irreducible)

    @property
    def degrees(self):
        identity = self.class_words.index(())
        return [row[identity] for row in self.rows]

    def row_by_label(self, label):
        return self.rows[self.labels.index(label)]


def load_character_table(path_or_file):
    """Load and validate a character table JSON file."""
    if hasattr(path_or_file, "read"):
        raw = json.load(path_or_file)
    else:
        with open(path_or_file, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    try:
        table = CharacterTable(
            name=raw["name"],
            group_order=int(raw["group_order"]),
            class_words=[tuple(w) for w in raw["class_words"]],
            class_sizes=[int(s) for s in raw["class_sizes"]],
            labels=[r["label"] for r in raw["irreducibles"]],
            rows=[[int(v) for v in r["values"]] for r in raw["irreducibles"]],
            norms=[int(r.get("norm", 1)) for r in raw["irreducibles"]],
        )
    except (KeyError, TypeError) as exc:
        raise CharacterDataError(f"bad character table schema: {exc}") from exc
    k = len(table.class_words)
    if len(table.class_sizes) != k or any(len(r) != k for r in table.rows):
        raise CharacterDataError("ragged character table")
    if sum(table.class_sizes) != table.group_order:
        raise CharacterDataError("class sizes do not sum to the group order")
    if () not in table.class_words:
        raise CharacterDataError("no identity class")
    if len(set(table.labels)) != len(table.labels):
        raise CharacterDataError("duplicate row labels")
    # row orthogonality (all shipped tables are real-valued)
    n = len(table.rows)
    for i in range(n):
        for j in range(i, n):
            dot = sum(sz * a * b for sz, a, b in
                      zip(table.class_sizes, table.rows[i], table.rows[j]))
            want = table.group_order * table.norms[i] if i == j else 0
            if dot != want:
                raise CharacterDataError(
                    f"orthogonality fails for rows {table.labels[i]}, "
                    f"{table.labels[j]}: {dot} != {want}"
                )
    return table


def bundled_table_path(name):
    """Path to a character table shipped with the package."""
    return resources.files("klcells").joinpath(f"data/chartables/{name}.json")


def load_bundled_table(name):
    with bundled_table_path(name).open("r", encoding="utf-8") as fh:
        return load_character_table(fh)


def table_for_system(sys, table):
    """Map the table's classes onto the system's conjugacy classes.

    Returns ``class_map`` with ``class_map[i]`` = index of the system
    class containing the table's i-th representative; raises if the map
    is not a size-preserving bijection.
    """
    classes = sys.conjugacy_classes()
    if table.group_order != sys.size:
        raise CharacterDataError(
            f"table is for a group of order {table.group_order}, "
            f"system has order {sys.size}"
        )
    idx_of = sys.class_index_of()
    class_map = []
    for word, size in zip(table.class_words, table.class_sizes):
        e = sys.word_to_element(word)
        ci = idx_of[e]
        if len(classes[ci][1]) != size:
            raise CharacterDataError(
                f"class of word {word} has size {len(classes[ci][1])}, "
                f"table says {size}"
            )
        class_map.append(ci)
    if sorted(class_map) != list(range(len(classes))):
        raise CharacterDataError("table classes do not biject onto system classes")
    return class_map


# ---------------------------------------------------------------------------
# cell action


def cell_action_matrices_v1(sys, kl_data, cell, mu_by_sw=None):
    """Integer generator matrices of the cell module at v_s -> 1."""
    if mu_by_sw is None:
        mu_by_sw = kl_data.mu_by_sw()
    pos = {w: i for i, w in enumerate(cell)}
    n = len(cell)
    length = sys.length
    mats = []
    for s in range(sys.rank):
        mat = np.zeros((n, n), dtype=np.int64)
        for j, w in enumerate(cell):
            sw = sys.cayley_left[s][w]
            if length[sw] < length[w]:
                mat[j, j] -= 1
                continue
            mat[j, j] += 1
            if sw in pos:
                mat[pos[sw], j] += 1
            for z, m_poly in mu_by_sw.get((s, w), ()):
                i = pos.get(z)
                if i is None:
                    continue
                sign = -1 if (length[w] - length[z]) % 2 else 1
                mat[i, j] -= sign * sum(m_poly.values())
        mats.append(mat)
    return mats


def _word_product(mats, word, dim):
    acc = np.eye(dim, dtype=np.int64)
    exact = None
    for s in word:
        if exact is None:
            if dim and np.abs(acc).max() >= _INT64_GUARD:
                exact = acc.astype(object)
            else:
                acc = acc @ mats[s]
                continue
        exact = exact @ mats[s].astype(object)
    return acc if exact is None else exact


def check_group_relations(sys, mats, dim):
    """Quadratic and braid relations for the specialized matrices."""
    eye = np.eye(dim, dtype=np.int64)
    bad = []
    for s in range(sys.rank):
        if not np.array_equal(mats[s] @ mats[s], eye):
            bad.append(("quadratic", s))
    for s in range(sys.rank):
        for t in range(s + 1, sys.rank):
            m = sys.spec.matrix[s][t]
            prod = _word_product(mats, (s, t) * m, dim)
            if not np.array_equal(np.asarray(prod, dtype=object),
                                  np.asarray(eye, dtype=object)):
                bad.append(("braid", s, t))
    return bad


def cell_character(sys, kl_data, cell, mu_by_sw=None, check_relations=False):
    """Character of the W-representation carried by a left cell.

    Returns a list of integer values indexed by the system's conjugacy
    classes (representatives as produced by ``sys.conjugacy_classes``).
    """
    mats = cell_action_matrices_v1(sys, kl_data, cell, mu_by_sw)
    dim = len(cell)
    if check_relations:
        bad = check_group_relations(sys, mats, dim)
        if bad:
            raise AssertionError(f"cell module violates group relations: {bad}")
    values = []
    for rep, _ in sys.conjugacy_classes():
        prod = _word_product(mats, sys.words[rep], dim)
        tr = prod.trace()
        tr = int(tr)
        values.append(tr)
    if values[0] != dim:
        raise AssertionError("character degree != cell size")
    return values


def all_cell_characters(sys, kl_data, left, check_relations=False):
    """Characters of every left cell, plus the regular-character identity.

    The sum of all cell characters must be |W| on the identity class and
    0 elsewhere; that is asserted here since it is an exact global check
    on the M-table and the cell partition at once.
    """
    mu_by_sw = kl_data.mu_by_sw()
    chars = [cell_character(sys, kl_data, blk, mu_by_sw, check_relations)
             for blk in left.blocks]
    total = [sum(col) for col in zip(*chars)]
    expect = [sys.size] + [0] * (len(total) - 1)
    if total != expect:
        raise AssertionError(
            f"cell characters do not sum to the regular character: {total}"
        )
    return chars


def decompose(values, table, class_map):
    """Multiplicities of table rows in an integer class function.

    ``values`` is indexed by system classes, ``class_map`` aligns table
    columns with system classes.  All multiplicities must come out as
    nonnegative integers and reconstruct the class function exactly;
    anything else signals a mismatched table and raises.
    """
    mults = []
    for label, row, norm in zip(table.labels, table.rows, table.norms):
        dot = sum(sz * a * values[ci] for sz, a, ci in
                  zip(table.class_sizes, row, class_map))
        denom = table.group_order * norm
        if dot % denom:
            raise CharacterDataError(
                f"non-integral multiplicity for {label}: {dot}/{denom}"
            )
        m = dot // denom
        if m < 0:
            raise CharacterDataError(f"negative multiplicity for {label}: {m}")
        if m:
            mults.append((label, m))
    # exact reconstruction
    recon = [0] * len(values)
    for label, m in mults:
        row = table.row_by_label(label)
        for j, ci in enumerate(class_map):
            recon[ci] += m * row[j]
    if recon != list(values):
        raise CharacterDataError("multiplicities do not reconstruct the character")
    return mults


def _label_key(label):
    """Numeric sort key for labels like ``9_2`` (strings sort after)."""
    parts = label.replace("+", "_").split("_")
    try:
        return (0, tuple(int(p) for p in parts))
    except ValueError:
        return (1, (label,))


def decomposition_name(mults):
    """Canonical text like ``"4_1 + 2*16_1"`` for a decomposition."""
    return " + ".join(f"{m}*{label}" if m > 1 else label
                      for label, m in sorted(mults,
                                             key=lambda p: _label_key(p[0])))
