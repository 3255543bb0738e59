#!/usr/bin/env python3
"""Generate the character-table data files shipped under klcells/data.

Dihedral tables use the closed form; all other types go through the
Burnside-Dixon construction.  For F4 the systematic row labels are
replaced by the conventional names 1_1 .. 16_1: the invariant used to
pin a name onto a computed row is the pair

    (degree,  Delta(d_C) of the two-sided cell carrying the row at b = 2a)

which separates all 25 rows except the two of degree 6.  That last pair
is split using the a = b cell data: 6_1 is the degree-6 constituent
sharing a left cell with 9_3, 12_1, 4_4 and 16_1 (each once), 6_2 the
one sharing a left cell with 4_1.  Both computations run here from
scratch, so regenerating the files is deterministic end to end.

Usage: python tools/gen_chartables.py [outdir]
"""

import io
import json
import sys as _sys
from collections import Counter
from pathlib import Path

import chargen
from klcells import cells, coxeter, kl, reps, weights

OUTDIR = Path(_sys.argv[1]) if len(_sys.argv) > 1 else (
    Path(__file__).resolve().parent.parent / "src" / "klcells" / "data" / "chartables"
)

# Delta(d_C) value at b = 2a (in units of a) -> row names of that degree
F4_NAMES_BY_DELTA_DEGREE = {
    (0, 1): "1_1", (1, 2): "2_3", (2, 4): "4_2",
    (3, 1): "1_3", (3, 2): "2_1", (3, 9): "9_1", (3, 8): "8_3",
    (5, 4): "4_4", (6, 9): "9_3", (6, 8): "8_1",
    (7, 4): "4_1", (7, 12): "12_1", (7, 16): "16_1",
    (10, 9): "9_2", (11, 4): "4_3", (12, 8): "8_2",
    (15, 1): "1_2", (15, 2): "2_2", (15, 9): "9_4", (15, 8): "8_4",
    (20, 4): "4_5", (25, 2): "2_4", (36, 1): "1_4",
}


def write(raw, name):
    OUTDIR.mkdir(parents=True, exist_ok=True)
    path = OUTDIR / f"{name}.json"
    # validate through the loader before writing
    reps.load_character_table(io.StringIO(json.dumps(raw)))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote", path)


def run_cells(sys_, weight):
    _, w, order = kl.weight_params(sys_, weight)
    data = kl.compute_kl(sys_, w, order)
    left, edges = cells.left_cells(sys_, data.mu)
    ts = cells.two_sided_cells(sys_, edges)
    return data, left, ts


def label_f4(raw):
    f4 = coxeter.build_system("F4")
    table = reps.load_character_table(io.StringIO(json.dumps(raw)))
    class_map = reps.table_for_system(f4, table)

    data, left, ts = run_cells(f4, (1, 1, 2, 2))
    chars = reps.all_cell_characters(f4, data, left)
    decomp = [dict(reps.decompose(v, table, class_map)) for v in chars]
    dist = weights.distinguished_involutions(data, left)
    assert dist.ok
    delta_of_cell = {e["cell"]: e["delta"] for e in dist.per_cell}

    # a row's two-sided cell and its Delta value
    ts_of_left = [ts.block_of[blk[0]] for blk in left.blocks]
    delta_of_ts = {}
    rows_of_ts = {}
    for ci, mults in enumerate(decomp):
        t = ts_of_left[ci]
        d = delta_of_cell[ci]
        assert delta_of_ts.setdefault(t, d) == d, \
            "left cells of one two-sided cell disagree on Delta"
        rows_of_ts.setdefault(t, set()).update(mults)
    label_of_row = {}
    degrees = table.degrees
    for t, rows in rows_of_ts.items():
        for lab in rows:
            i = table.labels.index(lab)
            key = (delta_of_ts[t], degrees[i])
            if key in ((7, 6),):
                continue  # 6_1 vs 6_2 resolved below
            name = F4_NAMES_BY_DELTA_DEGREE[key]
            assert label_of_row.setdefault(lab, name) == name
    assert len(label_of_row) == 23, sorted(label_of_row)

    # split the two degree-6 rows using the a = b cell pattern
    data_eq, left_eq, _ = run_cells(f4, (1, 1, 1, 1))
    chars_eq = reps.all_cell_characters(f4, data_eq, left_eq)
    decomp_eq = [dict(reps.decompose(v, table, class_map)) for v in chars_eq]
    six_rows = [lab for i, lab in enumerate(table.labels)
                if degrees[i] == 6 and lab not in label_of_row]
    assert len(six_rows) == 2
    name_by_old = {v: k for k, v in label_of_row.items()}
    want_61 = {name_by_old["9_3"]: 1, name_by_old["12_1"]: 1,
               name_by_old["4_4"]: 1, name_by_old["16_1"]: 1}
    six_1 = None
    for mults in decomp_eq:
        for lab in six_rows:
            if mults.get(lab) == 1:
                rest = {k: v for k, v in mults.items() if k != lab}
                if rest == want_61:
                    six_1 = lab
    assert six_1 is not None, "a=b cell pattern for 6_1 not found"
    label_of_row[six_1] = "6_1"
    label_of_row[next(l for l in six_rows if l != six_1)] = "6_2"

    def sort_key(name):
        d, i = name.split("_")
        return (int(d), int(i))

    relabeled = []
    for r in raw["irreducibles"]:
        relabeled.append({"label": label_of_row[r["label"]],
                          "values": r["values"], "norm": r["norm"]})
    relabeled.sort(key=lambda r: sort_key(r["label"]))
    raw = dict(raw)
    raw["irreducibles"] = relabeled

    # cross-check: the Delta multiset must match the published a-values
    expected = sorted([0, 1, 2, 3, 5, 6, 6, 7, 10, 11, 12, 15, 20, 25, 36])
    assert sorted(delta_of_ts.values()) == expected, sorted(delta_of_ts.values())
    return raw


def main():
    for m in (4, 6, 8):
        write(chargen.dihedral_table(m), f"i2_{m}")
    for name in ("A1", "A2", "A3", "B3", "B4"):
        sys_ = coxeter.build_system(name)
        write(chargen.dixon_table(sys_, name=name), name.lower())
    f4 = coxeter.build_system("F4")
    raw = chargen.dixon_table(f4, name="F4")
    write(label_f4(raw), "f4")


if __name__ == "__main__":
    main()
