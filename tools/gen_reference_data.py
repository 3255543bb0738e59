#!/usr/bin/env python3
"""Emit the F4 reference data files under klcells/data/cellorder.

Contents are a transcription of the published two-sided cell diagrams
and left-cell representation lists for the four parameter classes of
F4, one file per class.  Each diagram node is labeled by an
irreducible character name; an unstarred node is a two-sided cell all
of whose left cells carry that single irreducible, a starred node
carries the several constructible characters listed for it.  The
constructible characters of a class are those of all its nodes.  Hasse
edges are oriented from the w0 side (sign character) up to the identity
side (trivial character).

Usage: python tools/gen_reference_data.py [datadir]
"""

import json
import sys as _sys
from pathlib import Path

DATADIR = Path(_sys.argv[1]) if len(_sys.argv) > 1 else (
    Path(__file__).resolve().parent.parent / "src" / "klcells" / "data"
)


def mults(text):
    """Parse '1_3 + 2*9_3 + 6_2' into a sorted [[label, mult], ...] list."""
    out = {}
    for part in text.split("+"):
        part = part.strip()
        if "*" in part:
            k, lab = part.split("*")
            out[lab.strip()] = int(k)
        else:
            out[part] = out.get(part, 0) + 1
    return sorted(out.items())


BOXES = {
    "equal": {
        "4_2": ["2_3 + 4_2", "2_1 + 4_2"],
        "12_1": [
            "9_3 + 6_1 + 12_1 + 4_4 + 16_1",
            "9_2 + 6_1 + 12_1 + 4_3 + 16_1",
            "4_1 + 9_2 + 9_3 + 6_2 + 12_1 + 2*16_1",
            "1_3 + 2*9_3 + 6_2 + 12_1 + 4_4 + 16_1",
            "1_2 + 2*9_2 + 6_2 + 12_1 + 4_3 + 16_1",
        ],
        "4_5": ["2_4 + 4_5", "2_2 + 4_5"],
    },
    "b2a": {
        "1_3": ["1_3 + 8_3", "2_1 + 9_1", "9_1 + 8_3"],
        "16_1": ["6_1 + 12_1 + 16_1", "6_2 + 12_1 + 16_1", "4_1 + 16_1"],
        "1_2": ["1_2 + 8_4", "2_2 + 9_4", "9_4 + 8_4"],
    },
    "between": {
        "16_1": ["6_1 + 12_1 + 16_1", "6_2 + 12_1 + 16_1", "4_1 + 16_1"],
    },
    "beyond": {
        "16_1": ["6_1 + 12_1 + 16_1", "6_2 + 12_1 + 16_1", "4_1 + 16_1"],
    },
}

# Hasse edges bottom (1_4 / sign side) to top (1_1 / trivial side)
HASSE = {
    "equal": [
        ("1_4", "4_5"), ("4_5", "9_4"), ("9_4", "8_2"), ("9_4", "8_4"),
        ("8_2", "12_1"), ("8_4", "12_1"), ("12_1", "8_1"), ("12_1", "8_3"),
        ("8_1", "9_1"), ("8_3", "9_1"), ("9_1", "4_2"), ("4_2", "1_1"),
    ],
    "b2a": [
        ("1_4", "2_4"), ("2_4", "4_5"), ("4_5", "1_2"), ("1_2", "4_3"),
        ("1_2", "8_2"), ("4_3", "9_2"), ("9_2", "16_1"), ("8_2", "16_1"),
        ("16_1", "9_3"), ("16_1", "8_1"), ("9_3", "4_4"), ("4_4", "1_3"),
        ("8_1", "1_3"), ("1_3", "4_2"), ("4_2", "2_3"), ("2_3", "1_1"),
    ],
    "between": [
        ("1_4", "2_4"), ("2_4", "4_5"), ("4_5", "2_2"), ("2_2", "9_4"),
        ("9_4", "8_4"), ("9_4", "8_2"), ("8_4", "1_2"), ("1_2", "4_3"),
        ("4_3", "9_2"), ("9_2", "16_1"), ("8_2", "16_1"), ("16_1", "9_3"),
        ("16_1", "8_1"), ("9_3", "4_4"), ("4_4", "1_3"), ("1_3", "8_3"),
        ("8_3", "9_1"), ("8_1", "9_1"), ("9_1", "2_1"), ("2_1", "4_2"),
        ("4_2", "2_3"), ("2_3", "1_1"),
    ],
    "beyond": [
        ("1_4", "2_4"), ("2_4", "1_2"), ("2_4", "4_5"), ("1_2", "8_4"),
        ("4_5", "8_4"), ("8_4", "9_4"), ("8_4", "4_3"), ("9_4", "2_2"),
        ("9_4", "9_2"), ("2_2", "8_2"), ("4_3", "9_2"), ("9_2", "16_1"),
        ("8_2", "16_1"), ("16_1", "9_3"), ("16_1", "8_1"), ("9_3", "9_1"),
        ("9_3", "4_4"), ("8_1", "2_1"), ("2_1", "9_1"), ("9_1", "8_3"),
        ("4_4", "8_3"), ("8_3", "1_3"), ("8_3", "4_2"), ("1_3", "2_3"),
        ("4_2", "2_3"), ("2_3", "1_1"),
    ],
}


def nodes_of(case):
    names = []
    for a, b in HASSE[case]:
        for x in (a, b):
            if x not in names:
                names.append(x)
    return names


def main():
    for case in ("equal", "b2a", "between", "beyond"):
        nodes = []
        for name in nodes_of(case):
            if name in BOXES[case]:
                cell_chars = [mults(t) for t in BOXES[case][name]]
            else:
                cell_chars = [mults(name)]
            nodes.append({"label": name, "cells": cell_chars})
        order_path = DATADIR / "cellorder" / f"f4_{case}.json"
        order_path.parent.mkdir(parents=True, exist_ok=True)
        with open(order_path, "w", encoding="utf-8") as fh:
            json.dump({"case": case, "nodes": nodes,
                       "hasse_low_to_high": [list(e) for e in HASSE[case]]},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("wrote", order_path)


if __name__ == "__main__":
    main()
