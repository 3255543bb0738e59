"""End-to-end runs, deterministic dumps and reference comparisons.

A run is configured by a system type plus exactly one of a weight
function or a monomial-order functional stack.  The pipeline computes
the canonical basis tables, the M-table, the three cell partitions,
cell characters (when a character table for the type is bundled), the
certifying monomial set and distinguished-involution data, runs the
requested verification suites, and writes everything into a
content-addressed archive directory.  Reruns with the same
configuration produce byte-identical files: all output is sorted,
fractions are exact, and no timestamps are recorded.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import cells as cells_mod
from . import kl as kl_mod
from . import reps as reps_mod
from . import weights as weights_mod
from .coxeter import build_system, parse_type
from .laurent import MonomialOrder, MonomialSpace, poly_json, poly_text

_TABLE_FOR_TYPE = {
    "A1": "a1", "A2": "a2", "A3": "a3", "B3": "b3", "B4": "b4", "F4": "f4",
    "I2:4": "i2_4", "I2:6": "i2_6", "I2:8": "i2_8",
}

CHECKS = ("lemmas", "bounds", "bar", "L", "oracle")


@dataclass
class RunConfig:
    """One computation: a system plus a weight function or an order."""

    system: str
    weight: tuple | None = None
    order_functionals: tuple | None = None
    checks: tuple = ("lemmas", "bounds")
    cap: int = 20000
    cross_check: bool = False

    def __post_init__(self):
        if (self.weight is None) == (self.order_functionals is None):
            raise ValueError("specify exactly one of weight / order functionals")
        unknown = sorted(set(self.checks) - set(CHECKS))
        if unknown:
            raise ValueError(f"unknown check(s) {', '.join(map(repr, unknown))}"
                             f"; choose from {','.join(CHECKS)}")
        if self.weight is not None:
            self.weight = tuple(int(x) for x in self.weight)
        else:
            self.order_functionals = tuple(
                tuple(int(c) for c in f) for f in self.order_functionals
            )

    def canonical(self):
        return {
            "system": self.system,
            "weight": list(self.weight) if self.weight else None,
            "order_functionals": [list(f) for f in self.order_functionals]
            if self.order_functionals else None,
            "checks": sorted(self.checks),
            # constant; kept so that archive keys and meta.json stay
            # unchanged until the key carries a format version
            "orientation": "containment",
        }

    def key(self):
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RunResult:
    config: RunConfig
    sys: object
    kl: object
    left: object
    right: object
    two_sided: object
    edges: object
    gamma: set
    left_chars: list | None = None      # decompositions per left cell
    distinguished: object | None = None
    reports: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(getattr(r, "ok", True) for r in self.reports.values())


def table_name_for(sys_name):
    """Bundled character-table name for a type string, or None."""
    return _TABLE_FOR_TYPE.get(sys_name.replace("_", "").upper()
                               .replace("I2(", "I2:").rstrip(")"))


def chartable_for(sys_name):
    key = table_name_for(sys_name)
    return None if key is None else reps_mod.load_bundled_table(key)


def run_pipeline(config, sys=None, progress=None):
    """Compute and analyse one configuration, then run its checks.

    The analysis is ``weights.analyse``, the same path every scan region
    takes; a character table that is bundled for the type but does not
    fit the system raises ``CharacterDataError``.
    """
    if sys is None:
        sys = build_system(config.system, cap=config.cap)
    if config.weight is not None:
        space, params, order = kl_mod.weight_params(sys, config.weight)
    else:
        space = MonomialSpace(len(sys.gen_classes))
        _, params = kl_mod.class_params(sys, space)
        order = MonomialOrder(space, config.order_functionals)
    data = kl_mod.compute_kl(sys, params, order, progress=progress)
    gamma = weights_mod.gamma_plus_W(data)
    table = chartable_for(config.system)
    chart = None if table is None else (
        table, reps_mod.table_for_system(sys, table))
    # an order run on a multi-class space has no coordinate weights
    found = weights_mod.analyse(sys, data,
                                (1,) if space.rank == 1 else None, chart)
    result = RunResult(config=config, sys=sys, kl=data, left=found.left,
                       right=cells_mod.right_cells(sys, found.left),
                       two_sided=found.two_sided, edges=found.edges,
                       gamma=gamma, left_chars=found.left_chars,
                       distinguished=found.distinguished)

    checks = set(config.checks)
    if "lemmas" in checks:
        result.reports["lemma_p"] = kl_mod.check_lemma_p(data)
        result.reports["lemma_m"] = kl_mod.check_lemma_m(data)
    if "bounds" in checks:
        result.reports["bounds"] = kl_mod.check_bounds(data)
    if "bar" in checks:
        result.reports["bar_identity"] = kl_mod.verify_bar_identity_full(data)
    if "L" in checks:
        viol = cells_mod.check_property_L(sys, result.left, result.two_sided)
        rep = kl_mod.CheckReport("property-L", checked=len(result.left))
        rep.violations = viol
        result.reports["property_L"] = rep
    if "oracle" in checks:
        oracle = kl_mod.oracle_kl(sys, params, order)
        rep = kl_mod.CheckReport("oracle", checked=sys.size)
        if not kl_mod.tables_equal(data, oracle):
            rep.violations.append("tables differ")
        result.reports["oracle"] = rep
    if config.cross_check:
        result.reports["cross_check"] = _cross_check_weight(sys, config, data)
    return result


def _cross_check_weight(sys, config, weight_data):
    """Compare the weight run against order-mode runs at the same ratio.

    Builds the weighted order with the weight's own functional and each
    tiebreak in turn; whenever the star condition certifies the
    specialization, the tables must agree entrywise.  A cross-check
    that certifies no order compared nothing and is reported as
    inconclusive, not as a pass.
    """
    report = kl_mod.CheckReport("weight-vs-order cross-check")
    if config.weight is None or len(sys.gen_classes) != 2:
        report.notes["certified_orders"] = 0
        report.inconclusive = ("needs a weight run on a system with two "
                               "generator classes")
        return report
    cw = weights_mod.class_weights_of(sys, config.weight)
    space = MonomialSpace(2)
    _, params = kl_mod.class_params(sys, space)
    certified = 0
    for tie_coord in (0, 1):
        f2 = [0, 0]
        f2[tie_coord] = 1
        try:
            order = MonomialOrder(space, [tuple(cw), tuple(f2)])
        except ValueError:
            continue
        odata = kl_mod.compute_kl(sys, params, order)
        gamma = weights_mod.gamma_plus_W(odata)
        ok, _ = weights_mod.check_star(space, cw, gamma)
        if not ok:
            continue
        certified += 1
        sub = weights_mod.specialization_consistency(odata, weight_data, cw)
        report.checked += sub.checked
        report.violations.extend(sub.violations)
    report.notes["certified_orders"] = certified
    if not certified:
        report.inconclusive = "no order certified"
    return report


# ---------------------------------------------------------------------------
# serialization


def _frac(x):
    if x is None:
        return None
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _dump_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_archive(result, outdir):
    """Write all dumps for a run; returns the archive directory.

    The entry is built in a temporary sibling directory, ``meta.json``
    last, and renamed into place only when complete, so an interrupted
    run leaves no entry and an existing entry is replaced whole.
    """
    root = Path(outdir)
    key = result.config.key()
    entry = root / key
    tmp = root / f".{key}.{os.getpid()}.tmp"
    old = root / f".{key}.{os.getpid()}.old"
    root.mkdir(parents=True, exist_ok=True)
    for stale in (tmp, old):
        if stale.exists():
            shutil.rmtree(stale)
    tmp.mkdir()
    try:
        _write_entry(result, tmp)
    except BaseException:
        shutil.rmtree(tmp)
        raise
    if entry.exists():
        entry.rename(old)
    tmp.rename(entry)
    if old.exists():
        shutil.rmtree(old)
    return entry


def _write_tables(outdir, sys, data):
    """Stream the P* and M tables as TSV and JSON, one pass per table.

    Each element's word and each polynomial object are rendered once
    (keyed by ``id``: ``compute_kl`` stores equal polynomials as one
    object, and every keyed object stays alive in ``data``).
    The JSON files hold exactly what ``json.dump(rows, indent=1,
    sort_keys=True)`` would write for the row objects: a polynomial's
    fragment comes from ``json.dumps(indent=1)`` re-indented to its
    depth, and only the row framing is literal text.
    """
    space, order = data.space, data.order
    words = [sys.word_text(w) for w in range(sys.size)]
    quoted = [json.dumps(t) for t in words]
    rendered = {}

    def render(p):
        out = rendered.get(id(p))
        if out is None:
            frag = json.dumps(poly_json(space, p, order), indent=1,
                              sort_keys=True)
            out = rendered[id(p)] = (poly_text(space, p, order),
                                     frag.replace("\n", "\n  "))
        return out

    _stream_table(outdir, "ptable", (
        (f"{words[y]}\t{words[w]}",
         f'\n  "w": {quoted[w]},\n  "y": {quoted[y]}', render(row[y]))
        for w, row in enumerate(data.rows) for y in sorted(row)))
    _stream_table(outdir, "mutable", (
        (f"{s + 1}\t{words[y]}\t{words[w]}",
         f'\n  "s": {s + 1},\n  "w": {quoted[w]},\n  "y": {quoted[y]}',
         render(data.mu[s, y, w]))
        for s, y, w in sorted(data.mu)))


def _stream_table(outdir, name, rows):
    """Write ``<name>.tsv`` and ``<name>.json`` from (columns, fields,
    (poly text, poly JSON fragment)) rows; ``fields`` are the JSON keys
    after ``"poly"``, already rendered."""
    with open(outdir / f"{name}.tsv", "w", encoding="utf-8") as tsv, \
            open(outdir / f"{name}.json", "w", encoding="utf-8") as js:
        sep = "[\n"
        for cols, fields, (text, frag) in rows:
            tsv.write(f"{cols}\t{text}\n")
            js.write(f'{sep} {{\n  "poly": {frag},{fields}\n }}')
            sep = ",\n"
        js.write("[]\n" if sep == "[\n" else "\n]\n")


def _write_entry(result, outdir):
    config = result.config
    sys = result.sys
    data = result.kl
    space = data.space

    _write_tables(outdir, sys, data)

    cells_obj = {
        "left": result.left.as_words(sys),
        "right": result.right.as_words(sys),
        "two_sided": result.two_sided.as_words(sys),
        "left_dag": [list(e) for e in result.left.reduction],
        "two_sided_dag": [list(e) for e in result.two_sided.reduction],
    }
    _dump_json(outdir / "cells.json", cells_obj)

    ts_labels = None
    if result.left_chars is not None:
        _dump_json(outdir / "chars.json", [
            {"cell": i, "size": len(blk),
             "decomposition": reps_mod.decomposition_name(mults),
             "multiplicities": [list(p) for p in mults]}
            for i, (blk, mults) in enumerate(zip(result.left.blocks,
                                                 result.left_chars))
        ])
        ts_labels = _two_sided_labels(result)
    with open(outdir / "two_sided.dot", "w", encoding="utf-8") as fh:
        fh.write(cells_mod.dot_export(sys, result.two_sided, ts_labels))
        fh.write("\n")

    gamma_obj = {"exponents": sorted(list(space.unpack(m))
                                     for m in result.gamma)}
    if space.rank == 2 and len(sys.gen_classes) == 2:
        num_gen = sys.spec.numerator_gen
        if num_gen is None:
            num_gen = sys.rank - 1
        num_coord = sys.class_of_gen[num_gen]
        try:
            lo, hi, blo, bhi = weights_mod.validity_interval(
                space, result.gamma, num_coord)
            gamma_obj["validity"] = {"lo": _frac(lo), "hi": _frac(hi),
                                     "binding_lo": sorted(map(list, blo)),
                                     "binding_hi": sorted(map(list, bhi))}
        except ValueError as exc:
            gamma_obj["validity"] = {"error": str(exc)}
    _dump_json(outdir / "gamma.json", gamma_obj)

    if result.distinguished is not None:
        d = result.distinguished
        _dump_json(outdir / "distinguished.json", {
            "per_cell": [
                {"cell": e["cell"], "d": sys.word_text(e["d"]),
                 "delta": e["delta"], "n": e["n"],
                 "unique": e["unique"], "involution": e["involution"],
                 "n_unit": e["n_unit"]}
                for e in d.per_cell
            ],
            "violations": [repr(v) for v in d.violations],
        })

    # last: an entry holding meta.json is complete
    _dump_json(outdir / "meta.json", {
        "config": config.canonical(),
        "key": config.key(),
        "system": sys.summary(),
        "reports": {k: _report_json(r)
                    for k, r in sorted(result.reports.items())},
    })


def _report_json(report):
    """meta.json form of a check report; ``inconclusive`` only when set."""
    obj = {"name": report.name, "checked": report.checked,
           "violations": [repr(v) for v in report.violations],
           "notes": {n: repr(v) for n, v in report.notes.items()}}
    if report.inconclusive:
        obj["inconclusive"] = report.inconclusive
    return obj


def _two_sided_labels(result):
    """Display labels for two-sided blocks from their cell characters."""
    from collections import Counter

    names = []
    for t, blk in enumerate(result.two_sided.blocks):
        consts = Counter()
        cell_count = 0
        for ci, lblk in enumerate(result.left.blocks):
            if result.two_sided.block_of[lblk[0]] == t:
                cell_count += 1
                for lab, _ in result.left_chars[ci]:
                    consts[lab] += 1
        common = sorted(lab for lab, k in consts.items() if k == cell_count)
        names.append("&".join(common) if common else f"#{t}")
    return names


# ---------------------------------------------------------------------------
# reference comparison (the published two-sided order diagrams)


def load_reference_order(case):
    from importlib import resources

    ref = resources.files("klcells").joinpath(f"data/cellorder/f4_{case}.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def load_reference_constructible(case):
    from importlib import resources

    ref = resources.files("klcells").joinpath(
        f"data/constructible/f4_{case}.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _char_key(mult_list):
    return tuple(sorted((lab, int(m)) for lab, m in mult_list))


def match_reference_order(result, case):
    """Label-respecting isomorphism check against a reference diagram.

    Each computed two-sided block is identified by the set of distinct
    left-cell characters it carries; that set must match exactly one
    reference node, the matching must be a bijection, and the Hasse
    edges must coincide under it.  ``result`` is a RunResult or a scan
    Region.  Returns (ok, detail dict).
    """
    ref = load_reference_order(case)
    two_sided = result.two_sided
    if result.left_chars is None:
        return False, {"error": "no cell characters computed"}
    computed = {}
    for blk, mults in zip(result.left.blocks, result.left_chars):
        t = two_sided.block_of[blk[0]]
        computed.setdefault(t, set()).add(_char_key(mults))
    ref_sets = {node["label"]: frozenset(_char_key(c) for c in node["cells"])
                for node in ref["nodes"]}
    detail = {"case": case, "computed_blocks": len(computed),
              "reference_nodes": len(ref_sets)}
    if len(computed) != len(ref_sets):
        detail["error"] = "block count mismatch"
        return False, detail
    mapping = {}
    for t, charset in computed.items():
        hits = [lab for lab, rs in ref_sets.items() if rs == frozenset(charset)]
        if len(hits) != 1:
            detail["error"] = f"block {t} matches {len(hits)} reference nodes"
            return False, detail
        mapping[t] = hits[0]
    if len(set(mapping.values())) != len(mapping):
        detail["error"] = "matching is not a bijection"
        return False, detail
    computed_edges = {(mapping[a], mapping[b])
                      for a, b in two_sided.reduction}
    ref_edges = {tuple(e) for e in ref["hasse_low_to_high"]}
    detail["mapping"] = {str(t): lab for t, lab in sorted(mapping.items())}
    if computed_edges != ref_edges:
        detail["error"] = {
            "missing": sorted(ref_edges - computed_edges),
            "extra": sorted(computed_edges - ref_edges),
        }
        return False, detail
    return True, detail


def match_reference_constructible(result, case):
    """Set equality of computed cell characters with the published list."""
    ref = load_reference_constructible(case)
    want = {_char_key(c) for c in ref["characters"]}
    got = {_char_key(m) for m in result.left_chars}
    return got == want, {
        "missing": sorted(want - got),
        "unexpected": sorted(got - want),
    }


# ---------------------------------------------------------------------------
# scan serialization


def scan_to_json(report):
    regions = []
    for reg in report.regions:
        obj = {
            "interval": reg.interval_text(),
            "lo": _frac(reg.lo),
            "hi": _frac(reg.hi),
            "exact": reg.exact,
            "weight": list(reg.weight),
            "functionals": [list(f) for f in reg.functionals]
            if reg.functionals else None,
            "left_cells": len(reg.left),
            "two_sided_cells": len(reg.two_sided),
            "by_symmetry": reg.by_symmetry,
            "partition_digest": hashlib.sha256(
                repr(reg.left.canonical()).encode()).hexdigest()[:16],
        }
        if reg.validity is not None:
            obj["validity"] = [_frac(reg.validity[0]), _frac(reg.validity[1])]
        if reg.gamma_prime_validity is not None:
            obj["star_prime_validity"] = [_frac(reg.gamma_prime_validity[0]),
                                          _frac(reg.gamma_prime_validity[1])]
        if reg.distinguished is not None:
            obj["distinguished_ok"] = reg.distinguished.ok
        if reg.char_labels is not None:
            obj["cell_characters"] = sorted(set(reg.char_labels))
        regions.append(obj)
    return {
        "system": report.system_name,
        "numerator_class": list(report.numerator_class),
        "mirrored": report.mirrored,
        "order_runs": report.order_runs,
        "breakpoints": [_frac(b) for b in report.breakpoints],
        "regions": regions,
        "partition_classes": [
            {
                "representative_weight": list(c["representative_weight"]),
                "intervals": c["intervals"],
                "left_cells": c["left_cells"],
                "two_sided_cells": c["two_sided_cells"],
                "regions": c["regions"],
            }
            for c in report.partition_classes
        ],
    }


def scan_to_text(report):
    head = (f"scan of {report.system_name}: "
            f"{len(report.partition_classes)} partition classes, "
            f"{len(report.regions)} regions, "
            f"breakpoints {[str(_frac(b)) for b in report.breakpoints]}")
    if report.mirrored:
        num = report.numerator_class[0]
        folded = set()
        for c in report.partition_classes:
            wt = c["representative_weight"]
            other = next(i for i in range(len(wt)) if i not in
                         report.numerator_class)
            r = Fraction(wt[num], wt[other])
            folded.add(min(r, 1 / r))
        head += f" ({len(folded)} classes up to the class-swap symmetry)"
    lines = [head]
    for i, c in enumerate(report.partition_classes):
        wt = ",".join(map(str, c["representative_weight"]))
        lines.append(
            f"  class {i}: representative ({wt})  "
            f"left cells {c['left_cells']}, two-sided {c['two_sided_cells']}"
        )
        lines.append("           " + "; ".join(c["intervals"]))
    return "\n".join(lines) + "\n"


def write_scan(report, outdir, sys=None):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    _dump_json(outdir / "scan.json", scan_to_json(report))
    with open(outdir / "scan.txt", "w", encoding="utf-8") as fh:
        fh.write(scan_to_text(report))
    if sys is not None:
        for i, reg in enumerate(report.regions):
            tag = f"region_{i:02d}"
            with open(outdir / f"{tag}.dot", "w", encoding="utf-8") as fh:
                fh.write(cells_mod.dot_export(sys, reg.two_sided))
                fh.write("\n")
            _dump_json(outdir / f"{tag}_cells.json", {
                "interval": reg.interval_text(),
                "weight": list(reg.weight),
                "left": reg.left.as_words(sys),
            })
    return outdir
