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
import re
import shutil
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import groupby
from pathlib import Path

from . import cells as cells_mod
from . import kl as kl_mod
from . import reps as reps_mod
from . import weights as weights_mod
from .coxeter import build_system, parse_type
from .laurent import MonomialOrder, poly_text

CHECKS = ("lemmas", "bounds", "bar", "L", "oracle")


@dataclass
class RunConfig:
    """One computation: a system plus a weight function or an order."""

    system: str
    weight: tuple | None = None
    order_functionals: tuple | None = None
    checks: tuple = ("lemmas", "bounds")
    cross_check: bool = False

    def __post_init__(self):
        if (self.weight is None) == (self.order_functionals is None):
            raise ValueError("specify exactly one of weight / order functionals")
        self.checks = tuple(sorted(set(self.checks)))
        unknown = [c for c in self.checks if c not in CHECKS]
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
            "checks": list(self.checks),
            # constant; kept so that archive keys and meta.json stay
            # unchanged until the key carries a format version
            "orientation": "containment",
        }

    def key(self):
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RunResult(weights_mod.Analysis):
    config: RunConfig
    kl: object
    reports: dict = field(default_factory=dict)

    @property
    def ok(self):
        return all(r.ok for r in self.reports.values())


def chart_for(sys):
    """``(table, class_map)`` of the bundled table whose type, read from
    its file name (``i2_6`` is I2:6), has the system's Coxeter matrix, or
    None; a table that does not fit raises ``CharacterDataError``."""
    for path in reps_mod.BUNDLED_TABLES.iterdir():
        name = path.name.removesuffix(".json")
        if parse_type(name.replace("_", ":")).matrix == sys.spec.matrix:
            table = reps_mod.load_bundled_table(name)
            return table, reps_mod.table_for_system(sys, table)
    return None


def run_pipeline(config, sys=None):
    """Compute and analyse one configuration, then run its checks.

    The analysis is ``weights.analyse``, the same path every scan region
    takes, with the character table of ``chart_for``.  The cross-check
    (``_cross_check_weight``) runs in a one-worker process pool from the
    moment the tables exist, beside the analysis and the other checks;
    its report is collected after theirs, and the pool is shut down,
    queued work cancelled, however the run ends.  The worker gets the
    system, the configuration and the weight tables without their order,
    whose memos the analysis and the checks go on filling; nothing else
    it takes changes, so the pool may pickle it while they run.
    """
    if sys is None:
        sys = build_system(config.system)
    if config.weight is not None:
        _, params, order = kl_mod.weight_params(sys, config.weight)
    else:
        space, params = kl_mod.class_params(sys)
        order = MonomialOrder(space, config.order_functionals)
    checks = config.checks
    if "oracle" in checks:      # refuses a large group before any table
        oracle = kl_mod.oracle_kl(sys, params, order)
    data = kl_mod.compute_kl(sys, params, order)
    pool = None
    if config.cross_check:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(1)
    try:
        cross = pool and pool.submit(_cross_check_weight, sys, config,
                                     replace(data, order=None))
        found = weights_mod.analyse(data, chart_for(sys))
        result = RunResult(**vars(found), config=config, kl=data)

        if "lemmas" in checks:
            result.reports["lemma_p"] = kl_mod.check_lemma_p(data)
            result.reports["lemma_m"] = kl_mod.check_lemma_m(data)
        if "bounds" in checks:
            result.reports["bounds"] = kl_mod.check_bounds(data)
        if "bar" in checks:
            result.reports["bar_identity"] = \
                kl_mod.verify_bar_identity_full(data)
        if "L" in checks:
            viol = cells_mod.check_property_L(sys, result.left,
                                              result.two_sided)
            rep = kl_mod.CheckReport("property-L", checked=len(result.left))
            rep.violations = viol
            result.reports["property_L"] = rep
        if "oracle" in checks:
            rep = kl_mod.CheckReport("oracle", checked=sys.size)
            if not kl_mod.tables_equal(data, oracle):
                rep.violations.append("tables differ")
            result.reports["oracle"] = rep
        if cross:
            result.reports["cross_check"] = cross.result()
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return result


def _cross_check_weight(sys, config, weight_data):
    """Compare the weight run against the order run at the same ratio.

    The order is the weight's functional, ties broken by class 0, and is
    certified as a scan probe is: if the ratio lies inside the validity
    interval of its Γ, the tables must agree entrywise.  The other
    tiebreak adds nothing: under the functional alone every member of a
    certified Γ is positive, so these entries meet that order's defining
    conditions too and, C_w being unique, are its tables with the same Γ;
    an uncertified Γ is so for both.  Of the weight run only the rows and
    the M-table are read.  A check that certifies no order is inconclusive.
    """
    report = kl_mod.CheckReport("weight-vs-order cross-check")
    report.notes["certified_orders"] = 0
    if config.weight is None or len(sys.gen_classes) != 2:
        report.inconclusive = ("needs a weight run on a system with two "
                               "generator classes")
        return report
    cw = weights_mod.class_weights_of(sys, config.weight)
    space, params = kl_mod.class_params(sys)
    odata = kl_mod.compute_kl(sys, params,
                              weights_mod.weighted_order(space, cw, 0))
    num = weights_mod.numerator_coord(sys)
    ratio = Fraction(cw[num], cw[1 - num])
    lo, hi, *_ = weights_mod.validity_interval(
        space, weights_mod.gamma_plus_W(odata), num)
    if not (lo < ratio and (hi is None or ratio < hi)):
        report.inconclusive = "no order certified"
        return report
    report.notes["certified_orders"] = 1
    sub = weights_mod.specialization_consistency(odata, weight_data, cw)
    report.checked, report.violations = sub.checked, sub.violations
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
    """Write all dumps for a run into ``outdir/<key>``; returns the entry."""
    return _replace_dir(Path(outdir) / result.config.key(),
                        lambda tmp: _write_entry(result, tmp))


def _replace_dir(target, write):
    """Build directory ``target`` with ``write(tmp)`` in a temporary
    sibling and rename it into place only when complete, so an
    interrupted run leaves nothing and an existing directory is replaced
    whole.  Temporary directories of writers that are no longer running
    are removed first.  A target that is not a directory is refused."""
    if target.exists() and not target.is_dir():
        raise ValueError(f"output path {target} is not a directory")
    root = target.parent
    tmp = root / f".{target.name}.{os.getpid()}.tmp"
    old = root / f".{target.name}.{os.getpid()}.old"
    root.mkdir(parents=True, exist_ok=True)
    _sweep_stale(root)
    for stale in (tmp, old):
        if stale.exists():
            shutil.rmtree(stale)
    tmp.mkdir()
    try:
        write(tmp)
    except BaseException:
        shutil.rmtree(tmp)
        raise
    if target.exists():
        target.rename(old)
    tmp.rename(target)
    if old.exists():
        shutil.rmtree(old)
    return target


_TEMP_DIR_RE = re.compile(r"\.(?:[0-9a-f]{16}|scan)\.(\d{1,9})\.(?:tmp|old)")


def _sweep_stale(root):
    """Remove ``.<key or scan>.<pid>.tmp``/``.old`` directories whose pid
    is not running; a directory of a live pid is never touched."""
    for path in root.iterdir():
        m = _TEMP_DIR_RE.fullmatch(path.name)
        if m is None or not path.is_dir():
            continue
        try:
            os.kill(int(m.group(1)), 0)
        except ProcessLookupError:
            try:
                shutil.rmtree(path)
            except FileNotFoundError:   # another writer swept it first
                pass
        except PermissionError:         # alive, under another user
            pass


def _write_tables(outdir, sys, data):
    """Write the P* and M tables as TSV and JSON, one pass per table.

    Each element's word and each polynomial object are rendered once
    (keyed by ``id``: ``compute_kl`` stores equal polynomials as one
    object, and every keyed object stays alive in ``data``); its JSON
    fragment is formatted by hand from its monomials sorted by the
    order's memoised key.  The JSON files hold exactly what
    ``json.dump(rows, indent=1, sort_keys=True)`` writes for the row
    objects, ``"poly"`` being ``poly_json``.  Each group of rows (one w
    of P*, one (s, y) of M) goes to each file in one write.
    """
    space, order = data.space, data.order
    unpack, key = space.unpack, order.key
    words = [sys.word_text(w) for w in range(sys.size)]
    quoted = [json.dumps(t) for t in words]
    rendered = {}

    def render(p):
        frag = ",".join(
            "\n   [\n    [" + ",".join(f"\n     {e}" for e in unpack(m))
            + f"\n    ],\n    {p[m]}\n   ]"
            for m in sorted(p, key=key, reverse=True))
        out = rendered[id(p)] = (poly_text(space, p, order), f"[{frag}\n  ]")
        return out

    def write(name, groups):    # of (TSV columns, JSON fields, poly)
        with open(outdir / f"{name}.tsv", "w", encoding="utf-8") as tsv, \
                open(outdir / f"{name}.json", "w", encoding="utf-8") as js:
            sep = "[\n"
            for group in groups:
                lines, objs = [], []
                for cols, fields, p in group:
                    text, frag = rendered.get(id(p)) or render(p)
                    lines.append(f"{cols}\t{text}\n")
                    objs.append(f'{sep} {{\n  "poly": {frag},{fields}\n }}')
                    sep = ",\n"
                tsv.write("".join(lines))
                js.write("".join(objs))
            js.write("[]\n" if sep == "[\n" else "\n]\n")

    write("ptable", (
        ((f"{words[y]}\t{words[w]}",
          f'\n  "w": {quoted[w]},\n  "y": {quoted[y]}', row[y])
         for y in sorted(row))
        for w, row in enumerate(data.rows)))
    write("mutable", (
        ((f"{s + 1}\t{words[y]}\t{words[w]}",
          f'\n  "s": {s + 1},\n  "w": {quoted[w]},\n  "y": {quoted[y]}',
          data.mu[s, y, w]) for s, y, w in group)
        for _, group in groupby(sorted(data.mu), key=lambda k: k[:2])))


def _write_entry(result, outdir):
    config = result.config
    data = result.kl
    sys = data.sys
    space = data.space

    _write_tables(outdir, sys, data)

    cells_obj = {
        "left": result.left.as_words(sys),
        "right": cells_mod.right_cells(sys, result.left).as_words(sys),
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
        fh.write(cells_mod.dot_export(result.two_sided, ts_labels))
        fh.write("\n")

    gamma = weights_mod.gamma_plus_W(data)
    gamma_obj = {"exponents": sorted(list(space.unpack(m)) for m in gamma)}
    if space.rank == 2:     # an order run on a two-class system
        lo, hi, blo, bhi = weights_mod.validity_interval(
            space, gamma, weights_mod.numerator_coord(sys))
        gamma_obj["validity"] = {"lo": _frac(lo), "hi": _frac(hi),
                                 "binding_lo": sorted(map(list, blo)),
                                 "binding_hi": sorted(map(list, bhi))}
    _dump_json(outdir / "gamma.json", gamma_obj)

    if result.distinguished is not None:
        d = result.distinguished
        _dump_json(outdir / "distinguished.json", {
            "per_cell": [dict(e, d=sys.word_text(e["d"]))
                         for e in d.per_cell],
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


def chars_by_two_sided(result):
    """Left-cell character decompositions grouped by two-sided block:
    block index -> decompositions, in left-cell order.  ``result`` is an
    ``Analysis`` with characters."""
    out = {}
    for blk, mults in zip(result.left.blocks, result.left_chars):
        out.setdefault(result.two_sided.block_of[blk[0]], []).append(mults)
    return out


def _two_sided_labels(result):
    """Display labels for two-sided blocks from their cell characters."""
    by_ts = chars_by_two_sided(result)
    names = []
    for t in range(len(result.two_sided.blocks)):
        cells = by_ts.get(t, [])
        consts = Counter(lab for mults in cells for lab, _ in mults)
        common = sorted(lab for lab, k in consts.items() if k == len(cells))
        names.append("&".join(common) if common else f"#{t}")
    return names


# ---------------------------------------------------------------------------
# reference comparison (the published two-sided order diagrams)


def load_reference(case):
    """The published F4 two-sided order diagram of a case, each node
    with the characters of its left cells."""
    from importlib import resources

    ref = resources.files("klcells").joinpath(f"data/cellorder/f4_{case}.json")
    with ref.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _char_key(mult_list):
    return tuple(sorted((lab, int(m)) for lab, m in mult_list))


def match_reference_order(result, case):
    """Compare the two-sided order with a published diagram.

    Each computed two-sided block and each reference node is named by
    the set of its left cells' character keys, as a sorted tuple.  The
    diagrams agree when the names are distinct on each side, the two
    name sets are equal and so are the Hasse edges as pairs of names.
    ``result`` is an ``Analysis``.  Returns (ok, detail dict).
    """
    if result.left_chars is None:
        return False, {"error": "no cell characters computed"}
    ref = load_reference(case)

    def name(cells):
        return tuple(sorted(set(map(_char_key, cells))))

    names = {t: name(c) for t, c in chars_by_two_sided(result).items()}
    ref_names = {node["label"]: name(node["cells"]) for node in ref["nodes"]}
    edges = {(names[a], names[b]) for a, b in result.two_sided.reduction}
    ref_edges = {(ref_names[a], ref_names[b])
                 for a, b in ref["hasse_low_to_high"]}
    got = sorted(names.values())    # the reference's names, none repeated
    ok = (got == sorted(ref_names.values()) and len(set(got)) == len(got)
          and edges == ref_edges)
    return ok, {"case": case, "missing": sorted(ref_edges - edges),
                "extra": sorted(edges - ref_edges)}


def match_reference_constructible(result, case):
    """Set equality of computed cell characters with the published list,
    the left-cell characters of the diagram's nodes."""
    want = {_char_key(c) for node in load_reference(case)["nodes"]
            for c in node["cells"]}
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
            "weight": reg.weight,
            "functionals": reg.functionals,
            "left_cells": len(reg.left),
            "two_sided_cells": len(reg.two_sided),
            "by_symmetry": reg.by_symmetry,
            "partition_digest": hashlib.sha256(
                repr(reg.left.canonical()).encode()).hexdigest()[:16],
        }
        if not reg.exact:
            obj["validity"] = list(map(_frac, reg.validity))
            obj["star_prime_validity"] = list(map(_frac,
                                                  reg.gamma_prime_validity))
        obj["distinguished_ok"] = reg.distinguished.ok
        if reg.left_chars is not None:
            obj["cell_characters"] = sorted(set(map(
                reps_mod.decomposition_name, reg.left_chars)))
        regions.append(obj)
    return {
        "system": report.system_name,
        "numerator_class": report.numerator_class,
        "mirrored": report.mirrored,
        "order_runs": report.order_runs,
        "breakpoints": [_frac(b) for b in report.breakpoints],
        "regions": regions,
        "partition_classes": report.partition_classes,
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
    # findings, not failures: the scan still exits 0
    for i, reg in enumerate(report.regions):
        failed = " and ".join(name for name, ok in (
            ("at its weight", reg.distinguished.ok),
            ("in its order", reg.order_distinguished_ok is not False)) if not ok)
        if failed:
            lines.append(f"  region {i:02d} ({reg.interval_text()}): "
                         f"distinguished involutions fail {failed}")
    return "\n".join(lines) + "\n"


def write_scan(report, outdir, sys):
    """Write the scan files into ``outdir``, replaced whole like an
    archive entry; returns ``outdir``."""
    def write(tmp):
        _dump_json(tmp / "scan.json", scan_to_json(report))
        (tmp / "scan.txt").write_text(scan_to_text(report), encoding="utf-8")
        for i, reg in enumerate(report.regions):
            tag = f"region_{i:02d}"
            (tmp / f"{tag}.dot").write_text(
                cells_mod.dot_export(reg.two_sided) + "\n", encoding="utf-8")
            _dump_json(tmp / f"{tag}_cells.json", {
                "interval": reg.interval_text(),
                "weight": reg.weight,
                "left": reg.left.as_words(sys),
            })

    return _replace_dir(Path(outdir), write)
