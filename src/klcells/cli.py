"""Command line interface.

Subcommands:

  compute   full pipeline for one (system, weight|order) pair, archived
  scan      critical-ratio scan of all weight functions (two-class systems)
  check     verification battery against the published reference data
  export    re-emit DOT/TSV/JSON exports from an existing archive entry
  dump      print stored polynomial tables

Flags can also be supplied through a JSON config file (--config); the
file holds an object whose keys mirror the long option names.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys as _sysmod
from fractions import Fraction
from pathlib import Path

from . import kl as kl_mod
from . import pipeline, reps, weights
from .coxeter import CoxeterError, build_system


def _parse_weight(text):
    return tuple(int(x) for x in text.replace(" ", "").split(","))


def _parse_order(text):
    return tuple(tuple(int(c) for c in row.split(","))
                 for row in text.replace(" ", "").split(";"))


def _apply_config_file(args, parser, argv):
    """Fill options from a JSON config file; explicit flags win."""
    if not getattr(args, "config", None):
        return args
    with open(args.config, "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    given = {a.split("=", 1)[0] for a in argv if a.startswith("--")}
    for key, val in blob.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            parser.error(f"unknown config key {key!r}")
        if f"--{key}" not in given and f"--{attr}" not in given:
            setattr(args, attr, val)
    return args


def _run_config_from_args(args):
    weight = _parse_weight(args.weight) if isinstance(args.weight, str) \
        else (tuple(args.weight) if args.weight else None)
    order = _parse_order(args.order) if isinstance(args.order, str) \
        else (tuple(map(tuple, args.order)) if args.order else None)
    checks = tuple(args.checks.split(",")) if isinstance(args.checks, str) \
        else tuple(args.checks or ())
    return pipeline.RunConfig(
        system=args.type, weight=weight, order_functionals=order,
        checks=checks, cap=args.cap, cross_check=args.cross_check,
    )


def _cached_reports(entry, config):
    """The check reports stored in an archive entry, or None when the
    entry is missing or lacks a report the configuration asks for.

    The archive key leaves out ``cross_check``, so an entry written
    without the cross-check does not serve a run that requests it.
    """
    meta_path = entry / "meta.json"
    if not meta_path.exists():
        return None
    reports = json.loads(meta_path.read_text(encoding="utf-8"))["reports"]
    if config.cross_check and "cross_check" not in reports:
        return None
    return [kl_mod.CheckReport(r["name"], r["checked"], r["violations"],
                               inconclusive=r.get("inconclusive", ""))
            for r in reports.values()]


def cmd_compute(args, parser):
    config = _run_config_from_args(args)
    entry = Path(args.out) / config.key()
    stored = None if args.force else _cached_reports(entry, config)
    if stored is not None:
        print(f"archive: {entry} (cached; --force recomputes)")
        for rep in stored:
            print(f"check {rep}")
        return 0 if all(rep.ok for rep in stored) else 1
    progress = None
    if args.verbose:
        progress = lambda ln, u: print(f"  length {ln} (element {u})",
                                       file=_sysmod.stderr)
    result = pipeline.run_pipeline(config, progress=progress)
    outdir = pipeline.write_archive(result, args.out)
    print(f"archive: {outdir}")
    print(f"system {args.type}: |W| = {result.sys.size}, "
          f"left cells {len(result.left)}, "
          f"two-sided cells {len(result.two_sided)}")
    if result.left_chars is not None:
        from collections import Counter

        print("cell characters by two-sided cell:")
        by_ts = {}
        for ci, blk in enumerate(result.left.blocks):
            t = result.two_sided.block_of[blk[0]]
            by_ts.setdefault(t, []).append(
                reps.decomposition_name(result.left_chars[ci]))
        for t in sorted(by_ts):
            counts = Counter(by_ts[t])
            body = " | ".join(f"{k} (x{v})" if v > 1 else k
                              for k, v in sorted(counts.items()))
            size = len(result.two_sided.blocks[t])
            print(f"  [{size:4d} elts] {body}")
    for name, rep in sorted(result.reports.items()):
        print(f"check {rep}")
    return 0 if result.ok else 1


def cmd_scan(args, parser):
    sys_ = build_system(args.type, cap=args.cap)
    table_name = None
    if args.chars:
        table_name = pipeline.table_name_for(args.type)
        if table_name is None:
            parser.error(f"no bundled character table for {args.type}")
    progress = (lambda m: print("  " + m, file=_sysmod.stderr)) \
        if args.verbose else None
    report = weights.scan_equivalence_classes(
        sys_, chartable_name=table_name,
        use_mirror=False if args.no_mirror else None,
        progress=progress, jobs=args.jobs)
    outdir = pipeline.write_scan(report, Path(args.out) / "scan", sys_)
    print(pipeline.scan_to_text(report), end="")
    print(f"scan files: {outdir}")
    return 0


_F4_CASES = (("equal", (1, 1, 1, 1)), ("b2a", (1, 1, 2, 2)),
             ("between", (2, 2, 3, 3)), ("beyond", (1, 1, 3, 3)))


def cmd_check(args, parser):
    """Verification battery; exit code counts failed lines."""
    failures = 0

    def line(ok, text):
        nonlocal failures
        print(("PASS  " if ok else "FAIL  ") + text)
        if not ok:
            failures += 1

    sys_ = build_system(args.type, cap=args.cap)
    if args.type.upper().replace("_", "") == "F4" and not args.weight:
        results = {}
        for case, wt in _F4_CASES:
            cfg = pipeline.RunConfig(system="F4", weight=wt, checks=("L",))
            res = pipeline.run_pipeline(cfg, sys=sys_)
            results[case] = res
            line(res.reports["property_L"].ok,
                 f"F4 {case} {wt}: left preorder trivial on two-sided cells")
            dist = res.distinguished
            line(dist is not None and dist.ok,
                 f"F4 {case} {wt}: unique involution minimizers with unit "
                 f"leading coefficient")
            ok, detail = pipeline.match_reference_order(res, case)
            line(ok, f"F4 {case} {wt}: two-sided order diagram matches "
                     f"reference ({len(res.two_sided)} blocks)")
            ok, detail = pipeline.match_reference_constructible(res, case)
            line(ok, f"F4 {case} {wt}: cell characters equal the "
                     f"constructible list")
        # refinement between the named regions: every exact-ratio class
        # refines into the chambers adjacent to it on the ratio line
        eq, b2a = results["equal"], results["b2a"]
        betw, bey = results["between"], results["beyond"]
        line(not weights.check_refinement(eq.left, betw.left),
             "F4: cells at a=b are unions of cells at 2a>b>a")
        line(not weights.check_refinement(b2a.left, bey.left),
             "F4: cells at b=2a are unions of cells at b>2a")
        line(not weights.check_refinement(b2a.left, betw.left),
             "F4: cells at b=2a are unions of cells at 2a>b>a")
        return min(failures, 255)

    weight = _parse_weight(args.weight) if args.weight else \
        tuple([1] * sys_.rank)
    cfg = pipeline.RunConfig(system=args.type, weight=weight, checks=("L",))
    res = pipeline.run_pipeline(cfg, sys=sys_)
    line(res.reports["property_L"].ok,
         f"{args.type} {weight}: left preorder trivial on two-sided cells")
    dist = res.distinguished
    line(dist is not None and dist.ok,
         f"{args.type} {weight}: unique involution minimizers")
    if res.left_chars is not None:
        line(True, f"{args.type} {weight}: cell characters decompose "
                   f"integrally ({len(res.left_chars)} cells)")
    return min(failures, 255)


def cmd_export(args, parser):
    src = Path(args.archive)
    if not src.exists():
        parser.error(f"archive entry {src} does not exist")
    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)
    wanted = {
        "dot": ["two_sided.dot"],
        "tsv": ["ptable.tsv", "mutable.tsv"],
        "json": ["ptable.json", "mutable.json", "cells.json", "gamma.json",
                 "chars.json", "distinguished.json", "meta.json"],
    }
    names = wanted.get(args.format)
    if names is None:
        names = [n for lst in wanted.values() for n in lst]
    copied = []
    for name in names:
        path = src / name
        if path.exists():
            shutil.copyfile(path, dest / name)
            copied.append(name)
    if not copied:
        parser.error("archive entry holds none of the requested files")
    print(f"exported {', '.join(copied)} -> {dest}")
    return 0


def cmd_dump(args, parser):
    src = Path(args.archive)
    table = "mutable.tsv" if args.table == "mu" else "ptable.tsv"
    path = src / table
    if not path.exists():
        parser.error(f"{path} does not exist")
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if args.element and f"\t{args.element}\t" not in line \
                    and not line.startswith(args.element + "\t"):
                continue
            print(line, end="")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="klcells",
        description="Kazhdan-Lusztig bases, M-polynomials and cells of "
                    "finite Coxeter groups with unequal parameters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", required=True,
                       help="Coxeter type, e.g. F4, B4, I2:6, A2xA1")
        p.add_argument("--cap", type=int, default=20000,
                       help="element cap for enumeration")
        p.add_argument("--config", help="JSON file with default options")
        p.add_argument("--verbose", action="store_true")

    p = sub.add_parser("compute", help="run the full pipeline once")
    common(p)
    p.add_argument("--weight", help="comma separated weights, e.g. 2,1")
    p.add_argument("--order",
                   help="functional stack, rows ; separated: '0,1;1,0'")
    p.add_argument("--checks", "--check", default="lemmas,bounds",
                   help="comma list from lemmas,bounds,bar,L,oracle")
    p.add_argument("--cross-check", action="store_true",
                   help="verify the weight run against certified order runs")
    p.add_argument("--out", default="runs", help="archive root directory")
    p.add_argument("--force", action="store_true",
                   help="recompute even when a cached archive entry exists")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("scan", help="scan all weight functions by ratio")
    common(p)
    p.add_argument("--out", default="runs", help="output root directory")
    p.add_argument("--chars", action="store_true",
                   help="decompose cell characters per region")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for exact-ratio regions")
    p.add_argument("--no-mirror", action="store_true",
                   help="scan ratios below 1 directly instead of mirroring "
                        "through a diagram automorphism")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("check", help="verification battery")
    common(p)
    p.add_argument("--weight", help="weight to check (default: all F4 cases "
                                    "for type F4, else equal weights)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("export", help="copy exports out of an archive entry")
    p.add_argument("--archive", required=True,
                   help="path to one archive entry (directory)")
    p.add_argument("--dest", required=True)
    p.add_argument("--format", choices=("dot", "tsv", "json", "all"),
                   default="all")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("dump", help="print stored tables")
    p.add_argument("--archive", required=True)
    p.add_argument("--table", choices=("p", "mu"), default="p")
    p.add_argument("--element", help="filter rows touching this word")
    p.set_defaults(func=cmd_dump)
    return parser


def main(argv=None):
    import sys as _s
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "config"):
        args = _apply_config_file(args, parser,
                                  argv if argv is not None else _s.argv[1:])
    try:
        return args.func(args, parser)
    except (reps.CharacterDataError, kl_mod.KLError, OverflowError) as exc:
        # a failed post-condition, a check that cannot run exactly, or a
        # bundled character table that does not fit the system (a
        # CharacterDataError is a ValueError, hence this clause first)
        print(f"error: {exc}", file=_sysmod.stderr)
        return 1
    except (CoxeterError, weights.ScanError, ValueError) as exc:
        print(f"error: {exc}", file=_sysmod.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
