"""Command line interface.

Subcommands:

  compute   full pipeline for one (system, weight|order) pair, archived
  scan      critical-ratio scan of all weight functions (two-class systems)
  check     verification battery against the published reference data
  export    re-emit DOT/TSV/JSON exports from an existing archive entry
  dump      print stored polynomial tables

Flags can also be supplied through a JSON config file (--config); the
file holds an object whose keys mirror the long option names and whose
values are read as command-line text.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys as _sysmod
from collections import Counter
from pathlib import Path

from . import kl as kl_mod
from . import cells, pipeline, reps, weights
from .coxeter import CoxeterError, build_system, parse_type


def _parse_weight(text):
    return tuple(int(x) for x in text.replace(" ", "").split(","))


def _parse_order(text):
    return tuple(tuple(int(c) for c in row.split(","))
                 for row in text.replace(" ", "").split(";"))


def _config_argv(args, parser):
    """The JSON config file as command-line text: a string or number
    becomes ``--key=value``, true ``--key`` and false nothing.  Any other
    value, a key that names no option of the subcommand, or a file that
    cannot be read as a JSON object is a usage error."""
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            blob = json.load(fh)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read config file {args.config}: {exc}")
    if not isinstance(blob, dict):
        parser.error(f"config file {args.config} does not hold an object")
    options = vars(args).keys() - {"command", "func"}
    argv = []
    for key, val in blob.items():
        if key.replace("-", "_") not in options:
            parser.error(f"unknown config key {key!r}")
        if not isinstance(val, (str, int, float)):  # bool is an int
            parser.error(f"config key {key!r} must be a string, a number "
                         f"or a boolean, not {json.dumps(val)}")
        flag = "--" + key.replace("_", "-")
        if val is not False:
            argv.append(flag if val is True else f"{flag}={val}")
    return argv


def _run_config_from_args(args):
    return pipeline.RunConfig(
        system=args.type,
        weight=_parse_weight(args.weight) if args.weight else None,
        order_functionals=_parse_order(args.order) if args.order else None,
        checks=tuple(args.checks.split(",")),
        cross_check=args.cross_check,
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


def _refuse_file(parser, path):
    """A usage error, before any work, when ``path`` is not a directory."""
    if path.exists() and not path.is_dir():
        parser.error(f"output path {path} is not a directory")


def cmd_compute(args, parser):
    config = _run_config_from_args(args)
    entry = Path(args.out) / config.key()
    _refuse_file(parser, entry)
    stored = None if args.force else _cached_reports(entry, config)
    if stored is not None:
        print(f"archive: {entry} (cached; --force recomputes)")
        for rep in stored:
            print(f"check {rep}")
        return 0 if all(rep.ok for rep in stored) else 1
    result = pipeline.run_pipeline(config)
    outdir = pipeline.write_archive(result, args.out)
    print(f"archive: {outdir}")
    print(f"system {args.type}: |W| = {result.kl.sys.size}, "
          f"left cells {len(result.left)}, "
          f"two-sided cells {len(result.two_sided)}")
    if result.left_chars is not None:
        print("cell characters by two-sided cell:")
        by_ts = pipeline.chars_by_two_sided(result)
        for t in sorted(by_ts):
            counts = Counter(map(reps.decomposition_name, by_ts[t]))
            body = " | ".join(f"{k} (x{v})" if v > 1 else k
                              for k, v in sorted(counts.items()))
            size = len(result.two_sided.blocks[t])
            print(f"  [{size:4d} elts] {body}")
    for name, rep in sorted(result.reports.items()):
        print(f"check {rep}")
    return 0 if result.ok else 1


def cmd_scan(args, parser):
    target = Path(args.out) / "scan"
    _refuse_file(parser, target)
    sys_ = build_system(args.type)
    chart = None
    if args.chars:
        chart = pipeline.chart_for(sys_)
        if chart is None:
            parser.error(f"no bundled character table for {args.type}")
    report = weights.scan_equivalence_classes(sys_, chart=chart,
                                              jobs=args.jobs)
    outdir = pipeline.write_scan(report, target, sys_)
    print(pipeline.scan_to_text(report), end="")
    print(f"scan files: {outdir}")
    return 0


_F4_CASES = (("equal", (1, 1, 1, 1)), ("b2a", (1, 1, 2, 2)),
             ("between", (2, 2, 3, 3)), ("beyond", (1, 1, 3, 3)))
# refinement between the named regions: every exact-ratio class refines
# into the chambers adjacent to it on the ratio line
_F4_REFINEMENTS = (("equal", "a=b", "between", "2a>b>a"),
                   ("b2a", "b=2a", "beyond", "b>2a"),
                   ("b2a", "b=2a", "between", "2a>b>a"))


def cmd_check(args, parser):
    """Verification battery (a compute run per case); exits 1 on a FAIL.
    Without ``--weight``, any type with F4's matrix runs the F4 cases."""
    failed = False

    def line(ok, text):
        nonlocal failed
        print(("PASS  " if ok else "FAIL  ") + text)
        failed = failed or not ok

    sys_ = build_system(args.type)
    f4 = sys_.spec.matrix == parse_type("F4").matrix and not args.weight
    cases = _F4_CASES if f4 else [(None, _parse_weight(args.weight)
                                   if args.weight else (1,) * sys_.rank)]
    lefts = {}      # the cells of each case, not its run's tables
    for case, wt in cases:
        res = pipeline.run_pipeline(
            pipeline.RunConfig(args.type, weight=wt, checks=("L",)), sys_)
        lefts[case] = res.left
        head = f"F4 {case} {wt}" if case else f"{args.type} {wt}"
        line(res.reports["property_L"].ok,
             f"{head}: left preorder trivial on two-sided cells")
        line(res.distinguished.ok, f"{head}: unique involution minimizers "
                                   f"with unit leading coefficient")
        if case:
            ok, _ = pipeline.match_reference_order(res, case)
            line(ok, f"{head}: two-sided order diagram matches reference "
                     f"({len(res.two_sided)} blocks)")
            ok, _ = pipeline.match_reference_constructible(res, case)
            line(ok, f"{head}: cell characters equal the constructible list")
        elif res.left_chars is not None:
            line(True, f"{head}: cell characters decompose integrally "
                       f"({len(res.left_chars)} cells)")
        del res     # its tables are freed before the next run
    for coarse, at, fine, within in _F4_REFINEMENTS if f4 else ():
        line(not cells.check_union_refinement(lefts[coarse], lefts[fine]),
             f"F4: cells at {at} are unions of cells at {within}")
    return int(failed)


def cmd_export(args, parser):
    src = Path(args.archive)
    if not src.exists():
        parser.error(f"archive entry {src} does not exist")
    wanted = {
        "dot": ["two_sided.dot"],
        "tsv": ["ptable.tsv", "mutable.tsv"],
        "json": ["ptable.json", "mutable.json", "cells.json", "gamma.json",
                 "chars.json", "distinguished.json", "meta.json"],
    }
    names = wanted.get(args.format)
    if names is None:
        names = [n for lst in wanted.values() for n in lst]
    present = [name for name in names if (src / name).exists()]
    if not present:
        parser.error("archive entry holds none of the requested files")
    dest = Path(args.dest)
    dest.mkdir(parents=True, exist_ok=True)
    for name in present:
        shutil.copyfile(src / name, dest / name)
    print(f"exported {', '.join(present)} -> {dest}")
    return 0


def cmd_dump(args, parser):
    src = Path(args.archive)
    table = "mutable.tsv" if args.table == "mu" else "ptable.tsv"
    path = src / table
    if not path.exists():
        parser.error(f"{path} does not exist")
    pair = slice(1, 3) if args.table == "mu" else slice(0, 2)  # y, w
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if args.element and args.element not in line.split("\t")[pair]:
                continue
            print(line, end="")
    return 0


def build_parser():
    """The argument parser of all subcommands."""
    parser = argparse.ArgumentParser(
        prog="klcells",
        description="Kazhdan-Lusztig bases, M-polynomials and cells of "
                    "finite Coxeter groups with unequal parameters",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", help="Coxeter type, e.g. F4, B4, I2:6, "
                                      "A2xA1 (required, here or in --config)")
        p.add_argument("--config", help="JSON file with default options")

    p = sub.add_parser("compute", help="run the full pipeline once")
    common(p)
    p.add_argument("--weight", help="comma separated weights, e.g. 2,1")
    p.add_argument("--order",
                   help="functional stack, rows ; separated: '0,1;1,0'")
    p.add_argument("--checks", "--check", default="lemmas,bounds",
                   help=f"comma list from {','.join(pipeline.CHECKS)}")
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
                   help="worker processes for the scan's order and exact "
                        "runs")
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
    p.add_argument("--element", help="filter rows whose y or w is this word")
    p.set_defaults(func=cmd_dump)
    return parser


def main(argv=None):
    argv = _sysmod.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        # the file's options go ahead of the user's own, so argparse lets
        # every explicit flag win, however it is spelled
        at = argv.index(args.command) + 1
        args = parser.parse_args(
            argv[:at] + _config_argv(args, parser) + argv[at:])
    if getattr(args, "type", "") is None:   # a config file may set it
        parser.error("the following arguments are required: --type")
    out = getattr(args, "out", None) or getattr(args, "dest", None)
    if out is not None:
        _refuse_file(parser, Path(out))
    try:
        return args.func(args, parser)
    except (reps.CharacterDataError, kl_mod.KLError, OverflowError,
            weights.ScanError) as exc:
        # a failed post-condition of the tables or of the scan, a check
        # that cannot run exactly, or a bundled character table that does
        # not fit the system (a CharacterDataError is a ValueError, hence
        # this clause first)
        print(f"error: {exc}", file=_sysmod.stderr)
        return 1
    except (CoxeterError, ValueError) as exc:
        print(f"error: {exc}", file=_sysmod.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
