"""End-to-end benchmark of the klcells command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a klcells source tree.  Each job is one
``klcells.cli.main`` call in a fresh child process (``child.py``) with
``src`` on its path, writing into a fresh, empty output root.  Jobs run
one at a time in a closed loop until S seconds have passed (at least one
job).  Every job's output is checked against the digests pinned in
``expected.json``; a non-zero exit, a cache hit or a digest mismatch
makes the job count as failed.

With ``--trace 0`` the last line of standard output reports the
end-to-end metrics of ``BENCHMARK.json`` (medians over the jobs); with
``--trace 1`` the jobs run traced and it reports the per-layer metrics.
``README.md`` in this directory maps workloads and metrics to layers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import child

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

# Seed -> one member of each workload's input family: member seed % len.
WORKLOADS = {
    "f4-weight": [["compute", "--type", "F4", "--weight", f"{k},{k},{2 * k},{2 * k}"]
                  for k in (1, 2, 3)],
    "b4-scan": [["scan", "--type", "B4", "--chars", "--jobs", "2"]],
    "b4-verify": [["compute", "--type", "B4", "--weight", f"{c},{d},{d},{d}",
                   "--checks", "lemmas,bounds,bar,L", "--cross-check"]
                  for c, d in ((5, 2), (7, 3), (9, 4))],
}

# Archive files whose bytes are pinned; meta.json and the key directory
# name are left out on purpose (they change with the archive format).
PINNED_FILES = ("ptable.tsv", "mutable.tsv", "cells.json", "chars.json",
                "gamma.json", "distinguished.json", "two_sided.dot")
SETUP_PROBES = 4        # import-only launches per run, after one warm-up
RUN_LIMIT_S = 170       # a run must end well inside 180 s


class BenchError(Exception):
    """The benchmark cannot run here (missing source tree or pins)."""


def member_key(argv):
    return " ".join(argv)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def scan_view(scan):
    """The part of scan.json the gate pins; run bookkeeping is left out."""
    return {
        "breakpoints": scan["breakpoints"],
        "regions": [{k: reg.get(k) for k in ("interval", "lo", "hi", "exact",
                                             "partition_digest",
                                             "cell_characters")}
                    for reg in scan["regions"]],
        "partition_classes": scan["partition_classes"],
    }


def digest_json(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def observe(workload, out):
    """Digests and counts of one job's output root, as pinned and checked."""
    if workload == "b4-scan":
        scan_dir = out / "scan"
        view = scan_view(json.loads((scan_dir / "scan.json").read_text()))
        return {"breakpoints": view["breakpoints"],
                "scan_view": digest_json(view),
                "files": {p.name: sha256(p) for p in
                          sorted(scan_dir.glob("region_*_cells.json"))}}
    entries = list(out.iterdir())
    if len(entries) != 1 or not entries[0].is_dir():
        raise BenchError(f"expected one archive entry in {out}")
    entry = entries[0]
    obs = {"files": {n: sha256(entry / n) for n in PINNED_FILES
                     if (entry / n).is_file()}}
    if workload == "b4-verify":
        reports = json.loads((entry / "meta.json").read_text())["reports"]
        cross = reports.get("cross_check", {})
        obs["cross_check_checked"] = cross.get("checked", 0)
        obs["certified_orders"] = int(cross.get("notes", {})
                                      .get("certified_orders", "0"))
        obs["bar_identity_checked"] = reports.get("bar_identity", {}).get("checked", 0)
    return obs


def pinned_for(expected, workload, key):
    """Expected digests for one family member: shared plus per-member."""
    spec = expected.get(workload, {"members": {}})
    if key not in spec["members"]:
        raise BenchError(f"no pinned output for {workload} member {key!r}")
    files = dict(spec.get("shared", {}))
    files.update(spec["members"][key]["files"])
    return files


def gate(workload, obs, expected, key, stdout):
    """List of reasons the job's output is wrong (empty when correct)."""
    problems = []
    if "cached" in stdout:
        problems.append("served from cache")
    want = pinned_for(expected, workload, key)
    for name in sorted(set(want) | set(obs["files"])):
        got = obs["files"].get(name)
        if got != want.get(name):
            problems.append(f"{name}: digest {got} != pinned {want.get(name)}")
    member = expected[workload]["members"][key]
    if workload == "b4-scan":
        for field in ("breakpoints", "scan_view"):
            if obs[field] != member[field]:
                problems.append(f"{field} differs from the pinned scan")
    if workload == "b4-verify":
        if obs["certified_orders"] < 1 or obs["cross_check_checked"] <= 0:
            problems.append("cross-check certified no order or checked nothing")
        if obs["bar_identity_checked"] <= 0:
            problems.append("bar identity checked nothing")
    return problems


def child_env(root):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def kill_group(pid):
    """Kill a job and the workers it started (they share its process group)."""
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(root, work, name, cli_args, trace, deadline):
    """Run child.py once.

    Returns (exit code, launch time, wall time, rusage of the process
    tree, the child's report or None, its combined output).
    """
    report = work / f"{name}.json"
    log = work / f"{name}.out"
    cmd = [sys.executable, str(HERE / "child.py"), str(report),
           "1" if trace else "0", name, *cli_args]
    with open(log, "wb") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root),
                                stdout=out, stderr=subprocess.STDOUT,
                                start_new_session=True)
        timer = threading.Timer(max(deadline - t0, 1.0), kill_group,
                                (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    data = json.loads(report.read_text()) if report.is_file() else None
    return proc.returncode, t0, wall, usage, data, log.read_text(errors="replace")


def layer_metrics(names, reports):
    """Per-layer metric values from the traced jobs' reports (low medians)."""
    per_job = []
    for rep in reports:
        spans = rep["spans"]
        covered = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        vals = defaultdict(int)
        for s in spans:
            dur = s["end"] - s["start"]
            vals[s["name"] + ".s"] += dur
            vals[s["name"] + ".self_s"] += dur - covered[s["id"]]
            vals[s["name"] + ".calls"] += 1
            vals[s["name"] + ".rss_growth_mb"] += (s["peak_rss_mb"]
                                                   - s["start_rss_mb"])
        vals.update(rep["counters"])
        vals["trace.overhead_s"] = rep["overhead_s"]
        vals["trace.wall_s"] = rep["wall_s"]
        per_job.append(vals)
    return {n: statistics.median_low(v.get(n, 0) for v in per_job)
            for n in names}


def known_layer_metric(name):
    spans = {f"{m}.{f}" for m, f in child.TRACED}
    base, _, suffix = name.rpartition(".")
    return (name in child.COUNTER_NAMES
            or name in ("trace.overhead_s", "trace.wall_s", "src.lines")
            or (base in spans and suffix in ("s", "self_s", "calls",
                                             "rss_growth_mb")))


def run(args, root):
    if not (root / "src" / "klcells" / "cli.py").is_file():
        raise BenchError(f"no klcells source tree under {root / 'src'}")
    if not EXPECTED.is_file():
        raise BenchError(f"missing {EXPECTED}")
    bench = json.loads((root / "BENCHMARK.json").read_text())
    expected = json.loads(EXPECTED.read_text())
    family = WORKLOADS[args.workload]
    cli_base = family[args.seed % len(family)]
    key = member_key(cli_base)
    pinned_for(expected, args.workload, key)
    layer_names = [m["name"] for m in bench["per_layer"]]
    unknown = [n for n in layer_names if not known_layer_metric(n)]
    if unknown:
        raise BenchError(f"per-layer metrics with no source: {unknown}")

    work = root / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + RUN_LIMIT_S

    # set-up: one warm-up launch (byte-compiles src on a fresh checkout),
    # then probes whose launch-to-import times give setup_s
    setups = []
    for i in range(SETUP_PROBES + 1):
        code, t0, _, _, rep, text = launch(root, work, f"probe{i}", [], False,
                                           deadline)
        if code != 0 or rep is None:
            raise BenchError(f"klcells.cli does not import:\n{text}")
        if not Path(rep["klcells_file"]).resolve().is_relative_to(root / "src"):
            raise BenchError(f"klcells imported from {rep['klcells_file']}")
        if i:
            setups.append(rep["import_done"] - t0)

    jobs = []
    loop_start = time.monotonic()
    while not jobs or time.monotonic() - loop_start < args.seconds:
        name = f"job{len(jobs)}"
        out = work / name
        out.mkdir()
        code, t0, wall, usage, rep, text = launch(
            root, work, name, [*cli_base, "--out", str(out)], args.trace,
            deadline)
        problems = []
        if code != 0 or rep is None:
            problems.append(f"exit code {code}")
        else:
            try:
                problems += gate(args.workload, observe(args.workload, out),
                                 expected, key, text)
            except (OSError, ValueError, KeyError, BenchError) as exc:
                problems.append(f"unreadable output: {exc!r}")
            setups.append(rep["import_done"] - t0)
            rep["wall_s"] = wall
        for p in problems:
            print(f"{name}: FAIL {p}", file=sys.stderr)
        jobs.append({"ok": not problems, "wall_s": wall,
                     "cpu_s": usage.ru_utime + usage.ru_stime,
                     "peak_rss_mb": usage.ru_maxrss / 1024, "report": rep})
        shutil.rmtree(out)
        if time.monotonic() > deadline - 2 * wall:
            break

    good = [j for j in jobs if j["ok"]]
    if args.trace:
        reports = [j["report"] for j in good]
        metrics = layer_metrics(layer_names, reports) if reports else {}
        metrics["src.lines"] = sum(len(p.read_bytes().splitlines())
                                   for p in (root / "src").rglob("*.py"))
        drift = {n: (metrics[n], want) for n, want in
                 expected[args.workload]["members"][key]["counters"].items()
                 if n in metrics and metrics[n] != want}
        for n, (got, want) in sorted(drift.items()):
            print(f"counter {n} = {got}, recorded {want}", file=sys.stderr)
        spans_out = work / "spans.json"
        spans_out.write_text(json.dumps([r["spans"] for r in reports]))
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        measured = good or jobs     # a run whose jobs all failed still has times
        metrics = {m: statistics.median(j[m] for j in measured)
                   for m in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = statistics.median(setups)
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    return {"correct": len(good) == len(jobs),
            "attempted": len(jobs), "failed": len(jobs) - len(good),
            "metrics": {n: {"value": metrics.get(n, 0), "unit": u}
                        for n, u in units.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = run(args, Path.cwd().resolve())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
