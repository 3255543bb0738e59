"""Regenerate expected.json, the outputs the benchmark gate accepts.

    python3 perfbench/pin.py [WORKLOAD ...]

Run from the root of a klcells source tree whose outputs are known to
be right.  Every member of each workload's input family runs twice,
traced; the two runs must agree on every pinned digest and every
counter, which are then recorded.  Files whose digest is the same for
all members of a family are stored once under "shared".
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

import run


def pin_member(root, work, workload, cli_base):
    seen = []
    for attempt in range(2):
        name = f"pin{attempt}"
        out = work / name
        out.mkdir()
        code, _, wall, _, rep, text = run.launch(
            root, work, name, [*cli_base, "--out", str(out)], True,
            time.monotonic() + 600)
        if code != 0 or rep is None:
            raise run.BenchError(f"{cli_base} failed:\n{text}")
        obs = {k: v for k, v in run.observe(workload, out).items()
               if k in ("files", "breakpoints", "scan_view")}
        obs["counters"] = rep["counters"]
        seen.append(obs)
        shutil.rmtree(out)
        print(f"{workload} {run.member_key(cli_base)}: {wall:.1f} s",
              file=sys.stderr)
    if seen[0] != seen[1]:
        raise run.BenchError(f"{cli_base}: two runs disagree")
    return seen[0]


def main(names):
    root = Path.cwd().resolve()
    expected = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.is_file() else {}
    work = root / ".perfbench" / "pin"
    for workload in names or sorted(run.WORKLOADS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        members = {run.member_key(a): pin_member(root, work, workload, a)
                   for a in run.WORKLOADS[workload]}
        shared = {}
        if len(members) > 1:
            first = next(iter(members.values()))["files"]
            shared = {n: d for n, d in first.items()
                      if all(m["files"].get(n) == d for m in members.values())}
            for m in members.values():
                m["files"] = {n: d for n, d in m["files"].items()
                              if n not in shared}
        expected[workload] = {"shared": shared, "members": members}
        shutil.rmtree(work)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
