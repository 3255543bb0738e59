"""One klcells CLI job in a fresh process, optionally traced.

    python3 child.py REPORT TRACE JOB_ID [CLI ARGS...]

Imports ``klcells.cli`` and notes the monotonic time at which the import
finished.  With CLI arguments it then runs ``klcells.cli.main`` on them;
without, it only measures the import (a set-up probe).  REPORT receives
a JSON object with the import time, the CLI exit code and, when TRACE is
1, the spans and counters described below.  The process exits with the
CLI's exit code.  The parent measures launch, exit, CPU time and peak RSS.

Tracing wraps module attributes from outside the program: each name in
``TRACED`` is replaced, in every ``klcells`` module that holds the same
function object (``cli`` and ``pipeline`` import ``build_system`` by
value), by a wrapper that records one span per call.  Counters are
computed from a call's result after its span has closed, inside a
``trace.count`` span, so that their cost is excluded from every layer's
self time.  Only the process that installed the tracer records spans;
scan workers forked from it run the wrapped functions untraced.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

# (module, function) pairs wrapped in a traced run; the span name is
# "<module>.<function>".
TRACED = (
    ("cli", "main"),
    ("coxeter", "build_system"),
    ("kl", "compute_kl"),
    ("kl", "check_lemma_p"),
    ("kl", "check_lemma_m"),
    ("kl", "check_bounds"),
    ("kl", "verify_bar_identity_full"),
    ("kl", "compute_r"),
    ("cells", "left_cells"),
    ("cells", "right_cells"),
    ("cells", "two_sided_cells"),
    ("cells", "check_property_L"),
    ("reps", "table_for_system"),
    ("reps", "all_cell_characters"),
    ("reps", "decompose"),
    ("weights", "gamma_plus_W"),
    ("weights", "distinguished_involutions"),
    ("weights", "specialization_consistency"),
    ("weights", "scan_equivalence_classes"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "write_archive"),
    ("pipeline", "write_scan"),
)


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _count_kl(data):
    polys = [p for row in data.rows for p in row.values()]
    polys.extend(data.mu.values())
    monomials = set()
    max_terms = max_coeff = 0
    for p in polys:
        monomials.update(p)
        max_terms = max(max_terms, len(p))
        max_coeff = max(max_coeff, max(map(abs, p.values()), default=0))
    return {
        "kl.pstar_entries": sum(len(row) for row in data.rows),
        "kl.mu_entries": len(data.mu),
        "kl.distinct_polys": len({frozenset(p.items())
                                  for row in data.rows for p in row.values()}),
        "laurent.distinct_monomials": len(monomials),
        "laurent.max_terms": max_terms,
        "laurent.max_abs_coeff": max_coeff,
    }


def _archive_bytes(outdir):
    return {"pipeline.archive_bytes": sum(
        f.stat().st_size for f in Path(outdir).rglob("*") if f.is_file())}


# Span name -> function from the call's result to counter values.
COUNTERS = {
    "coxeter.build_system": lambda sys_: {"coxeter.elements": sys_.size},
    "kl.compute_kl": _count_kl,
    "cells.left_cells": lambda res: {"cells.left_blocks": len(res[0])},
    "cells.two_sided_cells": lambda part: {"cells.two_sided_blocks": len(part)},
    "weights.gamma_plus_W": lambda gamma: {"weights.gamma_size": len(gamma)},
    "weights.scan_equivalence_classes": lambda rep: {
        "weights.order_runs": rep.order_runs,
        "weights.regions": len(rep.regions)},
    "pipeline.write_archive": _archive_bytes,
}

COUNTER_NAMES = {
    "coxeter.elements", "kl.pstar_entries", "kl.mu_entries",
    "kl.distinct_polys", "laurent.distinct_monomials", "laurent.max_terms",
    "laurent.max_abs_coeff", "cells.left_blocks", "cells.two_sided_blocks",
    "weights.gamma_size", "weights.order_runs", "weights.regions",
    "pipeline.archive_bytes",
}

# Counters that describe a size take the largest value over the calls of
# one job; all others are amounts of work and are summed.
MAX_COUNTERS = {"coxeter.elements", "kl.distinct_polys",
                "laurent.distinct_monomials", "laurent.max_terms",
                "laurent.max_abs_coeff"}


class Tracer:
    """In-memory span recorder for one job."""

    def __init__(self, job_id):
        self.job_id = job_id
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.counters = {}
        self.overhead = 0.0   # seconds spent in the tracer's own code

    def start(self, name):
        span = {"id": len(self.spans), "name": name, "run": self.job_id,
                "parent": self.stack[-1]["id"] if self.stack else None,
                "start_rss_mb": maxrss_mb()}
        self.spans.append(span)
        self.stack.append(span)
        span["start"] = time.monotonic()
        return span

    def finish(self, span):
        span["end"] = time.monotonic()
        span["peak_rss_mb"] = maxrss_mb()
        self.stack.pop()

    def count(self, name, result):
        span = self.start("trace.count")
        try:
            for key, value in COUNTERS[name](result).items():
                old = self.counters.get(key)
                if old is None:
                    self.counters[key] = value
                elif key in MAX_COUNTERS:
                    self.counters[key] = max(old, value)
                else:
                    self.counters[key] = old + value
        finally:
            self.finish(span)

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            t0 = time.monotonic()
            span = tracer.start(name)
            tracer.overhead += time.monotonic() - t0
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.monotonic()
                tracer.finish(span)
                tracer.overhead += time.monotonic() - t1
            if name in COUNTERS:
                t2 = time.monotonic()
                tracer.count(name, result)
                tracer.overhead += time.monotonic() - t2
            return result

        return traced

    def install(self):
        """Replace every reference to a traced function in klcells."""
        modules = {m: importlib.import_module(f"klcells.{m}")
                   for m, _ in TRACED}
        for mod_name, fn_name in TRACED:
            original = getattr(modules[mod_name], fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def dump(self):
        return {"spans": self.spans, "counters": self.counters,
                "overhead_s": self.overhead}


def main(argv):
    report_path, trace, job_id, cli_args = argv[0], argv[1], argv[2], argv[3:]
    import klcells
    import klcells.cli
    report = {"import_done": time.monotonic(), "klcells_file": klcells.__file__}
    code = 0
    if cli_args:
        tracer = None
        if trace == "1":
            tracer = Tracer(job_id)
            tracer.install()
        code = klcells.cli.main(cli_args)
        if tracer is not None:
            report.update(tracer.dump())
    report["exit"] = code
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
