"""Weight functions, specializations and the critical-ratio scan.

A weight function assigns a positive integer to each generator,
constant on generator classes.  On a two-class system it is determined
by the pair (a, b) = (denominator-class value, numerator-class value),
and everything interesting depends only on the ratio r = b/a.

The scan partitions the ratio line (0, oo) into finitely many regions:
open intervals, each certified by a fixed total order on the
two-variable monomial group, and exact rational breakpoints, each
computed directly in the single-variable weight world.  The
certification works through the finite monomial set collected from all
P*- and M-polynomials: a specialization that sends every member of the
set to a strictly positive power of v reproduces the two-variable
tables entrywise, so all weights inside one region share their cells,
preorders and cell representations.  Region boundaries are discovered
from the binding ratios of the computed sets themselves and verified by
recomputation; breakpoints all lie among fractions with numerator and
denominator below twice the longest length, which also bounds the
number of scan iterations.

Exact rational arithmetic (fractions.Fraction) throughout; never floats.
"""

from __future__ import annotations

import os
import pickle
import zlib
from dataclasses import dataclass, replace
from fractions import Fraction

from . import cells as cells_mod
from . import kl as kl_mod
from . import reps as reps_mod
from .kl import class_weights_of
from .laurent import MonomialOrder, MonomialSpace, lex_order


def numerator_coord(sys):
    """Class index of the ratio numerator: the class of the preset's
    ``numerator_gen``, else of the last generator."""
    num_gen = sys.spec.numerator_gen
    return sys.class_of_gen[sys.rank - 1 if num_gen is None else num_gen]


def weight_from_class_values(sys, class_values):
    return tuple(class_values[sys.class_of_gen[s]] for s in range(sys.rank))


# ---------------------------------------------------------------------------
# the finite certifying monomial sets


def gamma_plus_W(kl_data):
    """Set of monomials controlling specialization consistency.

    Union of (a) the inverses of all monomials appearing in any P*_{y,w}
    with y < w, and (b) the consecutive ratios of the monomials of each
    nonzero M-polynomial written in increasing order.  All members are
    strictly positive for the generating order.  Each P* object is
    walked once (memoised by ``id(p)``; equal entries are shared).
    """
    space = kl_data.space
    inv = space.inv
    out = set()
    seen = set()
    for w in range(kl_data.sys.size):
        for y, p in kl_data.rows[w].items():
            if y == w or id(p) in seen:
                continue
            seen.add(id(p))
            out.update(map(inv, p))
    key = kl_data.order.key
    for m_poly in kl_data.mu.values():
        monos = sorted(m_poly, key=key)
        for a, b in zip(monos, monos[1:]):
            out.add(space.mul(inv(a), b))
    return out


def gamma_plus_prime_W(kl_data, left, gamma):
    """Enlarged set certifying distinguished-involution data as well.

    ``gamma`` is ``gamma_plus_W(kl_data)``; it is copied, not changed.
    Adds (a) the ratio of the top monomial of each P*_{1,w} to every
    lower monomial, and (b) the consecutive ratios of the sorted
    distinct delta_w = top^-1 inside each left cell (delta_1 = 1).
    """
    space = kl_data.space
    inv = space.inv
    key = kl_data.order.key
    out = set(gamma)
    delta = {0: space.one}
    for w in range(1, kl_data.sys.size):
        p = kl_data.rows[w].get(0)
        if not p:
            continue
        top = max(p, key=key)
        delta[w] = inv(top)
        for m in p:
            if m != top:
                out.add(space.mul(top, inv(m)))
    for blk in left.blocks:
        distinct = sorted({delta[w] for w in blk if w in delta}, key=key)
        for a, b in zip(distinct, distinct[1:]):
            out.add(space.mul(inv(a), b))
    return out


def validity_interval(space, monomial_set, num_coord):
    """Open interval of ratios b/a on which every member specializes
    strictly positively.

    Member exponents (i, j) = (denominator-class, numerator-class)
    constrain a*i + b*j > 0: j > 0 demands r > -i/j, j < 0 demands
    r < -i/j, and j = 0 demands i > 0 outright.  Returns
    ``(lo, hi, binding_lo, binding_hi)`` with hi None for infinity;
    an empty interval raises.
    """
    den_coord = 1 - num_coord
    lo = Fraction(0)
    hi = None
    binding_lo, binding_hi = [], []
    for m in monomial_set:
        exps = space.unpack(m)
        i, j = exps[den_coord], exps[num_coord]
        if j == 0:
            if i <= 0:
                raise ValueError(
                    f"monomial {exps} can never specialize positively"
                )
            continue
        r = Fraction(-i, j)
        if j > 0:
            if r > lo:
                lo, binding_lo = r, [exps]
            elif r == lo:
                binding_lo.append(exps)
        else:
            if hi is None or r < hi:
                hi, binding_hi = r, [exps]
            elif r == hi:
                binding_hi.append(exps)
    if hi is not None and lo >= hi:
        raise ValueError(f"empty validity interval: ({lo}, {hi})")
    return lo, hi, binding_lo, binding_hi


def breakpoint_candidates(space, monomial_set, num_coord):
    """All positive ratios +-i/j arising from the set (scan hints)."""
    den_coord = 1 - num_coord
    out = set()
    for m in monomial_set:
        exps = space.unpack(m)
        i, j = exps[den_coord], exps[num_coord]
        if i and j:
            out.add(abs(Fraction(i, j)))
    return out


# ---------------------------------------------------------------------------
# distinguished involutions


@dataclass
class DistinguishedReport:
    """Per-cell minimizer data for the degree function Delta.

    Delta(w) = -(top degree of P*_{1,w}); n_w is the coefficient there.
    For each left cell the report records the minimizer and whether it
    is unique, an involution, and has n = +-1.  Failures are findings,
    not crashes.
    """

    per_cell: list
    violations: list

    @property
    def ok(self):
        return not self.violations


def distinguished_involutions(kl_data, left, coord_weights=None):
    """Minimize Delta over each left cell.

    With ``coord_weights`` the data is first specialized along
    v_s -> v^L(s) and Delta is an integer; with None, delta_w is
    compared in the data's own generating order (for one-variable data
    the two readings agree with coordinate weights (1,)).
    """
    sys = kl_data.sys
    space = kl_data.space
    order = kl_data.order
    if coord_weights is not None:
        order = MonomialOrder(MonomialSpace(1), [(1,)])
    key, inv = order.key, order.space.inv
    delta = {0: order.space.one}
    n_of = {0: 1}
    for w in range(1, sys.size):
        p = kl_data.rows[w].get(0)
        if not p:
            continue
        if coord_weights is not None:
            p = kl_mod.specialize_poly(space, coord_weights, p)
        top = max(p, key=key)
        delta[w] = inv(top)
        n_of[w] = p[top]
    per_cell = []
    violations = []
    for ci, blk in enumerate(left.blocks):
        if any(w not in delta for w in blk):
            violations.append(("missing P*_{1,w}", ci))
            continue
        dmin = min((delta[w] for w in blk), key=key)
        mins = [w for w in blk if delta[w] == dmin]
        d = mins[0]
        entry = {
            "cell": ci,
            "d": d,
            "delta": dmin,
            "n": n_of[d],
            "unique": len(mins) == 1,
            "involution": sys.mult(d, d) == 0,
            "n_unit": abs(n_of[d]) == 1,
        }
        per_cell.append(entry)
        if not entry["unique"]:
            violations.append(("non-unique minimizer", ci,
                               [sys.word_text(w) for w in mins]))
        if not entry["involution"]:
            violations.append(("minimizer not an involution", ci,
                               sys.word_text(d)))
        if not entry["n_unit"]:
            violations.append(("leading coefficient not a unit", ci, n_of[d]))
    return DistinguishedReport(per_cell=per_cell, violations=violations)


# ---------------------------------------------------------------------------
# the analysis of one computed table


@dataclass
class Analysis:
    """Cells, cell characters and distinguished involutions of one
    table; the base of a pipeline run result and of a scan region."""

    left: object                 # left cells (CellPartition)
    two_sided: object
    left_chars: list | None      # character decomposition per left cell
    distinguished: DistinguishedReport | None


def analyse(kl_data, chart, coord_weights=None):
    """Cells, cell characters and distinguished involutions of one table.

    This is the one path from computed KL data to the analysed result:
    ``pipeline.run_pipeline`` and every scan region go through it.
    ``chart`` is ``(table, class_map)``, or None for no characters.
    One-variable data has its distinguished involution report in its
    own order; multi-variable data has one at ``coord_weights`` when
    they are given, and none otherwise.
    """
    sys = kl_data.sys
    left, edges = cells_mod.left_cells(sys, kl_data.mu)
    two_sided = cells_mod.two_sided_cells(sys, edges)
    left_chars = None
    if chart is not None:
        table, class_map = chart
        left_chars = [reps_mod.decompose(v, table, class_map) for v in
                      reps_mod.all_cell_characters(sys, kl_data, left)]
    distinguished = None
    if kl_data.space.rank == 1 or coord_weights is not None:
        distinguished = distinguished_involutions(kl_data, left, coord_weights)
    return Analysis(left, two_sided, left_chars, distinguished)


# ---------------------------------------------------------------------------
# specialization consistency (the two-route cross-check)


def specialization_consistency(order_data, weight_data, coord_weights):
    """Check the two computation routes agree under a certified map.

    The caller has certified the order data at ``coord_weights``: every
    member of ``gamma_plus_W(order_data)`` specializes to a strictly
    positive power of v.  Asserts that the image
    ``kl.specialized(order_data, coord_weights)`` equals the directly
    computed single-variable tables entrywise, and that sigma kills no
    nonzero M.  Returns a CheckReport.
    """
    report = kl_mod.CheckReport("specialization-consistency")
    sys = order_data.sys
    image = kl_mod.specialized(order_data, coord_weights)
    for w in range(sys.size):
        report.checked += len(image.rows[w])
        if image.rows[w] != weight_data.rows[w]:
            report.violations.append(("P-row", sys.word_text(w)))
    mu_b = weight_data.mu
    for key in order_data.mu:
        sm = image.mu.get(key, {})
        report.checked += 1
        if not sm:
            report.violations.append(("sigma(M) = 0", key))
        if sm != mu_b.get(key, {}):
            report.violations.append(("M entry", key))
    for key in mu_b:
        if key not in order_data.mu:
            report.violations.append(("extra weight-side M entry", key))
    return report


# ---------------------------------------------------------------------------
# the scan


@dataclass
class Region(Analysis):
    """One scan region: an open ratio interval or an exact ratio."""

    lo: Fraction
    hi: Fraction | None          # None = infinity
    exact: bool
    weight: tuple                # representative weight, per generator
    functionals: tuple | None    # order functionals (open regions)
    validity: tuple | None = None    # certified interval of the gamma set
    order_distinguished_ok: bool | None = None
    gamma_prime_validity: tuple | None = None
    by_symmetry: bool = False

    def interval_text(self):
        if self.exact:
            return f"b/a = {self.lo}"
        hi = "oo" if self.hi is None else str(self.hi)
        return f"{self.lo} < b/a < {hi}"

    def contains_ratio(self, r):
        if self.exact:
            return r == self.lo
        return self.lo < r and (self.hi is None or r < self.hi)


@dataclass
class ScanReport:
    system_name: str
    numerator_class: tuple
    regions: list                 # sorted by (lo, exact descending)
    breakpoints: list
    partition_classes: list       # list of dicts
    order_runs: int               # table runs: order probes and exact runs
    mirrored: bool

    def region_of_ratio(self, r):
        hits = [i for i, reg in enumerate(self.regions)
                if reg.contains_ratio(Fraction(r))]
        if len(hits) != 1:
            raise AssertionError(f"ratio {r} lies in {len(hits)} regions")
        return hits[0]

    def class_of_ratio(self, r):
        idx = self.region_of_ratio(r)
        for ci, cls in enumerate(self.partition_classes):
            if idx in cls["regions"]:
                return ci
        raise AssertionError("region missing from partition classes")


class ScanError(RuntimeError):
    """A post-condition of the scan failed."""


def _mediant(lo, hi):
    """Strictly interior rational; hi=None plays the role of 1/0."""
    if hi is None:
        return Fraction(lo.numerator + 1, lo.denominator)
    return Fraction(lo.numerator + hi.numerator,
                    lo.denominator + hi.denominator)


def ratio_class_values(ratio, num_coord):
    """Class values (a, b) of the ratio b/a, indexed by generator class."""
    vals = [ratio.denominator] * 2
    vals[num_coord] = ratio.numerator
    return tuple(vals)


def weighted_order(space, class_values, tie_coord):
    """Order by the weight functional ``class_values``, ties broken by
    the exponent of coordinate ``tie_coord``."""
    tie = [0] * space.rank
    tie[tie_coord] = 1
    return MonomialOrder(space, [tuple(class_values), tuple(tie)])


def _hint(gamma, data):
    """What the tasks submitted from a probe's result take from it: its
    certifying set ``gamma`` and, pickled and compressed, its tables without
    system and order (what ``kl.compute_kl`` reads of a base)."""
    return gamma, zlib.compress(pickle.dumps(
        replace(data, sys=None, order=None)), 1)


def _base(hint):
    """The base run in a probe's ``hint`` (see :func:`_hint`), or None."""
    return hint and pickle.loads(zlib.decompress(hint[1]))


def _exact_regions(sys, chart, swap, ratio, hint=None):
    """Scan task ``(regions, None, (ratio, ratio))`` at an exact breakpoint:
    its region from a single-variable run, whose params are its weights, and
    for ratio != 1 with a class swap ``(perm, elem_map)`` its image at
    1/ratio.  The run takes the rows it can from the tables in ``hint``, of
    an order probe whose region ends at ``ratio``, carried to its weight
    by ``kl.specialized``.
    """
    _, params, order = kl_mod.weight_params(sys, weight_from_class_values(
        sys, ratio_class_values(ratio, numerator_coord(sys))))
    data = kl_mod.compute_kl(sys, params, order, base=_base(hint))
    found = [(ratio, data)]
    if swap is not None and ratio != 1:
        found.append((1 / ratio, kl_mod.automorphic_image(data, *swap)))
    return [Region(**vars(analyse(d, chart)), lo=r, hi=r, exact=True,
                   weight=d.params, functionals=None, by_symmetry=r != ratio)
            for r, d in found], None, (ratio, ratio)


def _open_regions(sys, chart, swap, lo_bound, hi_bound, hint):
    """One order probe of the open interval (lo_bound, hi_bound), as a
    scan task: ``(regions, hint, cover)``, the region it certifies (with
    a class swap ``(perm, elem_map)`` also its image), the hint of its
    certifying set and tables for the tasks submitted from it (see
    :func:`_hint`) and the interval it covers.  The top probe (hi_bound
    None) runs the numerator-dominant pure lexicographic order; any other
    probe, guided by its parent's ``hint``, covers only its ratio rho when
    rho is critical for its own data, and takes the rows it can from its
    parent's tables.
    """
    num_coord = numerator_coord(sys)
    space, params = kl_mod.class_params(sys)

    def certify(data):
        """Certifying set of two-variable tables and its validity interval."""
        gamma = gamma_plus_W(data)
        lo, hi, *_ = validity_interval(space, gamma, num_coord)
        return gamma, (lo, hi)

    def accept(lo, hi, data, gamma, validity, by_symmetry):
        """The open region (lo, hi) of ``data``, certified by ``gamma`` on
        ``validity``.  Every member of the enlarged set is positive in the
        data's order, so its interval is not empty."""
        vals = ratio_class_values(_mediant(lo, hi), num_coord)
        found = analyse(data, chart, vals)
        gp = gamma_plus_prime_W(data, found.left, gamma)
        glo, ghi, *_ = validity_interval(space, gp, num_coord)
        return Region(
            **vars(found), lo=lo, hi=hi, exact=False,
            weight=weight_from_class_values(sys, vals),
            functionals=data.order.functionals, validity=validity,
            order_distinguished_ok=distinguished_involutions(
                data, found.left).ok,
            gamma_prime_validity=(glo, ghi), by_symmetry=by_symmetry,
        )

    if hi_bound is None:
        order = lex_order(space, (num_coord, 1 - num_coord))
    else:
        guess = max((c for c in breakpoint_candidates(space, hint[0],
                                                      num_coord)
                     if lo_bound < c < hi_bound), default=lo_bound)
        rho = _mediant(guess, hi_bound)
        # ties go by the denominator exponent when b >= a, else by the
        # numerator's; open regions have no certifying monomial on the
        # tie line, so the choice only fixes the run deterministically
        order = weighted_order(space, ratio_class_values(rho, num_coord),
                               1 - num_coord if rho >= 1 else num_coord)
    data = kl_mod.compute_kl(sys, params, order, base=_base(hint))
    gamma, (lo, hi) = certify(data)
    hint = _hint(gamma, data)
    if hi_bound is None and hi is not None:
        raise ScanError("pure lex region is bounded above; unexpected")
    if hi_bound is not None and not (lo < rho and (hi is None or rho < hi)):
        # rho itself is critical for its own data; split around it
        return [], hint, (rho, rho)
    cover = (max(lo, lo_bound), hi_bound if hi is None else min(hi, hi_bound))
    regions = [accept(*cover, data, gamma, (lo, hi), False)]
    if swap is not None:
        image = kl_mod.automorphic_image(data, *swap)
        regions.append(accept(Fraction(0) if cover[1] is None
                              else 1 / cover[1], 1 / cover[0], image,
                              *certify(image), True))
    return regions, hint, cover


def scan_equivalence_classes(sys, *, chart=None, jobs=1):
    """Partition all positive weight functions of a two-class system.

    Returns a :class:`ScanReport`.  ``chart`` is ``(table, class_map)``,
    as from ``pipeline.chart_for``, and enables per-region left-cell
    character decompositions.  When a diagram automorphism swaps the
    two generator classes, only ratios from 1 up are scanned: the tables
    of each region are carried through it (``kl.automorphic_image``) to
    the region at the inverse ratios, which is then analysed like any
    other.  Every run is a task, submitted as soon as it is known: an
    order probe (``_open_regions``) for each interval its parent probe
    left uncovered, an exact run (``_exact_regions``) for each new region
    end.  Each task takes the rows it can from the tables of the probe
    whose result submitted it (``kl.compute_kl`` with ``base``): a probe
    from its parent's, an exact run from those of a probe whose region
    ends at its ratio, carried to its weight by ``kl.specialized``.  A row
    is taken when the rows it read are equal and its entries lie below 1
    in the task's order.  A probe returns its tables pickled in its hint,
    and this process hands them on without unpickling them.  This
    function only tiles, counts runs and merges.  ``jobs`` > 1 runs the
    tasks in a process pool of at most ``os.cpu_count()`` workers, 1 runs
    them in process; the merge is deterministic.
    """
    if len(sys.gen_classes) != 2:
        raise ValueError("scan requires exactly two generator classes")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    lw0 = sys.length[sys.longest]
    max_runs = 16 * lw0 * lw0 + 64
    # automorphisms map classes to classes: one generator tells
    perm = next((p for p in sys.diagram_automorphisms()
                 if sys.class_of_gen[p[0]] != sys.class_of_gen[0]), None)
    swap = None if perm is None else (perm, sys.element_map_for_auto(perm))
    # with a class swap the regions below 1 are images, so runs start at 1
    bottom = Fraction(1) if swap else Fraction(0)

    def in_range(bp):
        return 0 < bp.numerator < 2 * lw0 and 0 < bp.denominator < 2 * lw0

    pool = None
    if jobs > 1:
        from concurrent.futures import (FIRST_COMPLETED, ProcessPoolExecutor,
                                        wait)

        pool = ProcessPoolExecutor(min(jobs, os.cpu_count() or 1))
    runs = 0
    finished = []       # (interval, result) of tasks that have run
    pending = {}        # future -> interval, with a pool
    regions = []
    breakpoints = set()

    def submit(task, interval, *args):
        """Run or queue ``task`` on ``interval``, a point for an exact run;
        ``max_runs`` bounds the scan at submission."""
        nonlocal runs
        runs += 1
        if runs > max_runs:
            raise ScanError(f"scan exceeded {max_runs} pipeline runs")
        if pool is None:
            finished.append((interval, task(sys, chart, swap, *args)))
        else:
            pending[pool.submit(task, sys, chart, swap, *args)] = interval

    try:
        submit(_open_regions, (bottom, None), bottom, None, None)
        while finished or pending:
            if not finished:
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                finished += [(pending.pop(f), f.result()) for f in done]
            interval, (found, hint, (cover_lo, cover_hi)) = finished.pop()
            regions += found
            # exact runs at the new nonzero finite ends of the regions (an
            # exact run's ends are breakpoints already, so its hint of None
            # goes to no task)
            for bp in {end for reg in found for end in (reg.lo, reg.hi)
                       if end} - breakpoints:
                breakpoints.add(bp)
                if bp >= bottom and in_range(bp):
                    submit(_exact_regions, (bp, bp), bp, hint)
            lo_bound, hi_bound = interval
            for lo, hi in ((lo_bound, cover_lo), (cover_hi, hi_bound)):
                if hi is not None and lo < hi:
                    submit(_open_regions, (lo, hi), lo, hi, hint)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    for bp in sorted(breakpoints):
        if not in_range(bp):
            raise ScanError(f"breakpoint {bp} outside the theoretical range")

    regions.sort(key=lambda r: (r.lo, not r.exact))

    # group regions by equal left-cell partitions
    groups = {}
    for idx, reg in enumerate(regions):
        groups.setdefault(reg.left.canonical(), []).append(idx)
    partition_classes = []
    for idxs in groups.values():
        reps_w = min((regions[i].weight for i in idxs),
                     key=lambda w: (sum(w), w))
        partition_classes.append({
            "regions": idxs,
            "representative_weight": reps_w,
            "intervals": [regions[i].interval_text() for i in idxs],
            "left_cells": len(regions[idxs[0]].left),
            "two_sided_cells": len(regions[idxs[0]].two_sided),
        })

    # sanity: every region's assigned interval is inside its certificate,
    # representative weights stay within the theoretical value bound, and
    # the top region starts no later than the guaranteed threshold
    for reg in regions:
        if not reg.exact:
            vlo, vhi = reg.validity
            if not (vlo <= reg.lo and (vhi is None or reg.hi is None
                                       or reg.hi <= vhi)):
                raise ScanError(f"region {reg.interval_text()} leaves its "
                                f"certificate [{vlo}, {vhi}]")
        if max(reg.weight) > 8 * lw0 ** 3:
            raise ScanError(f"region {reg.interval_text()}: representative "
                            f"weight {reg.weight} exceeds {8 * lw0 ** 3}")
    top = max(regions, key=lambda r: (r.hi is None, r.lo))
    if top.hi is None and top.lo > asymptotic_class_bound(sys):
        raise ScanError("top region starts above the guaranteed threshold")

    return ScanReport(
        system_name=sys.spec.name or "custom",
        numerator_class=tuple(sys.gen_classes[numerator_coord(sys)]),
        regions=regions,
        breakpoints=sorted(breakpoints),
        partition_classes=partition_classes,
        order_runs=runs,
        mirrored=swap is not None,
    )


def asymptotic_class_bound(sys):
    """Ratio beyond which all weight functions are guaranteed equivalent."""
    return 2 * sys.length[sys.longest]
