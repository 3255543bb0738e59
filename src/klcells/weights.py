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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import cells as cells_mod
from . import kl as kl_mod
from . import reps as reps_mod
from .coxeter import build_system
from .laurent import MonomialOrder, MonomialSpace


def normalize_weight(weights):
    """Divide all values by their gcd."""
    weights = tuple(int(x) for x in weights)
    g = math.gcd(*weights) if len(weights) > 1 else weights[0]
    return tuple(x // g for x in weights)


def class_weights_of(sys, weights):
    """Per-class values of a weight function, indexed by generator class."""
    out = []
    for cl in sys.gen_classes:
        vals = {weights[s] for s in cl}
        if len(vals) != 1:
            raise ValueError(f"weight not constant on class {cl}")
        out.append(vals.pop())
    return tuple(out)


def weight_from_class_values(sys, class_values):
    return tuple(class_values[sys.class_of_gen[s]] for s in range(sys.rank))


def specialize_monomial(space, coord_weights, m):
    exps = space.unpack(m)
    return sum(w * e for w, e in zip(coord_weights, exps))


def specialize_poly(space, coord_weights, poly):
    """Push a polynomial along v_s -> v^L(s); returns a rank-1 poly dict."""
    out = {}
    for m, c in poly.items():
        e = specialize_monomial(space, coord_weights, m)
        v = out.get(e, 0) + c
        if v:
            out[e] = v
        else:
            del out[e]
    return out


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


def delta_of_element(kl_data, w):
    """Top monomial delta_w^-1 of P*_{1,w}, returned as delta_w (positive).

    delta of the identity is the trivial monomial by convention.
    """
    if w == 0:
        return kl_data.space.one
    p = kl_data.rows[w].get(0)
    if not p:
        return None
    top = max(p, key=kl_data.order.key)
    return kl_data.space.inv(top)


def gamma_plus_prime_W(kl_data, left):
    """Enlarged set certifying distinguished-involution data as well.

    Adds (a) the ratio of the top monomial of each P*_{1,w} to every
    lower monomial, and (b) the consecutive ratios of the sorted
    distinct delta values inside each left cell.  Elements sharing a
    delta value are recorded and simply excluded from the chain.
    """
    space = kl_data.space
    inv = space.inv
    key = kl_data.order.key
    out = set(gamma_plus_W(kl_data))
    duplicates = []
    for w in range(1, kl_data.sys.size):
        p = kl_data.rows[w].get(0)
        if not p:
            continue
        top = max(p, key=key)
        for m in p:
            if m != top:
                out.add(space.mul(top, inv(m)))
    for blk in left.blocks:
        deltas = []
        for w in blk:
            d = delta_of_element(kl_data, w)
            if d is not None:
                deltas.append(d)
        distinct = sorted(set(deltas), key=key)
        if len(distinct) < len(deltas):
            duplicates.append(blk[0])
        for a, b in zip(distinct, distinct[1:]):
            out.add(space.mul(inv(a), b))
    return out, duplicates


def check_star(space, coord_weights, monomial_set):
    """True iff the specialization maps every member to v^n with n > 0."""
    violations = []
    for m in monomial_set:
        if specialize_monomial(space, coord_weights, m) <= 0:
            violations.append(space.unpack(m))
    return not violations, sorted(violations)


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

    Delta(w) = -(top v-degree of the specialized P*_{1,w}); n_w is the
    coefficient there.  For each left cell the report records the
    minimizer and whether it is unique, an involution, and has n = +-1.
    Failures are findings, not crashes.
    """

    per_cell: list
    delta: dict
    n_of: dict
    violations: list

    @property
    def ok(self):
        return not self.violations

    def distinguished_elements(self):
        return sorted(c["d"] for c in self.per_cell)


def distinguished_involutions(kl_data, left, coord_weights=None):
    sys = kl_data.sys
    space = kl_data.space
    if coord_weights is None:
        if space.rank != 1:
            raise ValueError("coordinate weights required for multi-variable data")
        coord_weights = (1,)
    delta = {0: 0}
    n_of = {0: 1}
    for w in range(1, sys.size):
        p = kl_data.rows[w].get(0)
        if not p:
            continue
        sp = specialize_poly(space, coord_weights, p)
        top = max(sp)
        delta[w] = -top
        n_of[w] = sp[top]
    per_cell = []
    violations = []
    for ci, blk in enumerate(left.blocks):
        known = [w for w in blk if w in delta]
        if len(known) != len(blk):
            violations.append(("missing P*_{1,w}", ci))
            continue
        dmin = min(delta[w] for w in blk)
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
    return DistinguishedReport(per_cell=per_cell, delta=delta, n_of=n_of,
                               violations=violations)


def order_distinguished(kl_data, left):
    """Order-world variant: per cell, the unique element whose delta_w is
    minimal for the generating order itself (no specialization)."""
    sys = kl_data.sys
    key = kl_data.order.key
    violations = []
    per_cell = []
    for ci, blk in enumerate(left.blocks):
        deltas = {}
        for w in blk:
            d = delta_of_element(kl_data, w)
            if d is None:
                violations.append(("missing P*_{1,w}", ci))
                break
            deltas[w] = d
        else:
            dmin = min(deltas.values(), key=key)
            mins = [w for w in blk if deltas[w] == dmin]
            d0 = mins[0]
            per_cell.append({"cell": ci, "d": d0, "unique": len(mins) == 1,
                             "involution": sys.mult(d0, d0) == 0})
            if len(mins) != 1:
                violations.append(("non-unique order minimizer", ci))
            if sys.mult(d0, d0) != 0:
                violations.append(("order minimizer not an involution", ci))
    return per_cell, violations


# ---------------------------------------------------------------------------
# the analysis of one computed table


@dataclass
class Analysis:
    left: object                 # left cells (CellPartition)
    edges: list                  # elementary left-relation edges
    two_sided: object
    left_chars: list | None      # character decomposition per left cell
    distinguished: DistinguishedReport | None


def analyse(sys, kl_data, coord_weights, chart):
    """Cells, cell characters and distinguished involutions of one table.

    This is the one path from computed KL data to the analysed result:
    ``pipeline.run_pipeline`` and every scan region go through it.
    ``chart`` is ``(table, class_map)``, or None for no characters.
    ``coord_weights`` specialize the data for the distinguished
    involution report; an order run on a multi-class space has none,
    and then the report is None.
    """
    left, edges = cells_mod.left_cells(sys, kl_data.mu)
    two_sided = cells_mod.two_sided_cells(sys, edges)
    left_chars = None
    if chart is not None:
        table, class_map = chart
        left_chars = [reps_mod.decompose(v, table, class_map) for v in
                      reps_mod.all_cell_characters(sys, kl_data, left)]
    distinguished = None
    if coord_weights is not None:
        distinguished = distinguished_involutions(kl_data, left, coord_weights)
    return Analysis(left, edges, two_sided, left_chars, distinguished)


# ---------------------------------------------------------------------------
# specialization consistency (the two-route cross-check)


def specialization_consistency(order_data, weight_data, coord_weights):
    """Check the two computation routes agree under a certified map.

    Requires the star condition for the order data's monomial set; then
    asserts sigma(P*) and sigma(M) equal the directly computed
    single-variable tables entrywise, and that sigma kills no nonzero M.
    Returns a CheckReport.
    """
    report = kl_mod.CheckReport("specialization-consistency")
    space = order_data.space
    gamma = gamma_plus_W(order_data)
    ok, viol = check_star(space, coord_weights, gamma)
    if not ok:
        report.violations.append(("star condition fails", viol[:5]))
        return report
    sys = order_data.sys
    for w in range(sys.size):
        ra = order_data.rows[w]
        rb = weight_data.rows[w]
        sa = {y: specialize_poly(space, coord_weights, p) for y, p in ra.items()}
        sa = {y: p for y, p in sa.items() if p}
        report.checked += len(sa)
        if sa != {y: p for y, p in rb.items() if p}:
            report.violations.append(("P-row", sys.word_text(w)))
    mu_b = weight_data.mu
    for key, m_poly in order_data.mu.items():
        sm = specialize_poly(space, coord_weights, m_poly)
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
class Region:
    """One scan region: an open ratio interval or an exact ratio."""

    lo: Fraction
    hi: Fraction | None          # None = infinity
    exact: bool
    weight: tuple                # representative weight, per generator
    functionals: tuple | None    # order functionals (open regions)
    left: object
    two_sided: object
    validity: tuple | None = None    # certified interval of the gamma set
    left_chars: list | None = None
    distinguished: DistinguishedReport | None = None
    order_distinguished_ok: bool | None = None
    gamma_prime_validity: tuple | None = None
    by_symmetry: bool = False

    @property
    def char_labels(self):
        if self.left_chars is None:
            return None
        return [reps_mod.decomposition_name(m) for m in self.left_chars]

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
    order_runs: int
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
    pass


def _mediant(lo, hi):
    """Strictly interior rational; hi=None plays the role of 1/0."""
    if hi is None:
        return Fraction(lo.numerator + 1, lo.denominator)
    return Fraction(lo.numerator + hi.numerator,
                    lo.denominator + hi.denominator)


def _order_for_ratio(space, ratio, num_coord):
    """Weighted order used for an open region around the given ratio.

    Primary functional a*i + b*j for (a, b) = (denominator, numerator)
    of the ratio; ties broken by the two-case rule (numerator weight
    >= denominator weight breaks by i > 0, otherwise by j > 0).  Open
    regions never have certifying monomials on the tie line, so the
    tiebreak is immaterial there; it is fixed for determinism.
    """
    den_coord = 1 - num_coord
    a, b = ratio.denominator, ratio.numerator
    f1 = [0, 0]
    f1[den_coord], f1[num_coord] = a, b
    f2 = [0, 0]
    if b >= a:
        f2[den_coord] = 1
    else:
        f2[num_coord] = 1
    return MonomialOrder(space, [tuple(f1), tuple(f2)])


def _pure_lex_num_dominant(space, num_coord):
    f1 = [0, 0]
    f1[num_coord] = 1
    f2 = [0, 0]
    f2[1 - num_coord] = 1
    return MonomialOrder(space, [tuple(f1), tuple(f2)])


_SYSTEMS = {}   # spec -> system; the scan seeds it with the system it holds


def _exact_region(spec, chart, ratio, weight):
    """The region at an exact breakpoint, from a single-variable run.

    The serial scan maps this over the breakpoints with ``map``, the
    parallel scan with ``pool.map``.  The system comes from a memo
    keyed by the spec: the serial scan and forked workers find the
    scanned system there, a spawned worker builds it once.
    """
    sys = _SYSTEMS.get(spec)
    if sys is None:
        sys = _SYSTEMS[spec] = build_system(spec)
    _, params, order = kl_mod.weight_params(sys, weight)
    data = kl_mod.compute_kl(sys, params, order)
    found = analyse(sys, data, (1,), chart)
    return Region(lo=ratio, hi=ratio, exact=True, weight=weight,
                  functionals=None, left=found.left,
                  two_sided=found.two_sided, left_chars=found.left_chars,
                  distinguished=found.distinguished)


def scan_equivalence_classes(sys, *, chartable_name=None, use_mirror=None,
                             progress=None, jobs=1):
    """Partition all positive weight functions of a two-class system.

    Returns a :class:`ScanReport`.  ``chartable_name`` names a bundled
    character table and enables per-region left-cell character
    decompositions (skipped on mirrored regions).  ``use_mirror``
    controls whether ratios below 1 are obtained through a
    class-swapping diagram automorphism (default: automatic when one
    exists).  ``jobs`` > 1 computes the exact-ratio regions in a process
    pool; serial and parallel runs call the same function per region,
    and the merge is deterministic.
    """
    if len(sys.gen_classes) != 2:
        raise ScanError("scan requires exactly two generator classes")
    chart = None
    if chartable_name is not None:
        table = reps_mod.load_bundled_table(chartable_name)
        chart = (table, reps_mod.table_for_system(sys, table))
    num_gen = sys.spec.numerator_gen
    if num_gen is None:
        num_gen = sys.rank - 1
    num_coord = sys.class_of_gen[num_gen]
    space = MonomialSpace(2)
    _, params = kl_mod.class_params(sys, space)
    lw0 = sys.length[sys.longest]
    max_runs = 16 * lw0 * lw0 + 64
    swap_map = None
    if use_mirror is not False:
        for perm in sys.diagram_automorphisms():
            if sys.class_of_gen[perm[num_gen]] != num_coord:
                swap_map = sys.element_map_for_auto(perm)
                swap_perm = perm
                break
        if use_mirror and swap_map is None:
            raise ScanError("no class-swapping diagram automorphism to mirror with")
    mirror = swap_map is not None
    bottom = Fraction(1) if mirror else Fraction(0)

    runs = 0
    open_region_list = []   # finished Region objects for open intervals

    def note(msg):
        if progress is not None:
            progress(msg)

    def probe(order, label):
        """Two-variable tables and certifying set of one order run."""
        nonlocal runs
        runs += 1
        if runs > max_runs:
            raise ScanError(f"scan exceeded {max_runs} pipeline runs")
        note(f"order run {runs}: {label}")
        data = kl_mod.compute_kl(sys, params, order)
        return data, gamma_plus_W(data)

    def weight_for_ratio(r):
        vals = [0, 0]
        vals[num_coord] = r.numerator
        vals[1 - num_coord] = r.denominator
        return weight_from_class_values(sys, vals)

    def accept(lo, hi, data, order, validity):
        """Make the accepted probe ``data`` the open region (lo, hi)."""
        weight = weight_for_ratio(_mediant(lo, hi))
        found = analyse(sys, data, class_weights_of(sys, weight), chart)
        gp, _ = gamma_plus_prime_W(data, found.left)
        try:
            glo, ghi, *_ = validity_interval(space, gp, num_coord)
            gp_validity = (glo, ghi)
        except ValueError:
            gp_validity = None
        _, order_viol = order_distinguished(data, found.left)
        open_region_list.append(Region(
            lo=lo, hi=hi, exact=False, weight=weight,
            functionals=order.functionals, left=found.left,
            two_sided=found.two_sided, validity=validity,
            left_chars=found.left_chars, distinguished=found.distinguished,
            order_distinguished_ok=not order_viol,
            gamma_prime_validity=gp_validity,
        ))

    # top region through the numerator-dominant pure lexicographic order
    top_order = _pure_lex_num_dominant(space, num_coord)
    data, top_gamma = probe(top_order, "pure lex")
    lo, hi, *_ = validity_interval(space, top_gamma, num_coord)
    if hi is not None:
        raise ScanError("pure lex region is bounded above; unexpected")
    accept(lo, None, data, top_order, (lo, hi))
    del data

    def tile(lo_bound, hi_bound, hint_gamma, depth=0):
        """Cover the open interval (lo_bound, hi_bound) with regions."""
        if depth > max_runs:
            raise ScanError("scan recursion failed to terminate")
        if lo_bound >= hi_bound:
            return
        guess = lo_bound
        if hint_gamma:
            cands = [c for c in breakpoint_candidates(space, hint_gamma, num_coord)
                     if lo_bound < c < hi_bound]
            if cands:
                guess = max(cands)
        rho = _mediant(guess, hi_bound)
        order = _order_for_ratio(space, rho, num_coord)
        data, gamma = probe(order, f"interval guess ({guess}, {hi_bound})")
        lo, hi, *_ = validity_interval(space, gamma, num_coord)
        if not (lo < rho and (hi is None or rho < hi)):
            # rho itself is critical for its own data; split around it
            del data
            tile(rho, hi_bound, gamma, depth + 1)
            tile(lo_bound, rho, gamma, depth + 1)
            return
        cover_lo = max(lo, lo_bound)
        cover_hi = hi_bound if hi is None else min(hi, hi_bound)
        accept(cover_lo, cover_hi, data, order, (lo, hi))
        del data
        if cover_hi < hi_bound:
            tile(cover_hi, hi_bound, gamma, depth + 1)
        if cover_lo > lo_bound:
            tile(lo_bound, cover_lo, gamma, depth + 1)

    tile(bottom, lo, top_gamma)

    # exact regions at all interior boundaries (plus 1 itself when mirroring)
    boundary = set()
    for region in open_region_list:
        if region.lo > bottom or (mirror and region.lo == Fraction(1)):
            boundary.add(region.lo)
        if region.hi is not None:
            boundary.add(region.hi)
    if mirror:
        boundary.add(Fraction(1))
    breakpoints = sorted(boundary)
    for bp in breakpoints:
        if not (0 < bp.numerator < 2 * lw0 and 0 < bp.denominator < 2 * lw0):
            raise ScanError(f"breakpoint {bp} outside the theoretical range")

    regions = list(open_region_list)
    note(f"exact runs at {len(breakpoints)} breakpoints, jobs={jobs}")
    exact_run = partial(_exact_region, sys.spec, chart)
    bp_weights = [weight_for_ratio(bp) for bp in breakpoints]
    _SYSTEMS[sys.spec] = sys
    try:
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                regions.extend(pool.map(exact_run, breakpoints, bp_weights))
        else:
            regions.extend(map(exact_run, breakpoints, bp_weights))
    finally:
        del _SYSTEMS[sys.spec]
    runs += len(breakpoints)

    if mirror:
        def mirrored_partition(part):
            return cells_mod.partition_of_blocks(
                sys, part.kind, ([swap_map[w] for w in blk]
                                 for blk in part.blocks))

        mirrored = []
        for reg in regions:
            if reg.exact and reg.lo == 1:
                continue
            inv_lo = Fraction(0) if reg.hi is None else 1 / reg.hi
            inv_hi = 1 / reg.lo
            mw = tuple(reg.weight[swap_perm[s]] for s in range(sys.rank))
            mirrored.append(Region(
                lo=inv_lo, hi=inv_hi if not reg.exact else inv_lo,
                exact=reg.exact, weight=mw, functionals=None,
                left=mirrored_partition(reg.left),
                two_sided=mirrored_partition(reg.two_sided), by_symmetry=True,
            ))
        regions.extend(mirrored)
        breakpoints = sorted(set(breakpoints)
                             | {1 / bp for bp in breakpoints})

    regions.sort(key=lambda r: (r.lo, not r.exact,
                                r.hi if r.hi is not None else Fraction(10**9)))

    # group regions by equal left-cell partitions
    groups = {}
    for idx, reg in enumerate(regions):
        groups.setdefault(reg.left.canonical(), []).append(idx)
    partition_classes = []
    for key_, idxs in groups.items():
        reps_w = min((regions[i].weight for i in idxs),
                     key=lambda w: (sum(w), w))
        partition_classes.append({
            "regions": idxs,
            "representative_weight": reps_w,
            "intervals": [regions[i].interval_text() for i in idxs],
            "left_cells": len(regions[idxs[0]].left),
            "two_sided_cells": len(regions[idxs[0]].two_sided),
        })
    partition_classes.sort(key=lambda c: min(c["regions"]))

    # sanity: every region's assigned interval is inside its certificate,
    # representative weights stay within the theoretical value bound, and
    # the top region starts no later than the guaranteed threshold
    for reg in regions:
        if reg.validity is not None and not reg.exact:
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
        numerator_class=tuple(sys.gen_classes[num_coord]),
        regions=regions,
        breakpoints=breakpoints,
        partition_classes=partition_classes,
        order_runs=runs,
        mirrored=mirror,
    )


def asymptotic_class_bound(sys):
    """Ratio beyond which all weight functions are guaranteed equivalent."""
    return 2 * sys.length[sys.longest]


def check_refinement(coarse, fine):
    """Indices of coarse left blocks that are not unions of fine blocks."""
    return cells_mod.check_union_refinement(coarse, fine)
