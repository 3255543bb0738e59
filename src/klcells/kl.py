"""Kazhdan-Lusztig bases, M-polynomials and R-polynomials.

Everything is computed over Z[Gamma] for a free abelian group Gamma with
a chosen total multiplicative order (see :mod:`klcells.laurent`).  The
Hecke algebra has the quadratic relation
(T_s - v_s)(T_s + v_s^-1) = 0, i.e.

    T_s T_w = T_{sw}                          if l(sw) > l(w)
    T_s T_w = T_{sw} + (v_s - v_s^-1) T_w     if l(sw) < l(w).

The canonical basis element C_w is the unique bar-invariant element
T_w + sum over y < w of P*_{y,w} T_y with all P*_{y,w} supported on
strictly negative monomials.  The recursion used here: with s a left
descent of u and w = su,

    C_u = T_s C_w + v_s^-1 C_w - sum over sy < y < w of M^s_{y,w} C_y,

where M^s_{y,w} is the unique bar-invariant element congruent to the
current T_y-coefficient modulo strictly negative monomials.  Since
T_s C_u = v_s C_u for every left descent s of u, half of C_u determines
the rest: P*_{y,u} = v_s^-1 P*_{sy,u} whenever sy > y.  So only the
s-lower half (the y with sy < y) is expanded, and the other half is
filled in from that eigen-relation.  Every other left descent s' of u
is expanded the same way, to harvest M^{s'} and to assert that C_u is
unchanged: the s'-half must agree with the stored row, and the stored
row must satisfy the s'-relation.  The leftover strictly-negative
condition on every coefficient is asserted at runtime; it is the
cheapest guard against an invalid order.

P*-rows are plain dicts element -> polynomial (see laurent.py for the
polynomial representation); absent entries are zero.  ``compute_kl``
stores each distinct polynomial once: equal P* and M entries are one
shared dict, and work on them is cached by object identity.  Stored
polynomials must therefore never be mutated in place.  Checks that
memoise by ``id`` stay correct on tables that were never interned,
because every keyed object is kept alive by the table itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import chain

import numpy as np

from .laurent import (
    MonomialOrder,
    MonomialSpace,
    padd_into,
    pbar,
    pmul,
    pneg,
    poly_text,
    psub,
    psub_into,
    split,
    symmetrize_nonneg,
)

ORACLE_LIMIT = 48   # largest group oracle_kl takes; its cost grows fast


class KLError(AssertionError):
    """A runtime post-condition failed: of the canonical-basis recursion,
    or of the cell characters computed from its M-table."""


def class_params(sys, space=None):
    """Generic parameter assignment: one fresh variable per generator class.

    Returns ``(space, params)`` with ``params[s]`` the monomial v_s.
    """
    r = len(sys.gen_classes)
    if space is None:
        space = MonomialSpace(r)
    params = []
    for s in range(sys.rank):
        exps = [0] * r
        exps[sys.class_of_gen[s]] = 1
        params.append(space.pack(exps))
    return space, tuple(params)


def weight_params(sys, weights):
    """Single-variable parameter assignment v_s = v^L(s) for a weight function.

    ``weights`` gives L(s) per generator; values must be positive and
    constant on generator classes.
    """
    weights = tuple(int(x) for x in weights)
    if len(weights) != sys.rank:
        raise ValueError(f"need {sys.rank} weights")
    for cl in sys.gen_classes:
        vals = {weights[s] for s in cl}
        if len(vals) != 1:
            raise ValueError(
                f"weights must be constant on the generator class {cl}"
            )
    if min(weights) <= 0:
        raise ValueError("weights must be positive")
    space = MonomialSpace(1)
    order = MonomialOrder(space, [(1,)])
    return space, tuple(weights), order


def validate_params(sys, params, order):
    """Check v_s constant on generator classes and positive for the order."""
    for cl in sys.gen_classes:
        vals = {params[s] for s in cl}
        if len(vals) != 1:
            raise ValueError(f"parameters differ on generator class {cl}")
    for s, v in enumerate(params):
        if order.sign(v) <= 0:
            raise ValueError(
                f"parameter v_{s} is not positive for the given order"
            )


def v_of_element(sys, params, space):
    """v_w = product of v_s over a reduced word, for every element."""
    one = space.one
    out = [one] * sys.size
    for w in range(1, sys.size):
        s = sys.words[w][-1]
        out[w] = out[sys.cayley_right[s][w]] + params[s] - one
    return out


@dataclass
class KLData:
    """P*-table, M-table and context for one (system, params, order) run."""

    sys: object
    space: MonomialSpace
    params: tuple
    order: MonomialOrder
    rows: list            # rows[w]: dict y -> P*_{y,w} (includes y=w -> 1)
    mu: dict              # (s, y, w) -> nonzero bar-invariant polynomial
    v_elem: list = None   # v_w per element

    def mu_by_sw(self):
        """Index (s, w) -> list of (y, M^s_{y,w}) pairs, sorted by y."""
        out = {}
        for (s, y, w), m in self.mu.items():
            out.setdefault((s, w), []).append((y, m))
        for lst in out.values():
            lst.sort()
        return out


def _half_row(sys, rows, s, u, order, vs, lower, intern, products):
    """The s-lower half of C_u (its x with sx < x), from C_w, w = su < u.

    Only that half of (T_s + v_s^-1) C_w - sum M^s_{y,w} C_y is
    expanded: an entry P*_{y,w} adds to y, times v_s, when sy < y and
    to sy, unshifted, otherwise; each C_y contributes M^s_{y,w} P*_{z,y}
    at its s-lower z only.  Every candidate y of M^s_{y,w} is s-lower,
    so the M-harvest needs nothing else.

    ``lower[x]`` says whether sx < x.  Returns ``(half, mu_local)``:
    half maps x -> nonzero P*_{x,u} (fresh dicts) and mu_local maps
    candidate y -> M^s_{y,w}, passed through ``intern``.  ``products``
    caches M * P* by the identities of the two (interned) factors; its
    values are shared and never mutated.
    """
    one = order.space.one
    sign = order.sign
    length = sys.length
    left_s = sys.cayley_left[s]
    w = left_s[u]
    shift = vs - one
    E = {}
    for y, p in rows[w].items():
        if lower[y]:
            t = E.get(y)
            if t is None:
                E[y] = {m + shift: c for m, c in p.items()}
            else:
                for m, c in p.items():
                    k = m + shift
                    v = t.get(k, 0) + c
                    if v:
                        t[k] = v
                    else:
                        del t[k]
        else:
            sy = left_s[y]
            t = E.get(sy)
            if t is None:
                E[sy] = dict(p)
            else:
                padd_into(t, p)
    cands = [y for y in E if y != u]
    cands.sort(key=lambda y: (-length[y], y))
    mu_local = {}
    for y in cands:
        q = E.get(y)
        if not q or all(sign(m) < 0 for m in q):
            continue
        m_poly = mu_local[y] = intern(symmetrize_nonneg(q, order))
        mid = id(m_poly)
        for z, p in rows[y].items():
            if not lower[z]:
                continue
            key = (mid, id(p))
            prod = products.get(key)
            if prod is None:
                prod = products[key] = pmul(m_poly, p, one)
            acc = E.get(z)
            if acc is None:
                E[z] = pneg(prod)
            else:
                psub_into(acc, prod)
                if not acc:
                    del E[z]
    return {x: p for x, p in E.items() if p}, mu_local


def _interner():
    """A function mapping each polynomial to the one shared dict equal
    to it."""
    interned = {}
    return lambda p: interned.setdefault(frozenset(p.items()), p)


def compute_kl(sys, params, order):
    """Compute all P*_{y,w} and all nonzero M^s_{y,w}.

    Row u is built from its smallest left descent s by the half-row
    recursion (see :func:`_half_row`): the s-lower half, x with sx < x,
    is expanded from C_{su}, and the other half is filled in from the
    eigen-relation T_s C_u = v_s C_u, i.e. P*_{sx,u} = v_s^-1 P*_{x,u}.
    Every other left descent s' of u is expanded as well, half a row
    again, both to harvest the full M-table (M^s_{y,w} exists for every
    pair sw > w, not just the pair on the recursion path) and to assert
    that the descent choice does not change C_u: the s'-half must equal
    row u's s'-lower half, row u must satisfy the s'-relation on the
    other half, and the two halves must make up the whole row.  This is
    the same as re-expanding C_u in full through s' and comparing.
    Runtime assertions additionally check that every P*_{y,u} for
    y < u lies strictly below 1 in the order and that the leading
    coefficient of C_u is 1; these are the cheapest guards against an
    invalid order slipping through rank validation.

    Every stored P* and M polynomial goes through one intern table, so
    equal polynomials are one shared dict; products M * P* and the
    shifts v_s^-1 P* are cached by the factors' identities, and the
    negativity post-condition runs once per distinct polynomial.
    """
    validate_params(sys, params, order)
    space = order.space
    one = space.one
    vinv = tuple(space.inv(v) for v in params)
    intern = _interner()
    shifted = [{} for _ in params]    # [s][id(p)] = v_s^-1 p, p interned

    def down(p, s):
        memo = shifted[s]
        q = memo.get(id(p))
        if q is None:
            k = vinv[s] - one
            q = memo[id(p)] = intern({m + k: c for m, c in p.items()})
        return q

    length = sys.length
    lower = [[length[left_s[x]] < length[x] for x in range(sys.size)]
             for left_s in sys.cayley_left]
    products = {}
    negative = set()        # ids of polynomials checked strictly negative
    rows = [None] * sys.size
    rows[0] = {0: intern({one: 1})}
    mu = {}
    sign = order.sign
    for u in range(1, sys.size):
        row = None
        for s in sys.left_descents(u):
            left_s = sys.cayley_left[s]
            half, mu_local = _half_row(sys, rows, s, u, order, params[s],
                                       lower[s], intern, products)
            if row is None:
                row = {}
                for x, p in half.items():
                    row[x] = p = intern(p)
                    row[left_s[x]] = down(p, s)
                top = row.get(u)
                if top != {one: 1}:
                    raise KLError(
                        f"leading coefficient of C_{sys.word_text(u)} is "
                        f"not 1: {poly_text(space, top or {}, order)}"
                    )
                for y, p in row.items():
                    if y == u or id(p) in negative:
                        continue
                    for m in p:
                        if sign(m) >= 0:
                            raise KLError(
                                "P*_{%s,%s} = %s has a non-negative monomial;"
                                " invalid order or implementation fault"
                                % (sys.word_text(y), sys.word_text(u),
                                   poly_text(space, p, order))
                            )
                    negative.add(id(p))
                rows[u] = row
            elif 2 * len(half) != len(row) or any(
                    row.get(x) != p
                    or row.get(left_s[x]) is not down(row[x], s)
                    for x, p in half.items()):
                raise KLError(f"descent choice changed C_{sys.word_text(u)}")
            for y, m_poly in mu_local.items():
                mu[(s, y, left_s[u])] = m_poly

    return KLData(sys=sys, space=space, params=params, order=order,
                  rows=rows, mu=mu, v_elem=v_of_element(sys, params, space))


def automorphic_image(data, perm, elem_map):
    """The tables of ``data`` carried through a class-swapping diagram
    automorphism: generator s goes to ``perm[s]``, element w to
    ``elem_map[w]``.  The two class coordinates of every monomial and
    functional are swapped (the identity on one-variable data); by
    uniqueness of the canonical basis this is what ``compute_kl`` returns
    for the image parameters and order.  Every class-swapping ``perm``
    here is an involution, so ``perm`` and ``elem_map`` are self-inverse.
    """
    space = data.space
    swap = cache(lambda m: space.pack(space.unpack(m)[::-1]))
    moved = {}

    def move(p):
        if id(p) not in moved:
            moved[id(p)] = {swap(m): c for m, c in p.items()}
        return moved[id(p)]

    rows = [{elem_map[y]: move(p) for y, p in data.rows[w].items()}
            for w in elem_map]
    mu = {(perm[s], elem_map[y], elem_map[w]): move(m)
          for (s, y, w), m in data.mu.items()}
    params = tuple(swap(data.params[s]) for s in perm)
    order = MonomialOrder(space, [f[::-1] for f in data.order.functionals])
    return KLData(data.sys, space, params, order, rows, mu,
                  v_of_element(data.sys, params, space))


# ---------------------------------------------------------------------------
# R-polynomials and the independent triangular oracle


def compute_r(sys, params, space):
    """R-polynomials via the left-descent recursion, one row y at a time.

    Returns a dict (x, y) -> polynomial; pairs with R = 0 are absent.
    Elements are numbered by length, so with s the first left descent
    of y the row of sy is complete when row y is built:

        R_{x,y} = R_{sx,sy}                                if sx < x
        R_{x,y} = R_{sx,sy} + (v_s - v_s^-1) R_{x,sy}      if sx > x.

    Only x with x or sx in the row of sy can be nonzero (the lifting
    property: x <= y iff min(x, sx) <= sy), so no Bruhat scan is needed.
    Equal polynomials are one shared object, and the second case is
    memoised by the identities of its operands.
    """
    one = space.one
    length = sys.length
    intern = _interner()
    rows = [{0: intern({one: 1})}]
    steps = {}
    for y in range(1, sys.size):
        s = sys.first_left_descent(y)
        left = sys.cayley_left[s]
        prev = rows[left[y]]
        up = params[s] - one
        down = space.inv(params[s]) - one
        row = {}
        for x, r in prev.items():
            sx = left[x]
            if length[sx] < length[x]:
                # the pair {sx, x} is handled at sx when sx is in the row;
                # otherwise R_{sx,y} = R_{x,sy} and R_{x,y} = 0
                if sx not in prev:
                    row[sx] = r
                continue
            row[sx] = r                     # R_{sx,y} = R_{x,sy}
            r_up = prev.get(sx)
            key = (id(r_up), id(r), s)
            val = steps.get(key)
            if val is None:
                val = dict(r_up) if r_up is not None else {}
                for m, c in r.items():
                    for k, cc in ((m + up, c), (m + down, -c)):
                        v = val.get(k, 0) + cc
                        if v:
                            val[k] = v
                        else:
                            del val[k]
                val = steps[key] = intern(val)
            if val:
                row[x] = val
        rows.append(row)
    return {(x, y): p for y, row in enumerate(rows) for x, p in row.items()}


def oracle_kl(sys, params, order):
    """Independent canonical-basis computation from bar-invariance alone.

    For each w the triangular system imposed by bar(C_w) = C_w and the
    strict negativity of P*_{y,w} is solved directly through the
    R-polynomial identity

        bar(P*)_{x,w} - P*_{x,w} = sum over x < y <= w of R_{x,y} P*_{y,w},

    with no M-polynomials involved; a group past ``ORACLE_LIMIT`` is refused.
    """
    if sys.size > ORACLE_LIMIT:
        raise ValueError(
            f"oracle limited to groups of size <= {ORACLE_LIMIT}")
    validate_params(sys, params, order)
    space = order.space
    one = space.one
    rtab = compute_r(sys, params, space)
    rows = [None] * sys.size
    for w in range(sys.size):
        below = sys.bruhat_below(w)
        below.sort(key=lambda y: (-sys.length[y], y))
        row = {w: {one: 1}}
        for x in below:
            if x == w:
                continue
            acc = {}
            for y in below:
                if y == x or not sys.bruhat_leq(x, y):
                    continue
                r = rtab.get((x, y))
                if r:
                    padd_into(acc, pmul(r, row[y], one))
            pos, const, neg = split(acc, order)
            if const:
                raise KLError("oracle: difference has a constant term")
            p = {m: -c for m, c in neg.items()}
            if psub(pbar(p, space), p) != acc:
                raise KLError("oracle: bar equation not solvable")
            if p:
                row[x] = p
        rows[w] = row
    return KLData(sys=sys, space=space, params=params, order=order,
                  rows=rows, mu={}, v_elem=v_of_element(sys, params, space))


# ---------------------------------------------------------------------------
# verification suites


@dataclass
class CheckReport:
    name: str
    checked: int = 0
    violations: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    inconclusive: str = ""  # why a check with no violations compared nothing

    @property
    def ok(self):
        return not self.violations

    def __str__(self):
        if self.ok and self.inconclusive:
            return f"[{self.name}] inconclusive: {self.inconclusive}"
        state = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"[{self.name}] {self.checked} checked, {state}"


def _distinct(polys):
    """The distinct objects of ``polys`` and, per entry, its object's index."""
    ids = np.fromiter(map(id, polys), np.int64, len(polys))
    _, first, which = np.unique(ids, return_index=True, return_inverse=True)
    return [polys[i] for i in first], which.astype(np.int32)


def _terms(distinct, which):
    """Expand entries into one term each, walking every object once.

    Returns the sorted distinct monomials and, per term, the index of
    its entry, of its monomial and its coefficient (int64).
    """
    monos = sorted({m for p in distinct for m in p})
    index = {m: i for i, m in enumerate(monos)}
    sizes = np.fromiter(map(len, distinct), np.int64, len(distinct))
    total = int(sizes.sum())
    mono = np.fromiter((index[m] for p in distinct for m in p), np.int64,
                       total)
    coef = np.fromiter((c for p in distinct for c in p.values()), np.int64,
                       total)
    counts = sizes[which]
    entry = np.repeat(np.arange(len(which)), counts)
    offset = np.arange(len(entry)) - np.repeat(np.cumsum(counts) - counts,
                                                counts)
    term = (np.cumsum(sizes) - sizes)[which][entry] + offset
    return monos, entry, mono[term], coef[term]


def verify_bar_identity_full(kl):
    """All-pairs R-identity check with one sparse product per R-monomial.

    Summing the identity over y = x..w shows it is equivalent to the
    matrix equation bar(P) = R * P over the Laurent ring, where P and R
    are the (element x element) coefficient matrices including the unit
    diagonals.  P is laid out once as an n x (n * K_P) integer matrix,
    one column block per P-monomial.  R is held by distinct polynomial:
    per entry (x, y) the index of its polynomial, and one dense table
    of the distinct polynomials by R-monomial, so no entry is expanded
    term by term.  For each R-monomial m1 the n x n slice R_{m1} is
    built from the entries whose polynomial has m1, and the product
    R_{m1} @ P has its block of m2 moved to the output monomial m1 * m2
    and is added into one running difference that starts as -bar(P); a
    block still nonzero at the end is a violated monomial slice.
    Blocks are numbered by packed monomial, so each move keeps the
    column order.  Arithmetic is exact int64, guarded by a bound on
    every partial sum.
    """
    from scipy import sparse

    sys, space, one = kl.sys, kl.space, kl.space.one
    n = sys.size
    report = CheckReport("bar-identity")
    rtab = compute_r(sys, kl.params, space)

    p_col = np.repeat(np.arange(n), [len(row) for row in kl.rows])
    p_row = np.fromiter(chain.from_iterable(kl.rows), np.int64, len(p_col))
    p_distinct, p_which = _distinct(
        list(chain.from_iterable(row.values() for row in kl.rows)))
    r_key = np.fromiter(chain.from_iterable(rtab), np.int32,
                        2 * len(rtab)).reshape(-1, 2)
    r_distinct, r_which = _distinct(list(rtab.values()))
    del rtab
    rm, r_entry, r_mono, r_coef = _terms(r_distinct, range(len(r_distinct)))
    r_table = np.zeros((len(r_distinct), len(rm)), np.int64)
    r_table[r_entry, r_mono] = r_coef
    # |entry of R * P| <= sum over y of ||R_{x,y}||_1 * max|P coefficient|
    pmax = max((abs(c) for p in p_distinct for c in p.values()), default=0)
    rnorm = int(np.abs(r_table).sum(axis=1).max())
    if (n * rnorm + 1) * pmax >= 2 ** 63:
        raise OverflowError("coefficient growth too large for int64 slices")

    pm, entry, mono, coef = _terms(p_distinct, p_which)
    y, w = p_row[entry], p_col[entry]
    p_all = sparse.csr_matrix((coef, (y, mono * n + w)),
                              shape=(n, n * len(pm)))
    two_one = space.two_one
    out = sorted({m1 + m2 - one for m1 in rm for m2 in pm}
                 | {two_one - m2 for m2 in pm})
    block_of = {g: i for i, g in enumerate(out)}
    bar_block = np.array([block_of[two_one - m2] for m2 in pm])
    diff = sparse.csr_matrix(
        (-coef, (y, bar_block[mono] * n + w)),
        shape=(n, n * len(out)))
    report.checked = len(p_col)
    del p_col, p_row, p_which, entry, mono, coef, y, w  # room for the loop
    for a, m1 in enumerate(rm):
        r_col = r_table[r_which, a]
        nz = np.flatnonzero(r_col)
        r_a = sparse.csr_matrix((r_col[nz], (r_key[nz, 0], r_key[nz, 1])),
                                shape=(n, n))
        prod = r_a @ p_all
        block = np.array([block_of[m1 + m2 - one] for m2 in pm])
        prod = sparse.csr_matrix(
            (prod.data, block[prod.indices // n] * n + prod.indices % n,
             prod.indptr), shape=diff.shape)
        diff = diff + prod
    bad = np.unique(diff.indices[diff.data != 0] // n)
    for g in sorted((out[b] for b in bad), key=kl.order.key):
        report.violations.append(("slice", space.unpack(g)))
    return report


def _squares_constant(space, p, shift):
    """Constant term of ``shift`` * p, or None when ``shift`` * p is not a
    polynomial in the v_s^2 (``shift`` is a packed monomial)."""
    const = 0
    for m, c in p.items():
        exps = space.unpack(m + shift - space.one)
        if any(e < 0 or e % 2 for e in exps):
            return None
        if not any(exps):
            const = c
    return const


def check_lemma_p(kl):
    """v_w v_y^-1 P*_{y,w} is a polynomial in the v_s^2 with constant term 1.

    The verdict depends only on the polynomial and the shift, so it is
    memoised by ``(id(p), shift)``.
    """
    sys, space = kl.sys, kl.space
    v = kl.v_elem
    report = CheckReport("P-normalization")
    verdicts = {}
    for w in range(sys.size):
        for y, p in kl.rows[w].items():
            shift = v[w] + space.inv(v[y]) - space.one
            key = (id(p), shift)
            ok = verdicts.get(key)
            if ok is None:
                ok = verdicts[key] = _squares_constant(space, p, shift) == 1
            report.checked += 1
            if not ok:
                report.violations.append((y, w))
    return report


def check_lemma_m(kl):
    """v_s v_w v_y^-1 M^s_{y,w} is a polynomial in the v_t^2 with constant
    term 0, and every stored M is bar-invariant."""
    sys, space = kl.sys, kl.space
    v = kl.v_elem
    report = CheckReport("M-normalization")
    for (s, y, w), m_poly in kl.mu.items():
        if pbar(m_poly, space) != m_poly:
            report.violations.append(("bar", s, y, w))
            continue
        shift = kl.params[s] + v[w] + space.inv(v[y]) - 2 * space.one
        report.checked += 1
        if _squares_constant(space, m_poly, shift) != 0:
            report.violations.append(("support", s, y, w))
    return report


def check_bounds(kl):
    """Strict exponent bounds on every monomial of every P* and M.

    In the generic multi-variable setting every exponent lies strictly
    between -l(w0) and l(w0).  Under a specialization the analogous
    v-degree bound is the weighted length of w0 and is attained (at
    P*_{1,w0}), so it is checked non-strictly.  Both bounds are the
    coordinate sum of v_{w0}, which is l(w0) when every generator
    contributes a unit vector.  Attained extremes per coordinate are
    recorded for regression.  Each polynomial object is scanned once;
    its out-of-bound exponent vectors are memoised by ``id(p)``.
    """
    sys, space = kl.sys, kl.space
    bound = sum(space.unpack(kl.v_elem[sys.longest]))
    strict = space.rank >= 2
    report = CheckReport("exponent-bounds")
    lo = [0] * space.rank
    hi = [0] * space.rank
    out_of_bounds = {}

    def scan(p):
        """Out-of-bound exponent vectors of p, one per bad coordinate."""
        bad = out_of_bounds.get(id(p))
        if bad is None:
            bad = out_of_bounds[id(p)] = []
            for m in p:
                exps = space.unpack(m)
                for i, e in enumerate(exps):
                    if e < lo[i]:
                        lo[i] = e
                    if e > hi[i]:
                        hi[i] = e
                    if not (-bound < e < bound) if strict \
                            else not (-bound <= e <= bound):
                        bad.append(exps)
        return bad

    for w in range(sys.size):
        for y, p in kl.rows[w].items():
            if y != w:
                report.checked += 1
                for exps in scan(p):
                    report.violations.append((("P", y, w), exps))
    for key, m_poly in kl.mu.items():
        report.checked += 1
        for exps in scan(m_poly):
            report.violations.append((("M",) + key, exps))
    report.notes["min_exponents"] = lo
    report.notes["max_exponents"] = hi
    report.notes["strict_bound"] = bound
    return report


def tables_equal(a, b):
    """Entrywise equality of two P*-tables (used for oracle comparison);
    no table stores a zero entry."""
    return a.rows == b.rows
