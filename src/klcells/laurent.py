"""Exact Laurent-polynomial arithmetic over a free abelian monomial group.

The coefficient ring is Z throughout; coefficients are plain Python ints
and can grow without bound.  A monomial is an exponent vector in Z^r.
For rank >= 2 the vector is packed into a single int (13 bits per
coordinate, offset so that the zero vector packs to a fixed constant),
which makes the group law on monomials ordinary integer addition and
keeps polynomial dicts cheap to hash and copy.  For rank 1 the packed
form is just the bare exponent, so single-variable exponents are
unbounded.

A polynomial is a plain ``dict`` mapping packed monomial -> nonzero
coefficient.  The helpers below never store zero coefficients and never
mutate their arguments unless the name ends in ``_into``.  Polynomials
stored in a ``KLData`` table are shared: equal entries are one object,
and memos key on object identity (see :mod:`klcells.kl`), so a stored
polynomial must never be mutated in place; ``_into`` helpers only ever
receive fresh accumulators.

A total multiplicative order on the monomial group is given by a stack
of integer weight functionals, compared lexicographically; the stack
must have full rank so that distinct monomials never compare equal.
"""

from __future__ import annotations

from fractions import Fraction


_SHIFT = 13
_OFF = 1 << (_SHIFT - 1)
_MASK = (1 << _SHIFT) - 1


class MonomialSpace:
    """Packing/unpacking of rank-r exponent vectors into single ints."""

    def __init__(self, rank):
        if rank < 1:
            raise ValueError("rank must be >= 1")
        self.rank = rank
        if rank == 1:
            self.one = 0
        else:
            self.one = sum(_OFF << (_SHIFT * i) for i in range(rank))
        self.two_one = 2 * self.one

    def pack(self, exps):
        exps = tuple(exps)
        if len(exps) != self.rank:
            raise ValueError(f"expected {self.rank} exponents, got {len(exps)}")
        if self.rank == 1:
            return exps[0]
        m = 0
        for i, e in enumerate(exps):
            if not -_OFF < e < _OFF:
                raise ValueError(f"exponent {e} out of packing range +-{_OFF - 1}")
            m |= (e + _OFF) << (_SHIFT * i)
        return m

    def unpack(self, m):
        if self.rank == 1:
            return (m,)
        return tuple(((m >> (_SHIFT * i)) & _MASK) - _OFF for i in range(self.rank))

    def mul(self, m1, m2):
        """Group law: componentwise exponent addition."""
        return m1 + m2 - self.one

    def inv(self, m):
        return self.two_one - m

    def __repr__(self):
        return f"MonomialSpace(rank={self.rank})"


class MonomialOrder:
    """Total multiplicative order given by a full-rank functional stack.

    A monomial gamma is positive iff the first functional with a nonzero
    value on gamma's exponent vector is positive there.  Multiplicativity
    and translation invariance are automatic from linearity.
    """

    def __init__(self, space, functionals):
        self.space = space
        fs = tuple(tuple(int(c) for c in f) for f in functionals)
        if not fs:
            raise ValueError("need at least one functional")
        for f in fs:
            if len(f) != space.rank:
                raise ValueError("functional length does not match rank")
        self.functionals = fs
        if _matrix_rank(fs) != space.rank:
            raise ValueError(
                f"functional stack {fs} has rank < {space.rank}: order is not total"
            )
        self._signs = {}
        self._keys = {}
        self.negatives = set()      # every monomial signed -1 so far

    def sign(self, m):
        """-1, 0 or +1 for gamma below, equal to or above 1: the sign of
        the first nonzero value of ``key(m)``.

        Memoised per packed monomial, like ``key``: a table run evaluates
        the sign of the same few dozen monomials millions of times.
        """
        s = self._signs.get(m)
        if s is None:
            v = next((v for v in self.key(m) if v), 0)
            s = self._signs[m] = (v > 0) - (v < 0)
            if s < 0:
                self.negatives.add(m)
        return s

    def all_negative(self, p):
        """Whether every monomial of p is below 1.  A monomial not yet
        signed negative is signed here, never taken as negative."""
        return p.keys() <= self.negatives or all(self.sign(m) < 0 for m in p)

    def key(self, m):
        """Sort key: ascending key order is ascending monomial order."""
        k = self._keys.get(m)
        if k is None:
            exps = self.space.unpack(m)
            k = self._keys[m] = tuple(sum(c * e for c, e in zip(f, exps))
                                      for f in self.functionals)
        return k

    def __repr__(self):
        return f"MonomialOrder({list(self.functionals)})"


def _matrix_rank(rows):
    """Rank over Q of an integer matrix given as a tuple of rows."""
    mat = [[Fraction(c) for c in row] for row in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def lex_order(space, priority=None):
    """Lexicographic order; ``priority`` lists coordinates from most to
    least significant (default: coordinate 0 dominant)."""
    r = space.rank
    if priority is None:
        priority = range(r)
    fs = []
    for c in priority:
        f = [0] * r
        f[c] = 1
        fs.append(f)
    return MonomialOrder(space, fs)


# ---------------------------------------------------------------------------
# polynomial helpers (plain dicts: packed monomial -> nonzero int)


def padd_into(acc, p):
    for m, c in p.items():
        v = acc.get(m, 0) + c
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


def psub_into(acc, p):
    for m, c in p.items():
        v = acc.get(m, 0) - c
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)


def psub(p, q):
    out = dict(p)
    psub_into(out, q)
    return out


def pneg(p):
    return {m: -c for m, c in p.items()}


def pmul(p, q, one):
    if len(p) > len(q):
        p, q = q, p
    out = {}
    for m1, c1 in p.items():
        k = m1 - one
        for m2, c2 in q.items():
            m = k + m2
            v = out.get(m, 0) + c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def pscale(p, coeff, mono, one):
    """coeff * mono * p with a single monomial shift."""
    if coeff == 0:
        return {}
    k = mono - one
    return {m + k: c * coeff for m, c in p.items()}


def pbar(p, space):
    """Bar involution: every monomial replaced by its inverse."""
    t = space.two_one
    return {t - m: c for m, c in p.items()}


def split(p, order):
    """Split p = positive + constant*1 + negative along the order.

    Returns ``(pos, const, neg)`` with ``pos``/``neg`` polynomials
    supported on the strictly positive/negative monomials and ``const``
    the integer coefficient of the identity monomial.
    """
    sign = order.sign
    pos, neg = {}, {}
    const = 0
    for m, c in p.items():
        s = sign(m)
        if s > 0:
            pos[m] = c
        elif s < 0:
            neg[m] = c
        else:
            const = c
    return pos, const, neg


def symmetrize_nonneg(q, order):
    """Bar-invariant completion of the nonnegative part of q.

    Returns M = a_1*1 + sum over positive monomials gamma of
    a_gamma*(gamma + gamma^-1), where the a's are q's coefficients on
    the positive monomials and on 1.  M is bar-invariant and congruent
    to q modulo the span of the strictly negative monomials.
    """
    space = order.space
    t = space.two_one
    sign = order.sign
    out = {}
    for m, c in q.items():
        s = sign(m)
        if s > 0:
            out[m] = out.get(m, 0) + c
            mi = t - m
            out[mi] = out.get(mi, 0) + c
        elif s == 0:
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


# ---------------------------------------------------------------------------
# text / JSON forms

_VARNAMES = ("x", "y", "z", "w")


def varnames(rank):
    if rank == 1:
        return ("v",)
    if rank <= len(_VARNAMES):
        return _VARNAMES[:rank]
    return tuple(f"x{i}" for i in range(rank))


def mono_text(space, m):
    exps = space.unpack(m)
    parts = []
    for n, e in zip(varnames(space.rank), exps):
        if e == 1:
            parts.append(n)
        elif e:
            parts.append(f"{n}^{e}")
    return "*".join(parts) if parts else "1"


def poly_text(space, p, order):
    """Human form ``c*x^i*y^j + ...`` sorted descending by the order."""
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=order.key, reverse=True):
        c = p[m]
        mt = mono_text(space, m)
        if mt == "1":
            term = str(abs(c))
        elif abs(c) == 1:
            term = mt
        else:
            term = f"{abs(c)}*{mt}"
        if not parts:
            parts.append(term if c > 0 else "-" + term)
        else:
            parts.append(("+ " if c > 0 else "- ") + term)
    return " ".join(parts)


def poly_json(space, p, order):
    """JSON form: list of [exponent-vector, coefficient], sorted descending
    by the order."""
    return [[list(space.unpack(m)), p[m]]
            for m in sorted(p, key=order.key, reverse=True)]


def poly_from_terms(space, terms):
    """Build a polynomial from ``(exponent-vector, coefficient)`` pairs."""
    out = {}
    for exps, c in terms:
        m = space.pack(exps)
        v = out.get(m, 0) + c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out
