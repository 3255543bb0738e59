"""Character table construction for the shipped reference data.

Two construction routes:

* dihedral groups of even order get their classical closed-form table
  (four linear characters plus two-dimensional ones); two-dimensional
  characters with irrational values (any m not in {3,4,6} divisor
  pattern) are folded along Galois orbits into integer-valued rows with
  norm = orbit size, so the table stays exact over Z;

* everything else goes through the Burnside-Dixon algorithm: class-sum
  structure constants, simultaneous diagonalization of the class
  matrices over GF(p) for a prime p = 1 mod exponent(W), and symmetric
  lifting of the eigenvalues back to Z.  All arithmetic is modular or
  integral; the result is validated by exact orthogonality.

Row labels here are systematic (``<degree>_<k>`` in a deterministic
order).  Domain-specific label conventions (the F4 names tied to the
two-sided cell data) are applied by the generation tool, not here.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _cos2pi(num, den):
    """Exact 2*cos(2*pi*num/den) when rational, else None."""
    q = Fraction(num % den, den)
    table = {
        Fraction(0): 2, Fraction(1, 2): -2,
        Fraction(1, 3): -1, Fraction(2, 3): -1,
        Fraction(1, 4): 0, Fraction(3, 4): 0,
        Fraction(1, 6): 1, Fraction(5, 6): 1,
    }
    return table.get(q)


def dihedral_table(m):
    """Character table of the dihedral group of order 2m (m even >= 4).

    Classes follow the system convention: identity, then by ascending
    length of the minimal representative: s-class, t-class, rotation
    classes r^j ~ r^-j, and the central rotation r^(m/2).  Returned as a
    raw dict in the JSON schema used by :mod:`klcells.reps`.
    """
    if m % 2 or m < 4:
        raise ValueError("closed form implemented for even m >= 4 only")
    half = m // 2
    # class representatives as words in the generators s=0, t=1;
    # r = st has word (0,1); r^j word (0,1)*j; reflections r^j s.
    classes = [((), 1)]
    classes.append(((0,), half))          # reflections conjugate to s
    classes.append(((1,), half))          # reflections conjugate to t
    for j in range(1, half):
        classes.append(((0, 1) * j, 2))
    classes.append(((0, 1) * half, 1))    # central rotation = w0
    # order classes by (word length, word) to match system enumeration
    classes.sort(key=lambda c: (len(c[0]), c[0]))
    words = [c[0] for c in classes]
    sizes = [c[1] for c in classes]

    def rot_exponent(word):
        # word is either (0,1)*j or a reflection class word
        if len(word) % 2 == 0:
            return len(word) // 2
        return None

    def linear(val_s, val_t):
        out = []
        for word in words:
            v = 1
            for g in word:
                v *= val_s if g == 0 else val_t
            out.append(v)
        return out

    rows = [
        {"label": "1_1", "values": linear(1, 1), "norm": 1},
        {"label": "1_2", "values": linear(1, -1), "norm": 1},
        {"label": "1_3", "values": linear(-1, 1), "norm": 1},
        {"label": "1_4", "values": linear(-1, -1), "norm": 1},
    ]

    def two_dim_values(ks):
        out = []
        for word in words:
            j = rot_exponent(word)
            if j is None:
                out.append(0)
                continue
            total = 0
            for k in ks:
                v = _cos2pi(k * j, m)
                if v is None:
                    # sum over the full Galois orbit is an integer; the
                    # individual summands need floating point only here,
                    # and exact orthogonality validates the rounding
                    total = None
                    break
                total += v
            if total is None:
                acc = sum(2 * math.cos(2 * math.pi * k * j / m) for k in ks)
                total = round(acc)
                if abs(acc - total) > 1e-9:
                    raise AssertionError("orbit sum failed to be integral")
            out.append(total)
        return out

    # Galois orbits of the two-dimensional characters rho_k, 1<=k<half:
    # k ~ k*u mod m for units u, folded into the range via +-.
    units = [u for u in range(1, m) if math.gcd(u, m) == 1]
    remaining = set(range(1, half))
    while remaining:
        k = min(remaining)
        orbit = set()
        for u in units:
            kk = (k * u) % m
            kk = min(kk, m - kk)
            if 1 <= kk < half:
                orbit.add(kk)
        rational = all(
            _cos2pi(k2 * j, m) is not None
            for k2 in orbit for j in range(m)
        )
        if rational:
            for k2 in sorted(orbit):
                rows.append({"label": f"2_{k2}",
                             "values": two_dim_values([k2]), "norm": 1})
        else:
            label = "+".join(f"2_{k2}" for k2 in sorted(orbit))
            rows.append({"label": label,
                         "values": two_dim_values(sorted(orbit)),
                         "norm": len(orbit)})
        remaining -= orbit
    return {
        "name": f"I2_{m}",
        "group_order": 2 * m,
        "class_words": [list(w) for w in words],
        "class_sizes": sizes,
        "irreducibles": rows,
    }


# ---------------------------------------------------------------------------
# Burnside-Dixon over GF(p)


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _nullspace_mod(rows, p, ncols):
    """Basis of the nullspace of a matrix over GF(p)."""
    mat = [list(r) for r in rows]
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(mat)):
            if mat[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = (-mat[r][fc]) % p
        basis.append(vec)
    return basis


def element_order(sys, w):
    """Multiplicative order of element ``w`` of a built system."""
    k, x = 1, w
    while x != 0:
        x = sys.mult(x, w)
        k += 1
    return k


def dixon_table(sys, name=None):
    """Character table of a finite Coxeter system via Burnside-Dixon.

    Requires all character values to be rational integers (true for
    every crystallographic Weyl group); irrational values make the
    symmetric lift fail loudly.  Rows come out sorted by (degree,
    values) with systematic labels ``<degree>_<k>``.
    """
    classes = sys.conjugacy_classes()
    k = len(classes)
    idx_of = sys.class_index_of()
    inv_class = [idx_of[sys.inverse[rep]] for rep, _ in classes]
    # structure constants: for fixed z_l, a[i][j][l] = #{g in C_i : g^-1 z_l in C_j}
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    for l in range(k):
        zl = classes[l][0]
        for i in range(k):
            for elem in classes[i][1]:
                j = idx_of[sys.mult(sys.inverse[elem], zl)]
                a[i][j][l] += 1
    exponent = 1
    for rep, _ in classes:
        exponent = math.lcm(exponent, element_order(sys, rep))
    maxdeg = math.isqrt(sys.size)
    p = exponent + 1
    while not (_is_prime(p) and p > 2 * maxdeg + 1):
        p += exponent

    def apply(i, v):
        """(N_i v)_j = sum over l of a[i][j][l] v_l mod p."""
        out = []
        for j in range(k):
            col = a[i][j]
            out.append(sum(col[l] * v[l] for l in range(k) if v[l]) % p)
        return out

    # split GF(p)^k into common eigenspaces of the N_i
    spaces = [[[1 if r == c else 0 for c in range(k)] for r in range(k)]]
    for i in range(k):
        if all(len(b) == 1 for b in spaces):
            break
        new_spaces = []
        for basis in spaces:
            d = len(basis)
            if d == 1:
                new_spaces.append(basis)
                continue
            images = [apply(i, b) for b in basis]
            found = 0
            for lam in range(p):
                # c in GF(p)^d with sum_j c_j (N_i - lam) b_j = 0
                mat = [[(images[bi][l] - lam * basis[bi][l]) % p
                        for bi in range(d)] for l in range(k)]
                null = _nullspace_mod(mat, p, d)
                if not null:
                    continue
                sub = []
                for nv in null:
                    vec = [0] * k
                    for ci, b in zip(nv, basis):
                        if ci:
                            for l in range(k):
                                vec[l] = (vec[l] + ci * b[l]) % p
                    sub.append(vec)
                new_spaces.append(sub)
                found += len(sub)
                if found == d:
                    break
            if found != d:
                raise AssertionError("class matrix failed to diagonalize")
        spaces = new_spaces
    if any(len(b) != 1 for b in spaces):
        raise AssertionError("class matrices did not separate all characters")

    order_inv = pow(sys.size % p, p - 2, p)
    sizes = [len(members) for _, members in classes]
    rows = []
    for (vec,) in spaces:
        if vec[0] % p == 0:
            raise AssertionError("eigenvector vanishes on the identity class")
        norm = pow(vec[0], p - 2, p)
        omega = [(x * norm) % p for x in vec]
        # 1/chi(1)^2 = (1/|W|) sum_l omega_l omega_{l*} / |C_l|
        acc = 0
        for l in range(k):
            acc = (acc + omega[l] * omega[inv_class[l]]
                   * pow(sizes[l], p - 2, p)) % p
        inv_deg_sq = (acc * order_inv) % p
        deg_sq = pow(inv_deg_sq, p - 2, p)
        deg = next((d for d in range(1, maxdeg + 1) if d * d % p == deg_sq),
                   None)
        if deg is None:
            raise AssertionError("degree is not a small integer; "
                                 "irrational character values?")
        values = []
        for l in range(k):
            v = (deg * omega[l] * pow(sizes[l], p - 2, p)) % p
            if v > p // 2:
                v -= p
            if abs(v) > deg:
                raise AssertionError("lifted value exceeds the degree bound")
            values.append(v)
        rows.append(values)
    rows.sort(key=lambda r: (r[0], [-x for x in r]))
    seen = {}
    irreducibles = []
    for values in rows:
        d = values[0]
        seen[d] = seen.get(d, 0) + 1
        irreducibles.append({"label": f"{d}_{seen[d]}",
                             "values": values, "norm": 1})
    return {
        "name": name or (sys.spec.name or "custom"),
        "group_order": sys.size,
        "class_words": [list(sys.words[rep]) for rep, _ in classes],
        "class_sizes": sizes,
        "irreducibles": irreducibles,
    }
