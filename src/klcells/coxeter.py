"""Finite Coxeter systems: enumeration, lengths, Bruhat order, classes.

A system is specified by its Coxeter matrix (optionally via a named
preset).  Elements are enumerated exactly, with no floating point, by
left multiplication through one faithful action per connected
component of the diagram:

* rank-2 components act as dihedral groups on (rotation, flip) pairs,
  for any bond order m;
* every other component plays the numbers game on rho = (1, ..., 1)
  with coordinates a + b*phi in the golden-ratio ring (phi^2 = phi + 1),
  which covers bonds within {2,3,4} or within {2,3,5}.

By the classification of finite Coxeter groups, any other connected
shape of rank >= 3 is infinite and is rejected up front.  Reducible
diagrams are built componentwise and assembled as direct products.
The left Cayley table comes from the actions; the inverse map and the
right Cayley table are derived from it.

Elements are indexed 0..|W|-1, breadth-first by length and then
lexicographically by the canonical (lexicographically minimal) reduced
word; index 0 is the identity, and the least index of a set of elements
is its least element in (length, index).  Every table is computed by
``build_system``; a built system is a frozen value that nothing fills
in later, so it can be shared between threads and pickled while
another thread reads it.  Every partition, here and in ``cells``, is
found by one walk, ``orbits``.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass


class CoxeterError(ValueError):
    """Invalid Coxeter matrix or preset."""


class EnumerationCapError(CoxeterError):
    """Group enumeration exceeded the configured element cap."""


DEFAULT_CAP = 20000


# ---------------------------------------------------------------------------
# presets

# The finite irreducible families by letter: the ranks n; the bonds along
# the chain of generators 0..n-2, the leading ones given and 3 after them
# ("m" is I's bond order); the generator that the last one hangs from, as
# an index (-2 on a chain); and the numerator generator of ratio scans,
# whose weight is the independent one (None: no two-class convention).
_FAMILIES = {
    "A": (range(1, sys.maxsize), (), -2, None),
    "B": (range(2, sys.maxsize), (4,), -2, 0),
    "D": (range(3, sys.maxsize), (), -3, None),
    "E": ((6, 7, 8), (), 2, None),
    "F": ((4,), (3, 4, 3), -2, 2),
    "G": ((2,), (6,), -2, 1),
    "H": ((3, 4), (5,), -2, None),
    "I": ((2,), ("m",), -2, 1),
}
_FAMILIES["C"] = _FAMILIES["B"]

# a letter; its rank directly, after "_" or spaces, or as "(n)"; then, for
# I only, its bond order as ":m" or "(m)"
_FACTOR = re.compile(r"([A-Z])[\s_]*(\d*)\s*(?:\(\s*(\d+)\s*\)|:\s*(\d+))?")
_TYPES = ("the types are An (n >= 1), Bn = Cn (n >= 2), Dn (n >= 3), E6, E7, "
          "E8, F4, G2, H3, H4 and I2:m (m >= 2), joined by x")


def parse_type(text):
    """The system named by a type string: factors such as ``A3``, ``B_4``,
    ``F(4)``, ``G`` or ``I2:6`` (``I_2(6)``, ``I(6)``), case ignored,
    joined by ``x`` or ``*`` (``A2xA1``).  Any other string raises
    ``CoxeterError``, among them a rank the family lacks and a second
    number on a family other than I."""
    bonds, rank, numerator = [], 0, None
    for factor in re.split(r"[xX*]", text):
        found = _FACTOR.fullmatch(factor.strip().upper())
        if not found or found[1] not in _FAMILIES:
            raise CoxeterError(f"no finite Coxeter type {factor!r}; {_TYPES}")
        ranks, lead, hang, num = _FAMILIES[found[1]]
        n, paren, m = found[2], found[3], found[4]
        if "m" in lead or n:    # "(m)" is I's bond order, or a second number
            m = m or paren
        else:                   # "F(4)"
            n = paren
        n = int(n) if n else ranks[0] if len(ranks) == 1 else 0
        if n not in ranks or ("m" in lead) != bool(m) or m and int(m) < 2:
            raise CoxeterError(f"no finite Coxeter type {factor!r}; {_TYPES}")
        chain = [int(m) if b == "m" else b for b in lead] + [3] * n
        for j in range(1, n):
            i = j - 1 if j < n - 1 else hang % n
            bonds.append((rank + i, rank + j, chain[j - 1]))
        if numerator is None and num is not None:
            numerator = rank + num
        rank += n
    mat = [[1 if i == j else 2 for j in range(rank)] for i in range(rank)]
    for i, j, bond in bonds:
        mat[i][j] = mat[j][i] = bond
    return CoxeterSpec(matrix=tuple(map(tuple, mat)), name=text,
                       numerator_gen=numerator)


@dataclass(frozen=True)
class CoxeterSpec:
    """Coxeter matrix plus bookkeeping for a (hopefully finite) system."""

    matrix: tuple
    name: str = ""
    numerator_gen: int | None = None

    def __post_init__(self):
        mat = self.matrix
        n = len(mat)
        if n == 0:
            raise CoxeterError("empty generator set")
        for i in range(n):
            if len(mat[i]) != n:
                raise CoxeterError("Coxeter matrix is not square")
            if mat[i][i] != 1:
                raise CoxeterError("diagonal entries must be 1")
            for j in range(n):
                if i != j:
                    mij = mat[i][j]
                    if mij != mat[j][i]:
                        raise CoxeterError("Coxeter matrix must be symmetric")
                    if not isinstance(mij, int) or mij < 2:
                        raise CoxeterError("off-diagonal orders must be ints >= 2")

    @property
    def rank(self):
        return len(self.matrix)


# ---------------------------------------------------------------------------
# exact faithful left actions per connected component


class _DihedralSeed:
    """Order-2m dihedral group on two generators; elements are (rot, flip).

    s is the pure flip and t the flip composed with one rotation, so that
    st is the rotation; ``act`` is left multiplication by s or t.
    """

    def __init__(self, m):
        self.m = m
        self.identity = (0, 0)
        self._rot = (0, m - 1)

    def act(self, g, elem):
        rot, flip = elem
        return ((self._rot[g] - rot) % self.m, 1 - flip)


# c_ij * c_ji = 4cos^2(pi/m) as a + b*phi, with phi^2 = phi + 1
_BOND_PRODUCT = {3: (1, 0), 4: (2, 0), 5: (1, 1)}


class _NumbersGame:
    """The numbers game over Z[phi] (Bjoerner-Brenti, section 4.3).

    A state holds one coordinate a + b*phi per generator, flattened to
    (a_0, b_0, a_1, b_1, ...).  Firing generator i negates coordinate i
    and adds c_ij times its old value to each neighbour j, where the
    smaller index of a bond takes c = 1 and the larger the product in
    ``_BOND_PRODUCT``; on a tree diagram any such orientation is a
    faithful action.  The orbit of rho = (1, ..., 1) is in bijection
    with W, so a state stands for one element.
    """

    def __init__(self, mat):
        k = len(mat)
        self.identity = (1, 0) * k
        self._neighbours = [
            [(j, *((1, 0) if i < j else _BOND_PRODUCT[mat[i][j]]))
             for j in range(k) if j != i and mat[i][j] >= 3]
            for i in range(k)
        ]

    def act(self, g, elem):
        out = list(elem)
        a, b = elem[2 * g], elem[2 * g + 1]
        out[2 * g] = -a
        out[2 * g + 1] = -b
        for j, p, q in self._neighbours[g]:
            out[2 * j] += p * a + q * b
            out[2 * j + 1] += p * b + q * a + q * b
        return tuple(out)


def orbits(roots, neighbours):
    """Components of the walk along ``neighbours(x)``, each sorted: each
    root of ``roots``, a permutation of 0..n-1, that no earlier walk
    reached starts one, so they come in the order of ``roots``."""
    reached = [False] * len(roots)
    comps = []
    for root in roots:
        if not reached[root]:
            reached[root] = True
            comp = [root]
            for x in comp:              # comp grows while it is walked
                for y in neighbours(x):
                    if not reached[y]:
                        reached[y] = True
                        comp.append(y)
            comps.append(sorted(comp))
    return comps


def _components(matrix, linked):
    """Connected components of the generators under ``linked(m_ij)``."""
    return orbits(range(len(matrix)), lambda i: [
        j for j, m in enumerate(matrix[i]) if linked(m)])


def _component_seeds(mat):
    """Split the diagram into connected components and pick exact actions."""
    seeds = []
    for comp in _components(mat, lambda m: m >= 3):
        k = len(comp)
        sub = [[mat[i][j] for j in comp] for i in comp]
        edges = sum(1 for i in range(k) for j in range(i) if sub[i][j] >= 3)
        bonds = {sub[i][j] for i in range(k) for j in range(i)} - {2}
        if k == 2:
            seeds.append((comp, _DihedralSeed(sub[0][1])))
        elif edges >= k:
            raise CoxeterError(
                f"connected component {comp} contains a diagram cycle; "
                "finite Coxeter diagrams are trees, so the group is infinite"
            )
        elif bonds <= {3, 4} or bonds <= {3, 5}:
            seeds.append((comp, _NumbersGame(sub)))
        else:
            raise CoxeterError(
                f"connected component {comp} with bond orders {sorted(bonds)} is "
                "infinite (no finite Coxeter group of rank >= 3 has such bonds)"
            )
    return seeds


# ---------------------------------------------------------------------------
# the enumerated system


@dataclass(frozen=True)
class CoxeterSystem:
    """Fully enumerated finite Coxeter system.

    Frozen: every field is set by ``build_system`` and never changes;
    all tables are index-based.
    """

    spec: CoxeterSpec
    size: int
    rank: int
    length: list
    words: list                 # canonical reduced word per element
    cayley_right: list          # cayley_right[s][w] = index of w*s
    cayley_left: list           # cayley_left[s][w]  = index of s*w
    inverse: list
    longest: int
    gen_classes: list           # partition of generators by odd-bond connectivity
    class_of_gen: list
    conj_classes: list          # see conjugacy_classes

    # -- basic accessors ----------------------------------------------------

    def word_to_element(self, word):
        w = 0
        for s in word:
            w = self.cayley_right[s][w]
        return w

    def left_descents(self, w):
        lw = self.length[w]
        return [s for s in range(self.rank)
                if self.length[self.cayley_left[s][w]] < lw]

    def right_descents(self, w):
        lw = self.length[w]
        return [s for s in range(self.rank)
                if self.length[self.cayley_right[s][w]] < lw]

    def mult(self, a, b):
        for s in self.words[b]:
            a = self.cayley_right[s][a]
        return a

    def word_text(self, w):
        return "".join(str(s + 1) for s in self.words[w]) or "e"

    # -- Bruhat order ---------------------------------------------------------

    def bruhat_leq(self, y, w):
        """Bruhat-Chevalley order by the descent walk along the canonical
        word of w: for a left descent s of w, y <= w if and only if
        min(y, sy) <= sw.  O(l(w)) steps."""
        length = self.length
        for s in self.words[w]:
            sy = self.cayley_left[s][y]
            if length[sy] < length[y]:
                y = sy
        return y == 0

    def bruhat_below(self, w):
        """Sorted list of all y <= w."""
        return [y for y in range(self.size) if self.bruhat_leq(y, w)]

    # -- conjugacy ------------------------------------------------------------

    def conjugacy_classes(self):
        """Conjugacy classes as (representative, sorted element tuple).

        Classes are sorted by (length of representative, representative
        index); representatives are minimal in that key.  The identity
        class always comes first.
        """
        return self.conj_classes

    def class_index_of(self):
        """List mapping element -> index of its conjugacy class."""
        classes = self.conjugacy_classes()
        out = [0] * self.size
        for i, (_, members) in enumerate(classes):
            for e in members:
                out[e] = i
        return out

    # -- diagram automorphisms --------------------------------------------------

    def diagram_automorphisms(self):
        """All permutations of the generators preserving the Coxeter matrix."""
        mat = self.spec.matrix
        n = self.rank
        autos = []
        for perm in itertools.permutations(range(n)):
            if all(mat[perm[i]][perm[j]] == mat[i][j]
                   for i in range(n) for j in range(n)):
                autos.append(perm)
        return autos

    def element_map_for_auto(self, perm):
        """Element permutation induced by a diagram automorphism: w goes to
        its canonical word with each s replaced by ``perm[s]``."""
        return [self.word_to_element(perm[s] for s in word)
                for word in self.words]

    def summary(self):
        hist = {}
        for l in self.length:
            hist[l] = hist.get(l, 0) + 1
        return {
            "name": self.spec.name or "custom",
            "size": self.size,
            "rank": self.rank,
            "longest_length": self.length[self.longest],
            "length_histogram": [hist[k] for k in sorted(hist)],
            "generator_classes": [list(c) for c in self.gen_classes],
            "conjugacy_class_count": len(self.conjugacy_classes()),
        }


def generator_classes(matrix):
    """Partition generators by connectivity through odd finite bonds."""
    return _components(matrix, lambda m: m % 2 == 1)


def _conjugacy_classes(cayley_left, cayley_right):
    """Orbits of x -> sxs as (least element, sorted members), as
    :meth:`CoxeterSystem.conjugacy_classes` lists them; by the index
    order the least element is minimal in (length, index)."""
    pairs = list(zip(cayley_left, cayley_right))
    return [(c[0], tuple(c)) for c in orbits(
        range(len(cayley_left[0])),
        lambda x: [left[right[x]] for left, right in pairs])]


def build_system(spec, cap=DEFAULT_CAP):
    """Enumerate the group and build all tables.

    Raises :class:`EnumerationCapError` when more than ``cap`` elements
    are found (the default cap fails fast on infinite specs).
    """
    if isinstance(spec, str):
        spec = parse_type(spec)
    mat = spec.matrix
    n = spec.rank
    seeds = _component_seeds(mat)
    place = [None] * n          # generator -> (component, local index)
    for ci, (comp, _) in enumerate(seeds):
        for li, g in enumerate(comp):
            place[g] = (ci, li)
    identity = tuple(seed.identity for _, seed in seeds)

    def left_mul(g, elem):
        ci, li = place[g]
        parts = list(elem)
        parts[ci] = seeds[ci][1].act(li, elem[ci])
        return tuple(parts)

    # BFS by length; canonical word = min over (letter, canonical word of
    # the element it multiplies), which yields the lex-least reduced word.
    index_of = {identity: 0}
    words = [()]
    left = []                   # left[w][g] = index of g*w
    level = [identity]
    while level:
        first = len(words) - len(level)
        images = [[left_mul(g, elem) for g in range(n)] for elem in level]
        nxt = {}
        for w, row in enumerate(images, first):
            for g, new in enumerate(row):
                if new in index_of:
                    continue
                cand = (g,) + words[w]
                old = nxt.get(new)
                if old is None or cand < old:
                    nxt[new] = cand
        if len(index_of) + len(nxt) > cap:
            raise EnumerationCapError(
                f"more than {cap} elements; group is infinite or cap too low"
            )
        level = sorted(nxt, key=nxt.get)
        for elem in level:
            index_of[elem] = len(words)
            words.append(nxt[elem])
        left.extend([index_of[x] for x in row] for row in images)

    size = len(words)
    lengths = [len(word) for word in words]
    cayley_left = [list(col) for col in zip(*left)]
    inverse = [0] * size
    for w, word in enumerate(words):
        x = 0
        for s in word:          # s_k...s_1 is the inverse of s_1...s_k
            x = cayley_left[s][x]
        inverse[w] = x
    # w*s is the inverse of s*w^-1
    cayley_right = [[inverse[row[inverse[w]]] for w in range(size)]
                    for row in cayley_left]

    maxlen = lengths[-1]
    longest_candidates = [w for w in range(size) if lengths[w] == maxlen]
    if len(longest_candidates) != 1:
        raise CoxeterError("no unique longest element; group not finite?")
    classes = generator_classes(mat)
    class_of_gen = [0] * n
    for i, cl in enumerate(classes):
        for g in cl:
            class_of_gen[g] = i

    return CoxeterSystem(
        spec=spec,
        size=size,
        rank=n,
        length=lengths,
        words=words,
        cayley_right=cayley_right,
        cayley_left=cayley_left,
        inverse=inverse,
        longest=longest_candidates[0],
        gen_classes=classes,
        class_of_gen=class_of_gen,
        conj_classes=_conjugacy_classes(cayley_left, cayley_right),
    )
