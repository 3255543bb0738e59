import dataclasses
import hashlib
import pickle
from itertools import combinations

import pytest

from chargen import element_order
from klcells import coxeter, kl, pipeline
from klcells.coxeter import (
    CoxeterError,
    CoxeterSpec,
    EnumerationCapError,
    build_system,
    generator_classes,
    orbits,
    parse_type,
)

from conftest import REFUSED_TYPES, system


@pytest.mark.parametrize("name,size,lw0", [
    ("A1", 2, 1), ("A2", 6, 3), ("A3", 24, 6), ("B2", 8, 4),
    ("I2:4", 8, 4), ("I2:5", 10, 5), ("I2:6", 12, 6), ("I2:8", 16, 8),
    ("B3", 48, 9), ("B4", 384, 16), ("H3", 120, 15), ("D4", 192, 12),
    ("G2", 12, 6), ("F4", 1152, 24), ("A2xA1", 12, 4),
    ("H4", 14400, 60), ("B5", 3840, 25), ("D5", 1920, 20),
])
def test_sizes_and_longest(name, size, lw0):
    sys = system(name)
    assert sys.size == size
    assert sys.length[sys.longest] == lw0


def test_generator_actions_and_lengths():
    for name in ("I2:4", "A3", "B3", "H3"):
        sys = system(name)
        for w in range(sys.size):
            for s in range(sys.rank):
                for table in (sys.cayley_left, sys.cayley_right):
                    assert table[s][table[s][w]] == w
                    assert abs(sys.length[table[s][w]] - sys.length[w]) == 1
        # (st)^k fixes every element exactly when m_st divides k
        everything = list(range(sys.size))
        for s, t in combinations(range(sys.rank), 2):
            m = sys.spec.matrix[s][t]
            for table in (sys.cayley_left, sys.cayley_right):
                st = [table[s][table[t][w]] for w in everything]
                power = everything
                for k in range(1, m + 1):
                    power = [st[w] for w in power]
                    assert (power == everything) == (k == m)


# sha256 of repr((words, cayley_left, cayley_right, inverse)): the element
# numbering indexes every archive, so it must not drift
TABLE_DIGESTS = {
    "F4": "208db80cb1e71903b2ec0525c37770b03a4e094157dc456053840192066f3111",
    "B4": "df24e7c5b400dc72cbc86751faaf87a895e95ed3fc2fbb8ebafc0e54e7f5974f",
    "H3": "f057298128fb4fa6348593f654b145f407d8b0019adf2ceb3e91e0219187ef51",
    "I2:8": "8c1db33d07b8ce3632cc7551568ad37f8a0e2bf64782d720d07e59a449604fe6",
    "A2xA1": "ef08267ee02007d6ea93e251cb3982d75a027c5790e3fd129163e9b5359e87b8",
    "B5": "dba18c1979de5e17d5bf5614cb906a9323e6f7f1f7a72486f8366aa31db3d157",
    "D5": "ea4309464b2123d43f0556685088ea28c39dd29981bdda4bfe59ae86196fe2ca",
    "H4": "022e726937dc10fab9bd2a0928281302df8535fb6082518330ee842b04fcb61a",
    "I2:7xA1": "4cba3434f4c3a78f3f311a7d8d6bbda423e674b899c66d97f051b1bc90c0c4c0",
    "B3xI2:5": "8312e876f9801ea00dba4562cbd1ce3c14ffa4816b0642db06ca2e8e4c8d6b7b",
}


def table_digest(sys):
    blob = repr((sys.words, sys.cayley_left, sys.cayley_right,
                 sys.inverse)).encode()
    return hashlib.sha256(blob).hexdigest()


def test_element_numbering_is_pinned():
    for name, digest in TABLE_DIGESTS.items():
        assert table_digest(system(name)) == digest, name


def test_b6_numbering_is_pinned():
    # 46,080 elements: above the default cap
    sys = build_system("B6", cap=50000)
    assert sys.size == 46080
    assert table_digest(sys) == \
        "aafea73e3f2df25978b0d3a2b71d418ba6bafd3a6aa4b8fb0db5a7d41ae8a7b3"


def test_rank_the_cap_cannot_hold_is_refused_before_any_product(
        monkeypatch):
    # 2^15 distinct products of distinct generators exceed 20,000
    def fail(*args):
        raise RuntimeError("a product was computed")

    monkeypatch.setattr(coxeter._NumbersGame, "act", fail)
    with pytest.raises(EnumerationCapError, match="rank 15:"):
        build_system("A15")
    with pytest.raises(RuntimeError):
        build_system("A14")     # 2^14 <= 20,000: the walk starts


def test_cap_is_the_largest_size_built():
    with pytest.raises(EnumerationCapError):
        build_system("A5", cap=719)
    assert build_system("A5", cap=720).size == 720


def test_length_histogram_symmetric():
    for name in ("B3", "F4"):
        sys = system(name)
        hist = {}
        for l in sys.length:
            hist[l] = hist.get(l, 0) + 1
        top = sys.length[sys.longest]
        assert all(hist[k] == hist[top - k] for k in hist)


def test_canonical_words_are_reduced_and_lex_minimal():
    for name in ("B3", "H3", "F4", "I2:7xA1"):
        sys = system(name)
        for w in range(sys.size):
            word = sys.words[w]
            assert len(word) == sys.length[w]
            assert sys.word_to_element(word) == w
            # lex-least: the first letter is the smallest left descent and
            # the rest is the canonical word of the shorter element
            if w:
                s = sys.left_descents(w)[0]
                assert word[0] == s
                assert word[1:] == sys.words[sys.cayley_left[s][w]]
        # index order is breadth-first by length then lexicographic by word
        keys = [(sys.length[w], sys.words[w]) for w in range(sys.size)]
        assert keys == sorted(keys)


def test_inverse_is_antiautomorphism():
    for name in ("I2:6", "A3", "B3"):
        sys = system(name)
        for w in range(sys.size):
            winv = sys.inverse[w]
            assert sys.length[winv] == sys.length[w]
            assert sys.word_to_element(tuple(reversed(sys.words[w]))) == winv
            assert sys.mult(w, winv) == 0


def _bruhat_by_subwords(sys, w):
    """Every subsequence of one reduced word of w that stays reduced."""
    word = sys.words[w]
    below = set()
    n = len(word)
    for k in range(n + 1):
        for idxs in combinations(range(n), k):
            x = sys.word_to_element(tuple(word[i] for i in idxs))
            if sys.length[x] == k:
                below.add(x)
    return below


def test_bruhat_order():
    for name in ("I2:4", "I2:6", "A3", "B3"):
        sys = system(name)
        w0 = sys.longest
        for w in range(sys.size):
            assert sys.bruhat_leq(0, w)
            assert sys.bruhat_leq(w, w0)
        # refines length strictly
        for y in range(sys.size):
            for w in range(sys.size):
                if sys.bruhat_leq(y, w):
                    assert sys.length[y] <= sys.length[w]
                    assert y == w or sys.length[y] < sys.length[w]
        # agrees with exhaustive subword enumeration
        for w in range(sys.size):
            below = _bruhat_by_subwords(sys, w)
            assert set(sys.bruhat_below(w)) == below


@pytest.mark.parametrize("weight", [None, (2, 1, 1, 1)],
                         ids=["two-variable", "2,1,1,1"])
def test_bruhat_below_is_the_support_of_r(b4, weight):
    # R_{y,w} is nonzero exactly when y <= w: on B4 the descent walk
    # agrees with the R-recursion, which never consults the order
    if weight is None:
        space, params = kl.class_params(b4)
    else:
        space, params, _ = kl.weight_params(b4, weight)
    support = [set() for _ in range(b4.size)]
    for y, w in kl.compute_r(b4, params, space):
        support[w].add(y)
    assert [set(b4.bruhat_below(w)) for w in range(b4.size)] == support


def test_bruhat_incomparable_example(i24):
    sts = i24.word_to_element((0, 1, 0))
    tst = i24.word_to_element((1, 0, 1))
    assert not i24.bruhat_leq(sts, tst)
    assert not i24.bruhat_leq(tst, sts)


def test_generator_classes():
    assert system("F4").gen_classes == [[0, 1], [2, 3]]
    assert system("I2:4").gen_classes == [[0], [1]]
    assert system("I2:5").gen_classes == [[0, 1]]
    assert system("A3").gen_classes == [[0, 1, 2]]
    assert system("B4").gen_classes == [[0], [1, 2, 3]]
    assert generator_classes(((1, 2), (2, 1))) == [[0], [1]]
    assert system("D5").gen_classes == [[0, 1, 2, 3, 4]]    # a branch node
    mat = parse_type("A2xA1xB2").matrix
    assert generator_classes(mat) == [[0, 1], [2], [3], [4]]
    # the diagram components that the group is built from
    assert coxeter._components(mat, lambda m: m >= 3) == [[0, 1], [2], [3, 4]]


def test_conjugacy_classes():
    assert len(system("A1").conjugacy_classes()) == 2
    assert [len(c[1]) for c in system("A1").conjugacy_classes()] == [1, 1]
    assert len(system("I2:4").conjugacy_classes()) == 5
    assert len(system("F4").conjugacy_classes()) == 25
    # orbit closure agrees with brute-force conjugation; representatives
    # are least in (length, index) and the identity's class comes first
    for name in ("I2:4", "B4", "F4"):
        sys = system(name)
        classes = sys.conjugacy_classes()
        assert classes[0] == (0, (0,))
        key = [(sys.length[v], v) for v in range(sys.size)]
        reps = [key[rep] for rep, _ in classes]
        assert reps == sorted(reps)
        for rep, members in classes:
            assert rep == min(members, key=key.__getitem__)
            brute = {sys.mult(sys.mult(g, rep), sys.inverse[g])
                     for g in range(sys.size)}
            assert brute == set(members)
    sizes = [len(c[1]) for c in system("B3").conjugacy_classes()]
    assert sum(sizes) == 48


def test_orbits_are_the_components_in_the_order_of_the_roots():
    # 0 reaches 2 only through 4, so the walk meets 2 last
    edges = [(4, 0), (2, 4), (5, 1), (6, 3)]
    adj = {v: [] for v in range(7)}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    comps = [[0, 2, 4], [1, 5], [3, 6]]
    assert orbits(range(7), adj.__getitem__) == comps
    assert orbits(range(6, -1, -1), adj.__getitem__) == comps[::-1]


def test_a_run_leaves_the_system_unchanged():
    # every fact about a system is computed when it is built: a run whose
    # checks read its Bruhat order and conjugacy classes, with the
    # cross-check pickling it to a worker, leaves the same bytes behind
    sys = build_system("B3")
    before = pickle.dumps(sys)
    config = pipeline.RunConfig("B3", weight=(3, 1, 1),
                                checks=("L", "oracle"), cross_check=True)
    assert pipeline.run_pipeline(config, sys).ok
    assert pickle.dumps(sys) == before
    for name in ("size", "conj_classes", "cache"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sys, name, None)


def test_class_index_and_order():
    sys = system("B3")
    idx = sys.class_index_of()
    classes = sys.conjugacy_classes()
    for i, (rep, members) in enumerate(classes):
        assert idx[rep] == i
        assert all(idx[m] == i for m in members)
    assert classes[0][0] == 0  # identity class first
    assert element_order(sys, 0) == 1
    assert element_order(sys, sys.longest) == 2  # -1 is central in B3


def test_diagram_automorphisms(f4):
    autos = f4.diagram_automorphisms()
    assert (0, 1, 2, 3) in autos and (3, 2, 1, 0) in autos
    flip = f4.element_map_for_auto((3, 2, 1, 0))
    assert flip[0] == 0
    assert sorted(flip) == list(range(f4.size))
    assert flip[f4.longest] == f4.longest
    assert system("B4").diagram_automorphisms() == [(0, 1, 2, 3)]


def test_validation_errors():
    with pytest.raises(CoxeterError):
        CoxeterSpec(matrix=((1, 3), (4, 1)))       # not symmetric
    with pytest.raises(CoxeterError):
        CoxeterSpec(matrix=((2, 3), (3, 1)))       # diagonal not 1
    with pytest.raises(CoxeterError):
        parse_type("Z9")
    with pytest.raises(CoxeterError):
        parse_type("I2")                           # missing bond order
    with pytest.raises(EnumerationCapError):
        build_system("A3", cap=10)
    # affine (infinite) shapes are rejected fast
    with pytest.raises(EnumerationCapError):
        build_system(CoxeterSpec(matrix=((1, 4, 2), (4, 1, 4), (2, 4, 1))),
                     cap=500)
    with pytest.raises(CoxeterError):
        # rank 3 with a bond of 7 cannot be finite
        build_system(CoxeterSpec(matrix=((1, 7, 3), (7, 1, 3), (3, 3, 1))))
    with pytest.raises(CoxeterError):
        # diagram cycle
        build_system(CoxeterSpec(matrix=((1, 3, 3), (3, 1, 3), (3, 3, 1))))
    # a 6-bond lies in no finite group of rank >= 3: affine G2 is refused
    # by its bond orders before any element is enumerated
    with pytest.raises(CoxeterError, match=r"bond orders \[3, 6\] is infinite"):
        build_system(CoxeterSpec(matrix=((1, 6, 2), (6, 1, 3), (2, 3, 1))))


def test_products_and_presets():
    sys = system("A2xA1")
    assert sys.size == 12
    assert sys.gen_classes == [[0, 1], [2]]
    i7a1 = build_system("I2:7xA1")
    assert i7a1.size == 28
    assert parse_type("F4").numerator_gen == 2
    assert parse_type("B4").numerator_gen == 0
    assert parse_type("I2:6").numerator_gen == 1


def _bonds(spec):
    """The bonds m_ij >= 3 of a spec as {(i, j): m_ij} with i < j; with
    the rank they fix the matrix, whose other entries are 1 and 2."""
    mat = spec.matrix
    return {(i, j): mat[i][j] for i in range(spec.rank)
            for j in range(i + 1, spec.rank) if mat[i][j] >= 3}


# (rank, bonds, numerator_gen), written out by hand: the branch node of
# D_n is n-3 and that of E_n is 2
PINNED_TYPES = {
    "A1": (1, {}, None),
    "A3": (3, {(0, 1): 3, (1, 2): 3}, None),
    "B3": (3, {(0, 1): 4, (1, 2): 3}, 0),
    "B4": (4, {(0, 1): 4, (1, 2): 3, (2, 3): 3}, 0),
    "D3": (3, {(0, 1): 3, (0, 2): 3}, None),
    "D4": (4, {(0, 1): 3, (1, 2): 3, (1, 3): 3}, None),
    "D5": (5, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (2, 4): 3}, None),
    "E6": (6, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (2, 5): 3}, None),
    "E7": (7, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3,
               (2, 6): 3}, None),
    "F4": (4, {(0, 1): 3, (1, 2): 4, (2, 3): 3}, 2),
    "G2": (2, {(0, 1): 6}, 1),
    "H3": (3, {(0, 1): 5, (1, 2): 3}, None),
    "H4": (4, {(0, 1): 5, (1, 2): 3, (2, 3): 3}, None),
    "I2:2": (2, {}, 1),
    "I2:5": (2, {(0, 1): 5}, 1),
    "I2:6": (2, {(0, 1): 6}, 1),
    "A2xA1": (3, {(0, 1): 3}, None),
    "A1xB2": (3, {(1, 2): 4}, 1),
    "I2:7xA1": (3, {(0, 1): 7}, 1),
    "A1xB2xG2": (5, {(1, 2): 4, (3, 4): 6}, 1),
}

# other spellings of the types above
SPELLINGS = {
    "F": "F4", "F(4)": "F4", "F( 4 )": "F4", "F 4": "F4", " f4 ": "F4",
    "G": "G2", "G(2)": "G2", "I_2(5)": "I2:5", "I:5": "I2:5",
    "I(6)": "I2:6", "I2(6)": "I2:6", "I2: 6": "I2:6", "I2( 6 )": "I2:6",
    "I_2:6": "I2:6", "b_3": "B3", "C3": "B3", "B_4": "B4", "B(4)": "B4",
    "A03": "A3", "A2XA1": "A2xA1", "A2*A1": "A2xA1", "A1 x B2": "A1xB2",
}


@pytest.mark.parametrize("text", [*PINNED_TYPES, *SPELLINGS])
def test_type_strings_name_pinned_matrices(text):
    spec = parse_type(text)
    assert (spec.rank, _bonds(spec), spec.numerator_gen) == \
        PINNED_TYPES[SPELLINGS.get(text, text)]
    assert spec.name == text


# sha256 of repr([(matrix, numerator_gen)]) over FAMILY_NAMES
FAMILY_NAMES = (
    [f"{f}{n}" for f, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3))
     for n in range(lo, 9)] + ["E6", "E7", "E8", "F4", "G2", "H3", "H4"]
    + [f"I2:{m}" for m in range(2, 13)] + ["A2xA1", "I2:7xA1", "A1xB2"])
FAMILY_DIGEST = \
    "b5dd067665e965bc12cbafc6787d668fba7c72fdb6451d14aa6677e59717a89b"


def test_every_family_up_to_rank_8_is_pinned():
    blob = repr([(parse_type(s).matrix, parse_type(s).numerator_gen)
                 for s in FAMILY_NAMES])
    assert hashlib.sha256(blob.encode()).hexdigest() == FAMILY_DIGEST


@pytest.mark.parametrize("text", REFUSED_TYPES)
def test_type_strings_naming_no_finite_group_are_refused(text):
    with pytest.raises(CoxeterError, match="no finite Coxeter type"):
        parse_type(text)


def test_summary(b3):
    s = b3.summary()
    assert s["size"] == 48 and s["longest_length"] == 9
    assert sum(s["length_histogram"]) == 48
    assert s["conjugacy_class_count"] == 10
