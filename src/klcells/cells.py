"""Cell preorders and partitions derived from the M-table.

The elementary left relation is generated by membership of C_y in
H*C_w: sw <=_L w whenever sw > w (descent edges point from sw down to
w) together with y <=_L w whenever sy < y < w < sw and
M^s_{y,w} != 0.  Under this reading the identity block is the unique
maximum and the block of w0 the unique minimum, which is how the
two-sided order is usually drawn; it is validated against the known
dihedral and F4 cell counts in the test suite.

Cell partitions are the strongly connected components of the edge
digraph, numbered by their least element.  The block DAG is stored as a
transitive reduction with edges pointing up the preorder (from the w0
side towards the identity side); closures are recomputed on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import orbits


def left_edges(sys, mu):
    """Elementary left-relation edges, as the set of pairs (src, dst)
    with src <=_L dst."""
    length = sys.length
    edges = {(w, y) for left_s in sys.cayley_left
             for y, w in enumerate(left_s) if length[w] > length[y]}
    edges.update((y, w) for (_, y, w) in mu)
    return edges


def _strongly_connected(n, edges):
    """Kosaraju's algorithm: a forward depth-first search, then
    ``orbits`` of the reversed digraph in reverse finishing order."""
    succ = [[] for _ in range(n)]
    pred = [[] for _ in range(n)]
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)
    seen = [False] * n
    finished = []               # in order of completion of the forward DFS
    for root in range(n):
        stack = [] if seen[root] else [(root, iter(succ[root]))]
        seen[root] = True
        while stack:
            u = next((u for u in stack[-1][1] if not seen[u]), None)
            if u is None:
                finished.append(stack.pop()[0])
            else:
                seen[u] = True
                stack.append((u, iter(succ[u])))
    return orbits(finished[::-1], pred.__getitem__)


@dataclass
class CellPartition:
    """Left/right/two-sided cells with the induced block DAG.

    ``blocks`` are sorted tuples of element indices, in increasing order
    of their least element; ``reduction`` is the transitive reduction of
    the block DAG with edges (a, b) meaning block a <= block b in the
    left/two-sided preorder.
    """

    blocks: tuple
    block_of: tuple
    reduction: tuple = ()

    def __len__(self):
        return len(self.blocks)

    def closure(self):
        """above[b] = frozenset of blocks >= b (inclusive)."""
        succ = [[] for _ in self.blocks]
        for a, b in self.reduction:
            succ[a].append(b)
        return _reachable(succ)

    def as_words(self, sys):
        return [[sys.word_text(w) for w in blk] for blk in self.blocks]

    def canonical(self):
        """Hashable canonical form of the bare partition."""
        return tuple(sorted(tuple(sorted(b)) for b in self.blocks))


def partition_of_blocks(sys, blocks):
    """CellPartition of the given blocks, canonically numbered, no DAG.

    Each block is sorted; the blocks, being disjoint, sort by their least
    element, which is least in (length, index) too (see ``coxeter``).
    """
    blocks = sorted(tuple(sorted(b)) for b in blocks)
    block_of = [0] * sys.size
    for i, blk in enumerate(blocks):
        for w in blk:
            block_of[w] = i
    return CellPartition(blocks=tuple(blocks), block_of=tuple(block_of))


def _condense(sys, edges):
    part = partition_of_blocks(sys, _strongly_connected(sys.size, edges))
    block_of = part.block_of
    dag = {(block_of[a], block_of[b]) for a, b in edges
           if block_of[a] != block_of[b]}
    part.reduction = _transitive_reduction(len(part.blocks), dag)
    return part


def _reachable(succ):
    """reach[b] = frozenset of the nodes reachable from b, b included, in
    the acyclic digraph with successor lists ``succ``."""
    reach = {}

    def visit(b):
        got = reach.get(b)
        if got is None:
            acc = {b}
            for c in succ[b]:
                acc |= visit(c)
            got = reach[b] = frozenset(acc)
        return got

    for b in range(len(succ)):
        visit(b)
    return reach


def _transitive_reduction(n, dag_edges):
    succ = [set() for _ in range(n)]
    for a, b in dag_edges:
        succ[a].add(b)
    reach = _reachable(succ)
    keep = []
    for a, b in sorted(dag_edges):
        if not any(b in reach[c] for c in succ[a] if c != b):
            keep.append((a, b))
    return tuple(keep)


def left_cells(sys, mu):
    """Left cells and the generating edge set."""
    edges = left_edges(sys, mu)
    return _condense(sys, edges), edges


def two_sided_cells(sys, edges):
    """Two-sided cells of the left edges together with their images
    under elementwise inversion."""
    inv = sys.inverse
    return _condense(sys, edges | {(inv[a], inv[b]) for a, b in edges})


def right_cells(sys, left):
    """Right cells are the elementwise inverses of the left cells."""
    inv = sys.inverse
    return partition_of_blocks(sys, [[inv[w] for w in b] for b in left.blocks])


def check_property_L(sys, left, two_sided):
    """Left preorder restricted to one two-sided cell must be trivial.

    Reports every ordered pair of distinct left blocks that lie in the
    same two-sided block yet are comparable in the left preorder, plus
    any left block that a two-sided block fails to contain whole.  The
    statement is invariant under reversing all edges at once.
    """
    violations = []
    closure = left.closure()
    ts_of_block = {}
    for i, blk in enumerate(left.blocks):
        ts_of_block[i] = two_sided.block_of[blk[0]]
        for w in blk:
            if two_sided.block_of[w] != ts_of_block[i]:
                violations.append(("two-sided block splits a left block", i))
    for a in range(len(left.blocks)):
        for b in closure[a]:
            if b != a and ts_of_block[a] == ts_of_block[b]:
                violations.append(
                    (sys.word_text(left.blocks[a][0]),
                     sys.word_text(left.blocks[b][0]))
                )
    return violations


def check_union_refinement(coarse, fine):
    """Indices of coarse blocks that are not exact unions of fine blocks."""
    bad = []
    for i, blk in enumerate(coarse.blocks):
        sub = {fine.block_of[w] for w in blk}
        covered = sorted(w for b in sub for w in fine.blocks[b])
        if covered != list(blk):
            bad.append(i)
    return bad


def dot_export(partition, labels=None):
    """Graphviz DOT text of the condensation DAG (edges point up the order)."""
    lines = ["digraph cells {", "  rankdir=BT;"]
    for i, blk in enumerate(partition.blocks):
        lab = labels[i] if labels else f"#{i}"
        lines.append(f'  b{i} [label="{lab}\\n{len(blk)} elts"];')
    for a, b in partition.reduction:
        lines.append(f"  b{a} -> b{b};")
    lines.append("}")
    return "\n".join(lines)
