"""Cell preorders and partitions derived from the M-table.

The elementary left relation is generated by membership of C_y in
H*C_w: sw <=_L w whenever sw > w (descent edges point from sw down to
w) together with y <=_L w whenever sy < y < w < sw and
M^s_{y,w} != 0.  Under this reading the identity block is the unique
maximum and the block of w0 the unique minimum, which is how the
two-sided order is usually drawn; it is validated against the known
dihedral and F4 cell counts in the test suite.

Cell partitions are the strongly connected components of the edge
digraph.  The block DAG is stored as a transitive reduction with edges
pointing up the preorder (from the w0 side towards the identity side);
closures are recomputed on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    gen: int
    reason: str  # "descent" or "mu" (with "-inv" suffix on inverted copies)


def left_edges(sys, mu):
    """Elementary left-relation edges (src <=_L dst), deterministically ordered."""
    edges = []
    length = sys.length
    for y in range(sys.size):
        ly = length[y]
        for s in range(sys.rank):
            w = sys.cayley_left[s][y]
            if length[w] > ly:
                edges.append(Edge(w, y, s, "descent"))
    for (s, y, w) in sorted(mu):
        edges.append(Edge(y, w, s, "mu"))
    edges.sort(key=lambda e: (e.src, e.dst, e.gen))
    return edges


def two_sided_edges(sys, edges):
    """Left edges plus the image of each under elementwise inversion."""
    inv = sys.inverse
    seen = {(e.src, e.dst) for e in edges}
    out = list(edges)
    for e in edges:
        pair = (inv[e.src], inv[e.dst])
        if pair not in seen:
            seen.add(pair)
            out.append(Edge(pair[0], pair[1], e.gen, e.reason + "-inv"))
    out.sort(key=lambda e: (e.src, e.dst, e.gen))
    return out


def _strongly_connected(n, adj):
    """Tarjan's algorithm, iterative; returns (component id per node, count)."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    comp = [-1] * n
    stack = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            targets = adj[v]
            for i in range(pi, len(targets)):
                u = targets[i]
                if index[u] == -1:
                    work[-1] = (v, i + 1)
                    work.append((u, 0))
                    recurse = True
                    break
                if on_stack[u] and low[u] < low[v]:
                    low[v] = low[u]
            if recurse:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    u = stack.pop()
                    on_stack[u] = False
                    comp[u] = ncomp
                    if u == v:
                        break
                ncomp += 1
            if work:
                p, _ = work[-1]
                if low[v] < low[p]:
                    low[p] = low[v]
    return comp, ncomp


@dataclass
class CellPartition:
    """Left/right/two-sided cells with the induced block DAG.

    ``blocks`` are tuples of element indices, sorted by (length of
    minimal element, minimal element index); ``reduction`` is the
    transitive reduction of the block DAG with edges (a, b) meaning
    block a <= block b in the left/two-sided preorder.
    """

    kind: str
    blocks: tuple
    block_of: tuple
    reduction: tuple = ()
    _closure: dict | None = field(default=None, repr=False)

    def __len__(self):
        return len(self.blocks)

    def closure(self):
        """above[b] = frozenset of blocks >= b (inclusive)."""
        if self._closure is None:
            succ = {i: [] for i in range(len(self.blocks))}
            for a, b in self.reduction:
                succ[a].append(b)
            reach = {}

            def visit(b):
                got = reach.get(b)
                if got is None:
                    acc = {b}
                    for c in succ[b]:
                        acc |= visit(c)
                    got = reach[b] = frozenset(acc)
                return got

            for b in range(len(self.blocks)):
                visit(b)
            self._closure = reach
        return self._closure

    def leq_blocks(self, a, b):
        return b in self.closure()[a]

    def as_words(self, sys):
        return [[sys.word_text(w) for w in blk] for blk in self.blocks]

    def canonical(self):
        """Hashable canonical form of the bare partition."""
        return tuple(sorted(tuple(sorted(b)) for b in self.blocks))


def partition_of_blocks(sys, kind, blocks):
    """CellPartition of the given blocks, canonically numbered, no DAG.

    Each block is sorted; blocks are ordered by the (length, index) pair
    of their shortest element.
    """
    blocks = sorted((tuple(sorted(b)) for b in blocks),
                    key=lambda b: min((sys.length[v], v) for v in b))
    block_of = [0] * sys.size
    for i, blk in enumerate(blocks):
        for w in blk:
            block_of[w] = i
    return CellPartition(kind=kind, blocks=tuple(blocks),
                         block_of=tuple(block_of))


def _condense(sys, edge_list, kind):
    n = sys.size
    adj = [[] for _ in range(n)]
    for e in edge_list:
        adj[e.src].append(e.dst)
    comp, ncomp = _strongly_connected(n, adj)
    raw_blocks = [[] for _ in range(ncomp)]
    for v in range(n):
        raw_blocks[comp[v]].append(v)
    part = partition_of_blocks(sys, kind, raw_blocks)
    block_of = part.block_of
    dag = set()
    for e in edge_list:
        a, b = block_of[e.src], block_of[e.dst]
        if a != b:
            dag.add((a, b))
    part.reduction = _transitive_reduction(len(part.blocks), dag)
    return part


def _transitive_reduction(n, dag_edges):
    succ = {i: set() for i in range(n)}
    for a, b in dag_edges:
        succ[a].add(b)
    reach = {}

    def visit(b):
        got = reach.get(b)
        if got is None:
            acc = set()
            for c in succ[b]:
                acc.add(c)
                acc |= visit(c)
            got = reach[b] = acc
        return got

    for b in range(n):
        visit(b)
    keep = []
    for a, b in sorted(dag_edges):
        if not any(b in reach[c] for c in succ[a] if c != b):
            keep.append((a, b))
    return tuple(keep)


def left_cells(sys, mu):
    """Left cells and the generating edge set."""
    edges = left_edges(sys, mu)
    return _condense(sys, edges, "left"), edges


def two_sided_cells(sys, edges):
    ts_edges = two_sided_edges(sys, edges)
    return _condense(sys, ts_edges, "two_sided")


def right_cells(sys, left):
    """Right cells are the elementwise inverses of the left cells."""
    inv = sys.inverse
    return partition_of_blocks(sys, "right",
                               ([inv[w] for w in blk] for blk in left.blocks))


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


def dot_export(sys, partition, labels=None):
    """Graphviz DOT text of the condensation DAG (edges point up the order)."""
    lines = ["digraph cells {", "  rankdir=BT;"]
    for i, blk in enumerate(partition.blocks):
        lab = labels[i] if labels else f"#{i}"
        lines.append(f'  b{i} [label="{lab}\\n{len(blk)} elts"];')
    for a, b in partition.reduction:
        lines.append(f"  b{a} -> b{b};")
    lines.append("}")
    return "\n".join(lines)
