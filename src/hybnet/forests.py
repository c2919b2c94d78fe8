"""Forests as taxon partitions, agreement checking, the inheritance graph,
and the topological order every DAG of the package is checked with."""

from __future__ import annotations

import heapq
import itertools
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .trees import PhyloTree, restrict  # noqa: F401  (restrict stays importable here)


class Forest:
    """A partition of the taxa (RHO included) into nonempty blocks.  Two
    forests are equal when their blocks are."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: Iterable[Iterable[str]]):
        self.blocks = frozenset(frozenset(b) for b in blocks)
        if any(not b for b in self.blocks):
            raise ValueError("forest blocks must be nonempty")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"Forest({self.sorted_blocks()!r})"

    def __len__(self):
        return len(self.blocks)

    def labels(self) -> frozenset:
        out = set()
        for b in self.blocks:
            out.update(b)
        return frozenset(out)

    def sorted_blocks(self) -> list:
        return sorted((sorted(b) for b in self.blocks))


class InheritanceGraph(NamedTuple):
    """Directed graph on forest blocks: (F, F') present when some input tree
    has a directed path from the root of T(L(F)) to the root of T(L(F'))."""

    nodes: frozenset
    edges: frozenset  # pairs (block, block)

    def has_cycle(self) -> bool:
        index = {b: i for i, b in enumerate(self.nodes)}  # blocks are not totally ordered
        edges = [(index[a], index[b]) for a, b in self.edges]
        return topological_order(range(len(index)), edges) is None


def topological_order(nodes: Iterable, edges: Iterable[Tuple]) -> Optional[list]:
    """The least topological order of a directed graph (Kahn 1962): each step
    takes the smallest node whose in-edges all come from nodes already taken.
    A repeated edge counts once per copy.  None when the graph has a directed
    cycle.  The nodes are distinct and comparable; every edge joins two."""
    succ = {v: [] for v in nodes}
    indeg = dict.fromkeys(succ, 0)
    for u, v in edges:
        succ[u].append(v)
        indeg[v] += 1
    ready = [v for v, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    return order if len(order) == len(succ) else None


def _root_of(t: PhyloTree, m: int) -> int:
    """Root of T(labels of the nonempty mask m): the lowest node whose
    cluster covers it, reached by walking up from the leaf of m's lowest bit."""
    masks, parent = t.masks(), t.parent
    v = t.node(t.sorted_labels()[(m & -m).bit_length() - 1])
    while masks[v] & m != m:
        v = parent[v]
    return v


def spanning_root(t: PhyloTree, block: Iterable[str]) -> int:
    """Root node of T(L(block))."""
    return _root_of(t, t.mask(block))


def span_owners(t: PhyloTree, ms: Sequence[int]) -> List[int]:
    """Per node, the index in ms of a leaf mask whose spanning subtree T(B)
    holds the node, or -1 for a node on no such subtree.  A node lies in
    T(B) iff its cluster meets B and either misses part of B or the node is
    B's root; for a forest of t the subtrees are disjoint, so the index is
    the node's one block."""
    masks = t.masks()
    owner = [-1] * t.n_nodes
    for j, m in enumerate(ms):
        top = _root_of(t, m)
        for v, x in enumerate(masks):
            if x & m and (x & m != m or v == top):
                owner[v] = j
    return owner


def spanning_nodes(t: PhyloTree, block: Iterable[str]) -> frozenset:
    """Node set of T(L(block)): every node on a path between block leaves."""
    return frozenset(v for v, j in enumerate(span_owners(t, [t.mask(block)])) if j == 0)


def _spans_disjoint(t: PhyloTree, ms: Sequence[int]) -> bool:
    """True iff the spanning subtrees of the disjoint leaf masks are pairwise
    node-disjoint."""
    return not any(spans_meet(t, a, b) for a, b in itertools.combinations(ms, 2))


def spans_meet(t: PhyloTree, a: int, b: int) -> bool:
    """True iff the spanning subtrees of the disjoint leaf masks a and b share
    a node.  Two subtrees of a rooted tree meet iff the root of one lies in
    the other (membership as in :func:`span_owners`): the roots coincide, or
    a root meets the other block without covering it."""
    masks = t.masks()
    ra, rb = _root_of(t, a), _root_of(t, b)
    return ra == rb or masks[ra] & b not in (0, b) or masks[rb] & a not in (0, a)


def is_forest_for(f: Forest, t: PhyloTree) -> bool:
    """True iff the spanning subtrees of the blocks are pairwise node-disjoint."""
    return _spans_disjoint(t, [t.mask(b) for b in f.blocks])


def restrictions_agree(m: int, tree_masks: Sequence[Sequence[int]]) -> bool:
    """Whether the binary trees on one taxon set, given by their
    :meth:`PhyloTree.masks`, restrict alike to the leaf mask m.  The clusters
    of T|m are the nonempty intersections of T's clusters with m, so the
    restrictions agree iff those sets of intersections are equal.  Each set
    has the same size in every tree: T|m is binary, so its cluster count
    depends only on |m| and on whether m holds the root leaf RHO, and 0 is an
    intersection iff some taxon misses m.  Inclusion in the first tree's set
    is therefore equality, and the test stops at the first intersection
    missing from it."""
    first = {m & x for x in tree_masks[0]}
    for masks in tree_masks[1:]:
        for x in masks:
            if m & x not in first:
                return False
    return True


def is_agreement_forest(f: Forest, ts: Sequence[PhyloTree]) -> bool:
    """Forest for every tree, with pairwise isomorphic block restrictions."""
    labels = ts[0].leaf_labels()
    if f.labels() != labels or any(t.leaf_labels() != labels for t in ts):
        return False
    # the trees share one label set, so they share the bits of every mask;
    # a one-taxon block (m & (m - 1) == 0) agrees in every tree
    ms = [ts[0].mask(b) for b in f.blocks]
    tree_masks = [t.masks() for t in ts]
    return all(_spans_disjoint(t, ms) for t in ts) and all(
        restrictions_agree(m, tree_masks) for m in ms if m & (m - 1))


def inheritance_graph(f: Forest, ts: Sequence[PhyloTree]) -> InheritanceGraph:
    edges = set()
    for t in ts:
        masks = t.masks()
        roots = {block: spanning_root(t, block) for block in f.blocks}
        for a in f.blocks:
            for b in f.blocks:
                ra, rb = roots[a], roots[b]
                # a proper ancestor has a strictly larger cluster
                if ra != rb and masks[ra] & masks[rb] == masks[rb]:
                    edges.add((a, b))
    return InheritanceGraph(nodes=f.blocks, edges=frozenset(edges))


def is_acyclic_agreement_forest(f: Forest, ts: Sequence[PhyloTree]) -> bool:
    return is_agreement_forest(f, ts) and not inheritance_graph(f, ts).has_cycle()
