"""Brute-force reference answers for tiny instances.

The tests compare ``solve`` against these: they exhaust edge deletions or
reticulation insertions instead of guessing wirings.  The synthetic extended
AAF is a component skeleton for counting guesses without trees.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, List, Optional, Sequence

from .aaf_search import AafCandidate, WalkMemo, _partition_after_deletion, enumerate_aafs
from .errors import BudgetExceeded, InputError
from .extended_aaf import Component, ExtendedAAF
from .forests import Forest, is_acyclic_agreement_forest
from .networks import Network, displays, network_from_tree
from .solver import Instance
from .trees import RHO, PhyloTree, isomorphic


def oracle_two_tree_maaf(t1: PhyloTree, t2: PhyloTree, max_k: int = 8) -> int:
    """Two-tree hybridization number via brute-force acyclic agreement
    forests: smallest number of edge deletions of t1 whose taxon partition is
    an AAF of both trees."""
    if t1.leaf_labels() != t2.leaf_labels():
        raise InputError("trees must share one taxon set")

    edge_nodes = [v for v in range(t1.n_nodes) if t1.parent[v] is not None]
    for j in range(0, max_k + 1):
        for subset in itertools.combinations(edge_nodes, j):
            blocks = _partition_after_deletion([t1.masks()[v] for v in (t1.root, *subset)])
            forest = Forest(t1.labels_of(m) for m in blocks)
            if is_acyclic_agreement_forest(forest, (t1, t2)):
                return len(forest) - 1
    raise BudgetExceeded(f"no two-tree AAF within {max_k} deletions")


def reference_aaf_stream(ts: Sequence[PhyloTree], k: int,
                         prune: bool = True) -> Iterator[AafCandidate]:
    """The exhaustive form of ``enumerate_aafs``: per chain guess, every
    subset of at most k edges of the collapsed first tree, in
    ``itertools.combinations`` order, each partitioned from scratch.  The
    pruned walk must yield exactly this stream."""
    if k == 0:
        yield from enumerate_aafs(ts, 0)
        return
    seen_partitions: set = set()
    for guess, whole, cuts in WalkMemo(ts).cut_spaces(k, prune):
        for size in range(0, k + 1):
            for subset in itertools.combinations(cuts, size):
                blocks = frozenset(_partition_after_deletion([whole, *subset]))
                if blocks in seen_partitions:
                    continue
                seen_partitions.add(blocks)
                forest = Forest(ts[0].labels_of(m) for m in blocks)
                if is_acyclic_agreement_forest(forest, ts):
                    yield AafCandidate(forest, guess, tuple(ts[0].labels_of(c) for c in subset))


def add_reticulation(n: Network, i: int, j: int) -> Optional[Network]:
    """Subdivide edge i (tail) and edge j (head) and connect them; None when
    the result would be cyclic.  j == i splits the lower half of edge i."""
    edges = list(n.edges)
    a, b = edges[i]
    u, w = n.n_nodes, n.n_nodes + 1
    edges[i] = (a, u)
    lower = (u, b)
    edges.append(lower)
    if j == i:
        c, d = lower
        edges[-1] = (c, w)
        edges.append((w, d))
    else:
        c, d = edges[j]
        edges[j] = (c, w)
        edges.append((w, d))
    edges.append((u, w))
    out = Network(n.n_nodes + 2, edges, n.label)
    return out if out.is_acyclic() else None


def oracle_exhaustive_networks(inst: Instance, max_k: int = 2, max_n: int = 5) -> Optional[int]:
    """Smallest k <= max_k admitting a network that displays all three trees,
    by exhausting every network obtainable from the first tree by adding k
    reticulation edges (which covers every network displaying it)."""
    if len(inst.taxa) > max_n or max_k > 3:
        raise BudgetExceeded(f"oracle limited to {max_n} taxa and 3 reticulations")
    t1, t2, t3 = inst.trees
    if isomorphic(t1, t2) and isomorphic(t1, t3):
        return 0
    level = [network_from_tree(t1)]
    for k in range(1, max_k + 1):
        nxt: List[Network] = []
        for net in level:
            m = len(net.edges)
            for i in range(m):
                for j in range(m):
                    cand = add_reticulation(net, i, j)
                    if cand is None:
                        continue
                    if displays(cand, t2) and displays(cand, t3):
                        return k
                    nxt.append(cand)
        level = nxt
    return None


def all_optimal_networks(inst: Instance, k: int) -> Iterable[Network]:
    """Every network with exactly k reticulations displaying all three trees
    (tiny instances only; grown from the first tree)."""
    level = [network_from_tree(inst.trees[0])]
    for _ in range(k):
        level = [cand
                 for net in level
                 for i in range(len(net.edges))
                 for j in range(len(net.edges))
                 if (cand := add_reticulation(net, i, j)) is not None]
    for net in level:
        if displays(net, inst.trees[1]) and displays(net, inst.trees[2]):
            yield net


def synthetic_extended_aaf(n_blocks: int, inode_trees: Sequence[int]) -> ExtendedAAF:
    """Component skeleton with the given block count and invisible-node
    tree assignment; only good for guess counting and enumeration."""
    fstar = ExtendedAAF.__new__(ExtendedAAF)
    blocks = [frozenset({RHO, "s0"})] + [frozenset({f"s{i + 1}"}) for i in range(n_blocks - 1)]
    comps = [Component("block", block=b) for b in blocks]
    comps += [Component("inode", tree=t, clade=frozenset({f"v{i}"}))
              for i, t in enumerate(inode_trees)]
    comps.sort(key=Component.key)
    fstar.forest, fstar.components = Forest(blocks), tuple(comps)
    fstar.index = {c: i for i, c in enumerate(comps)}
    fstar.trees = fstar.invisible = ()
    fstar.mask, fstar.rep, fstar.owner = (), (), []
    return fstar
