"""Brute-force answers and the replay reference, for the tests only.

The brute-force answers exhaust edge deletions or reticulation insertions
instead of guessing wirings.  The replay reconstructs the network of one
description (one wiring guess per component root), as the paper does;
``search_cnet`` must agree with it over :func:`enumerate_descriptions`.  The
synthetic extended AAF is a component skeleton for counting guesses without
trees.  No solver module imports this one.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from .aaf_search import AafCandidate, WalkMemo, _partition_after_deletion, collapse_chain
from .errors import BudgetExceeded, InputError, InternalInconsistency, UnknownLabel
from .extended_aaf import (RHO_GUESS, Component, Description, ExtendedAAF, WiringGuess,
                           enumerate_wiring_guesses)
from .forests import Forest, is_acyclic_agreement_forest, is_agreement_forest
from .networks import (Network, deletion_forest, displays, induce_network, network_from_tree,
                       validate_cnet)
from .reconstruct import Rejection, _Builder, _Expander
from .solver import Instance
from .trees import RHO, PhyloTree, isomorphic


def _fewest_cuts(t1: PhyloTree, t2: PhyloTree, accept, max_k: int) -> int:
    """The smallest number of edge deletions of t1 whose taxon partition
    passes the `accept` test on both trees."""
    if t1.leaf_labels() != t2.leaf_labels():
        raise InputError("trees must share one taxon set")

    edge_nodes = [v for v in range(t1.n_nodes) if t1.parent[v] is not None]
    for j in range(0, max_k + 1):
        for subset in itertools.combinations(edge_nodes, j):
            blocks = _partition_after_deletion([t1.masks()[v] for v in (t1.root, *subset)])
            forest = Forest(t1.labels_of(m) for m in blocks)
            if accept(forest, (t1, t2)):
                return len(forest) - 1
    raise BudgetExceeded(f"no two-tree agreement forest within {max_k} deletions")


def oracle_two_tree_maaf(t1: PhyloTree, t2: PhyloTree, max_k: int = 8) -> int:
    """Two-tree hybridization number via brute-force acyclic agreement
    forests: smallest number of edge deletions of t1 whose taxon partition is
    an AAF of both trees."""
    return _fewest_cuts(t1, t2, is_acyclic_agreement_forest, max_k)


def oracle_two_tree_maf(t1: PhyloTree, t2: PhyloTree, max_k: int = 8) -> int:
    """Rooted SPR distance via brute-force agreement forests: as
    ``oracle_two_tree_maaf``, but the forest need not be acyclic."""
    return _fewest_cuts(t1, t2, is_agreement_forest, max_k)


def collapsed_cut_lists(memo: WalkMemo, k: int, prune: bool = True) -> Iterator[tuple]:
    """Per chain guess that ``enumerate_aafs`` walks at budget k, in order:
    the guess, its ``present`` mask over the cut index, and the first tree's
    cut list with its one-side chains collapsed by ``collapse_chain``."""
    for guess, present, _ in memo.guess_masks(k, prune):
        cuts = memo.cuts
        for c in guess.one_side_chains():
            cuts = collapse_chain(cuts, memo.chains[c])
        yield guess, present, cuts


def reference_aaf_stream(ts: Sequence[PhyloTree], k: int,
                         prune: bool = True) -> Iterator[AafCandidate]:
    """The exhaustive form of ``enumerate_aafs``: per chain guess, every
    subset of at most k edges of the collapsed first tree, in
    ``itertools.combinations`` order, each partitioned from scratch.  The
    pruned walk must yield exactly this stream."""
    seen_partitions: set = set()
    memo = WalkMemo(ts)
    for guess, _, cuts in collapsed_cut_lists(memo, k, prune):
        for size in range(0, k + 1):
            for subset in itertools.combinations(cuts, size):
                blocks = frozenset(_partition_after_deletion([memo.whole, *subset]))
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
    fstar.trees = fstar.invisible = ()
    fstar.mask, fstar.rep, fstar.owner, fstar.hang, fstar.attached = (), (), [], [], ()
    return fstar


def is_chain_of(t: PhyloTree, taxa: Sequence[str]) -> bool:
    """The chain predicate, literally: (p_q..p_1) is a directed path, or
    (p_q..p_2) is and p_1 == p_2."""
    if not taxa:
        return False
    try:
        parents = [t.parent[t.node(x)] for x in taxa]
    except UnknownLabel:
        return False
    if len(taxa) == 1:
        return True

    def directed_path(seq):
        return all(t.parent[seq[i + 1]] == seq[i] and seq[i + 1] != seq[i]
                   for i in range(len(seq) - 1))

    top_down = list(reversed(parents))
    if directed_path(top_down):
        return True
    return parents[0] == parents[1] and directed_path(top_down[:-1])


def descendant_dag(fstar: ExtendedAAF) -> Dict[Component, frozenset]:
    """Edges r_C -> r_C' where, in some tree, C' is the nearest component
    root properly above C's representative.  Returned as successor sets."""
    comps = fstar.components
    succ: Dict[Component, set] = {c: set() for c in comps}
    for i, t in enumerate(fstar.trees):
        for x, c in enumerate(comps):
            node = fstar.rep[x].get(i)
            if node is None:
                continue
            v = t.parent[node]
            if v is None:
                continue
            succ[c].add(comps[fstar.owner[i][v]])
    return {c: frozenset(s) for c, s in succ.items()}


def dag_sources(fstar: ExtendedAAF) -> List[Component]:
    with_in = set().union(*descendant_dag(fstar).values())
    return [c for c in fstar.components if c not in with_in]


def _guess_pools(fstar: ExtendedAAF) -> list:
    """Per component, the guesses it may take."""
    return [(RHO_GUESS,) if c.is_rho else enumerate_wiring_guesses(c.tree)
            for c in fstar.components]


def description_count(fstar: ExtendedAAF) -> int:
    return math.prod(map(len, _guess_pools(fstar)))


def enumerate_descriptions(fstar: ExtendedAAF) -> Iterator[Description]:
    """Cartesian product of the per-root guess lists, deterministic order.

    Buddy consistency is not filtered here; descriptions whose forced buddies
    carry different guesses are rejected during reconstruction.
    """
    comps = fstar.components
    for combo in itertools.product(*_guess_pools(fstar)):
        yield Description(fstar, tuple(zip(comps, combo)))


def free_under(builder: _Builder, guesses: Dict[int, WiringGuess]) -> Iterator[tuple]:
    """The builder's free components with their plans, lazily, in component
    order, under a description's guesses (by component index): an invisible
    node with a guess is free only if the guess covers its child colours.
    With no guesses, every free component."""
    for x, c in enumerate(builder.fstar.components):
        if builder.assigned_mask >> x & 1:
            continue
        if c.kind == "block":
            plan = builder._block_plan(x)
        else:
            plan = builder._inode_plan(x)
            if plan is not None and x in guesses and guesses[x].colour_union() != plan[2].keys():
                continue
        if plan is not None:
            yield x, plan


def build_signature(d: Description, seed: Optional[int] = None, trace: Optional[list] = None):
    """Construct the signature determined by the description, or reject:
    the builder that the replay grew, complete.

    The free root processed in each round is the lowest-indexed one; a seed
    switches to a random choice among the free roots (the result must not
    depend on it, compared by :func:`signature_key`).
    """
    fstar = d.fstar
    comps = fstar.components
    position = {c: x for x, c in enumerate(comps)}
    guesses = {position[c]: g for c, g in d.guesses}
    builder = _Builder(fstar)
    rng = random.Random(seed) if seed is not None else None
    while not builder.done():
        free = list(free_under(builder, guesses))
        if not free:
            pending = tuple(c.name() for x, c in enumerate(comps)
                            if not builder.assigned_mask >> x & 1)
            return Rejection("NoFreeNode", pending)
        if trace is not None:
            trace.append({"event": "round", "free": [comps[x].name() for x, _ in free]})
        x, plan = rng.choice(free) if rng is not None else free[0]
        for b in plan[1]:
            if guesses[b] != guesses[x]:
                return Rejection("BuddyGuessMismatch", (comps[x].name(), comps[b].name()))
        new = builder.apply(x, guesses[x], plan)
        if trace is not None:  # the merge, from the plan and the edges apply made
            edges = [builder.edges[i] for i in new]
            trace.append({
                "event": "merge", "component": comps[x].name(), "node": len(builder.nodes) - 1,
                "merged_edges": [f"e{i}" for i in plan[0]],
                "buddies": [comps[b].name() for b in sorted(plan[1])],
                "new_edges": [{"edge": f"e{i}", "colours": sorted(f"T{s + 1}" for s in e.colours),
                               "top": f"T{e.top_colour + 1}"} for i, e in zip(new, edges)]})
    if len(builder.top) < len(builder.edges):
        raise InternalInconsistency("root edges left after the final merge")
    return builder


def signature_key(b: _Builder) -> tuple:
    """The signature of builder b without its ids, which follow the order of
    the merges: the sorted component names of each node, and per edge the
    names of the nodes at its top (none for a root edge) and bottom with its
    colours, both sorted."""
    comps = b.fstar.components
    names = [tuple(sorted(comps[x].name() for x in xs)) for xs, _ in b.nodes]
    rows = sorted((names[b.top[eid]] if eid in b.top else (), names[e.bottom],
                   tuple(sorted(e.colours)))
                  for eid, e in enumerate(b.edges))
    return (tuple(sorted(names)), tuple(rows))


def reconstruct_cnet(d: Description, seed: Optional[int] = None, trace: Optional[list] = None):
    """build_signature then the expansion expand_components runs; on success
    the result satisfies the CNET conditions and its deletion AAF equals the
    description's forest.

    A coloured network always comes out when signature and expansion go
    through, but when some non-root forest component was guessed a single
    parent edge, the surviving edge glues that component to the one above it
    and the network's deletion forest is coarser than the described one; no
    network has this description, so it is rejected.
    """
    b = build_signature(d, seed=seed, trace=trace)
    if isinstance(b, Rejection):
        return b
    ex = _Expander(b)
    cnet = ex.run()
    if trace is not None:  # one event per block expanded, from the expander's log
        for c, orders in ex.log:
            if isinstance(orders, int):
                trace.append({"event": "expand", "component": c.name(), "fresh_roots": orders})
            else:
                trace.append({"event": "expand", "component": c.name(), "attach_order": {
                    "|".join(ex._labels(key)): [f"e{e}" for e in order]
                    for key, order in orders.items()}})
    if isinstance(cnet, Rejection):
        return cnet
    aaf = deletion_forest(induce_network(cnet))
    if aaf.blocks != d.fstar.forest.blocks:
        got = {tuple(sorted(b)) for b in aaf.blocks}
        want = {tuple(sorted(b)) for b in d.fstar.forest.blocks}
        return Rejection("DeletionForestMismatch", tuple(sorted(map(str, got ^ want))))
    violations = validate_cnet(cnet, d.fstar.trees)
    if violations:
        raise InternalInconsistency(f"reconstructed CNET invalid: {violations}")
    return cnet
