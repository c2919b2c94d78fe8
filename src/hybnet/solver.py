"""End-to-end pipeline: reduce, iterate the budget, search, verify.

``solve`` walks k upward.  For each budget it pulls candidate AAFs one at a
time from the enumeration, builds the extended AAF, applies the
invisible-node bound, and searches the wiring-guess space for a
reconstructible CNET.  Every candidate of a failing budget is tried before
the next budget, in whatever order, so the first solution that survives full
verification (induced network displays all three original trees within
budget) has the optimal hybridization number.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

from .aaf_search import WalkMemo, enumerate_aafs
from .errors import BudgetExceeded, InputError, InternalInconsistency, NoSolutionWithin
from .extended_aaf import ExtendedAAF
from .networks import (
    Network,
    displays,
    hybridization_number,
    induce_network,
)
from .reconstruct import search_cnet
from .trees import (
    CHAIN_PREFIX,
    RHO,
    SUBTREE_PREFIX,
    PhyloTree,
    TaxonMap,
    _to_builder,
    common_pendant_subtree_reduction,
    expand_map,
    is_synthetic,
    parse_newick,
    random_tree,
)


@dataclass
class Instance:
    """Three input trees plus their common-pendant-subtree reduction."""

    trees: Tuple[PhyloTree, PhyloTree, PhyloTree]
    reduced: Tuple[PhyloTree, PhyloTree, PhyloTree]
    reduction: TaxonMap

    @classmethod
    def from_trees(cls, t1: PhyloTree, t2: PhyloTree, t3: PhyloTree) -> "Instance":
        trees = (t1, t2, t3)
        labels = t1.leaf_labels()
        if t2.leaf_labels() != labels or t3.leaf_labels() != labels:
            raise InputError("the three trees must share one taxon set")
        reserved = sorted(x for x in labels if is_synthetic(x))
        if reserved:
            raise InputError(f"taxon {reserved[0]!r} uses a prefix reserved for reductions "
                             f"({SUBTREE_PREFIX!r}, {CHAIN_PREFIX!r})")
        for t in trees:
            t.check_instance_tree()
        reduced, mapping = common_pendant_subtree_reduction(trees)
        return cls(trees, tuple(reduced), mapping)

    @classmethod
    def from_newicks(cls, texts: Sequence[str]) -> "Instance":
        if len(texts) != 3:
            raise InputError(f"expected exactly 3 trees, got {len(texts)}")
        return cls.from_trees(*(parse_newick(s) for s in texts))

    @property
    def taxa(self) -> frozenset:
        return self.trees[0].leaf_labels() - {RHO}


@dataclass
class Solution:
    network: Network
    k: int
    certificate: dict = field(default_factory=dict)


def solve(inst: Instance, max_k: int = 8, prune: bool = True,
          trace: Optional[list] = None, time_limit: Optional[float] = None) -> Solution:
    """Smallest-k hybridization network for the instance, with certificate.

    Candidates are searched in enumeration order, and a budget's enumeration
    stops at its first hit.  Raises NoSolutionWithin when every budget up to
    max_k fails.  The time limit is checked at the start of each budget, at
    each prefix of the enumeration's cut walk and at each node of the wiring
    search, and raises BudgetExceeded with the budget reached.  With a trace
    list, each budget tried appends one ``budget`` event whose ``candidates``
    is the number of candidates searched in it.  A max_k below 0 or a time
    limit that is not a finite number of at least 0 raises InputError.
    """
    if not isinstance(max_k, int) or max_k < 0:
        raise InputError(f"--max-k must be at least 0, got {max_k}")
    if time_limit is not None and not (
            isinstance(time_limit, (int, float)) and 0 <= time_limit < math.inf):
        raise InputError(f"--time-limit must be a finite number >= 0, got {time_limit}")
    started = time.monotonic()

    def check_clock(k):
        if time_limit is not None and time.monotonic() - started > time_limit:
            raise BudgetExceeded(
                f"time limit {time_limit}s hit while searching budget {k}")

    reduced = inst.reduced
    memo = WalkMemo(reduced)  # chains, cut list and block memos, shared by the budgets
    for k in range(0, max_k + 1):
        check_clock(k)
        clock = functools.partial(check_clock, k)
        searched = 0
        found = None
        for cand in enumerate_aafs(reduced, k, prune=prune, trace=trace, clock=clock, memo=memo):
            fstar = ExtendedAAF(cand.forest, reduced)
            if k >= 1 and any(len(inv) > k - 1 for inv in fstar.invisible):
                if trace is not None:
                    trace.append({"event": "invisible_prune", "k": k,
                                  "forest": cand.forest.sorted_blocks()})
                continue
            searched += 1
            found = search_cnet(fstar, max_hyb=k, clock=clock)
            if found is not None:
                break
        if trace is not None:
            trace.append({"event": "budget", "k": k, "candidates": searched})
        if found is None:
            continue
        cnet, d, _ = found
        net = expand_map(induce_network(cnet), inst.reduction)
        shown = [displays(net, t) for t in inst.trees]
        k_net = hybridization_number(net)
        if not all(shown) or k_net > k:
            raise InternalInconsistency(
                f"verification failed: displays={shown}, k={k_net} at budget {k}")
        certificate = {
            "k": k_net,
            "forest": cand.forest.sorted_blocks(),
            "chain_guess": cand.chain_guess.describe(),
            "invisible_counts": list(d.fstar.n_invisible()),
            "description": d.to_json(),
            "displays": shown,
        }
        if trace is not None:
            trace.append({"event": "solution", "k": k_net,
                          "forest": cand.forest.sorted_blocks()})
        return Solution(net, k_net, certificate)
    raise NoSolutionWithin(max_k)


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------


def rspr(t: PhyloTree, rng: random.Random) -> PhyloTree:
    """One random rooted subtree-prune-and-regraft move."""
    for _ in range(200):
        candidates = [v for v in range(t.n_nodes)
                      if t.parent[v] is not None and t.parent[t.parent[v]] is not None]
        v = rng.choice(candidates)
        u = t.parent[v]
        g = t.parent[u]
        s = next(c for c in t.children[u] if c != v)
        # remaining tree: drop v's subtree, splice u out
        pruned = set()
        stack = [v]
        while stack:
            x = stack.pop()
            pruned.add(x)
            stack.extend(t.children[x])
        targets = [w for w in range(t.n_nodes)
                   if w not in pruned and t.parent[w] is not None
                   and w not in (u, s) and t.parent[w] != u]
        if not targets:
            continue
        w = rng.choice(targets)
        b = _to_builder(t)
        b.children[g][b.children[g].index(u)] = s
        b.parent[s] = g
        p = b.parent[w]
        b.children[p][b.children[p].index(w)] = u
        b.parent[u] = p
        b.children[u] = [v, w]
        b.parent[w] = u
        return b.freeze(t.root)
    raise InternalInconsistency("no valid rSPR move found")


def gen_random(n: int, moves: int, seed: int) -> Instance:
    """Random instance: a base tree and two trees `moves` rSPR moves away.
    Fewer than two taxa, a negative move count, or moves on a tree of two
    taxa (it has no rSPR move) raise InputError."""
    if n < 2:
        raise InputError("need at least two taxa")
    if moves < 0:
        raise InputError(f"--moves must be at least 0, got {moves}")
    if moves > 0 and n < 3:
        raise InputError(f"a tree on {n} taxa has no rSPR move; --moves must be 0")
    rng = random.Random(seed)
    labels = [f"t{i + 1}" for i in range(n)]
    t1 = random_tree(labels, rng)
    def walk(t):
        for _ in range(moves):
            t = rspr(t, rng)
        return t
    return Instance.from_trees(t1, walk(t1), walk(t1))
