"""End-to-end pipeline: reduce, bound, iterate the budget, search, verify.

``solve`` first computes a lower bound L, the largest rooted SPR distance
over the three pairs of reduced trees (``bounds``): a network that displays
the three trees displays each pair, so no budget below L can hit.  It then
walks k upward from L.  For each budget it pulls candidate AAFs one at a
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
from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from .aaf_search import WalkMemo, enumerate_aafs
from .bounds import pairwise_lower_bound
from .errors import BudgetExceeded, InputError, InternalInconsistency, NoSolutionWithin
from .extended_aaf import ExtendedAAF
from .networks import (
    Network,
    displays,
    expand_map,
    hybridization_number,
    induce_network,
)
from .reconstruct import search_cnet
from .trees import (
    RHO,
    SUBTREE_PREFIX,
    PhyloTree,
    _to_builder,
    common_pendant_subtree_reduction,
    is_synthetic,
    parse_newick,
    random_tree,
)


class Instance(NamedTuple):
    """Three input trees plus their common-pendant-subtree reduction:
    the reduced trees, and per synthetic label the subtree it replaced."""

    trees: Tuple[PhyloTree, PhyloTree, PhyloTree]
    reduced: Tuple[PhyloTree, PhyloTree, PhyloTree]
    reduction: Dict[str, PhyloTree]

    @classmethod
    def from_trees(cls, t1: PhyloTree, t2: PhyloTree, t3: PhyloTree) -> "Instance":
        trees = (t1, t2, t3)
        labels = t1.leaf_labels()
        if t2.leaf_labels() != labels or t3.leaf_labels() != labels:
            raise InputError("the three trees must share one taxon set")
        reserved = sorted(x for x in labels if is_synthetic(x))
        if reserved:
            raise InputError(f"taxon {reserved[0]!r} uses the prefix {SUBTREE_PREFIX!r}, "
                             f"reserved for reductions")
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


class Solution(NamedTuple):
    network: Network
    k: int
    certificate: dict


def solve(inst: Instance, max_k: int = 8, trace: Optional[list] = None,
          time_limit: Optional[float] = None) -> Solution:
    """Smallest-k hybridization network for the instance, with certificate.

    Budgets are walked from the pairwise lower bound L up to max_k; when a
    pair of trees needs more than max_k cuts, NoSolutionWithin is raised
    before any budget.  Candidates are searched in enumeration order, and a
    budget's enumeration stops at its first hit.  Raises NoSolutionWithin
    when every budget up to max_k fails.  The time limit is checked at each
    branch of the lower bound, at the start of each budget, at each prefix
    of the enumeration's cut walk and at each node of the wiring search, and
    raises BudgetExceeded naming the bound or the budget reached.  With a
    trace list, one ``lower_bound`` event gives L (max_k + 1 when a pair
    needs more) and the pair of tree positions, from 0, that sets it; then
    each budget tried appends one ``budget`` event whose ``candidates`` is
    the number of candidates searched in it.  The certificate records L and
    its pair as ``lower_bound`` and ``lower_bound_pair``.  A max_k that is
    not an int of at least 0, or a time limit that is not a finite number of
    at least 0, raises InputError; a bool is neither.
    """
    if isinstance(max_k, bool) or not isinstance(max_k, int):
        raise InputError(f"--max-k must be an integer, got {max_k!r}")
    if max_k < 0:
        raise InputError(f"--max-k must be at least 0, got {max_k}")
    if time_limit is not None and (isinstance(time_limit, bool) or not (
            isinstance(time_limit, (int, float)) and 0 <= time_limit < math.inf)):
        raise InputError(f"--time-limit must be a finite number >= 0, got {time_limit!r}")
    started = time.monotonic()

    def check_clock(doing):
        if time_limit is not None and time.monotonic() - started > time_limit:
            raise BudgetExceeded(f"time limit {time_limit}s hit while {doing}")

    reduced = inst.reduced
    lower, pair = pairwise_lower_bound(
        reduced, max_k, functools.partial(check_clock, "computing the lower bound"))
    if trace is not None:
        trace.append({"event": "lower_bound", "k": lower, "pair": list(pair)})
    if lower > max_k:
        raise NoSolutionWithin(max_k)
    memo = WalkMemo(reduced)  # chains, cut index and block memos, shared by the budgets
    for k in range(lower, max_k + 1):
        clock = functools.partial(check_clock, f"searching budget {k}")
        clock()
        searched = 0
        found = None
        for cand in enumerate_aafs(reduced, k, trace=trace, clock=clock, memo=memo):
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
        cnet, d = found
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
            "lower_bound": lower,
            "lower_bound_pair": list(pair),
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
