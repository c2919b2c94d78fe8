"""Candidate-AAF enumeration for a given reticulation budget.

For every way of deciding, per common chain of at least two taxa, whether
the chain sits on a single side of the network backbone or spreads one taxon
per side, the single-side chains are collapsed into one taxon each and every
subset of at most k edges of the first (collapsed) tree is deleted.  The
taxon partitions that survive the acyclic-agreement-forest test with at most
k+1 blocks are the candidates.  Guesses whose collapsed taxon count exceeds
5k-1 cannot correspond to a network within budget and are pruned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

from .forests import Forest, is_acyclic_agreement_forest
from .trees import (
    RHO,
    Chain,
    PhyloTree,
    TaxonMap,
    collapse_chain,
    common_chains,
    isomorphic,
)

ONE_SIDE = "one_side"
SPREAD = "spread"


@dataclass(frozen=True)
class ChainGuess:
    cases: Tuple[Tuple[Chain, str], ...]

    def one_side_chains(self) -> Tuple[Chain, ...]:
        return tuple(c for c, case in self.cases if case == ONE_SIDE)

    def describe(self) -> dict:
        return {"+".join(c.taxa): case for c, case in self.cases}


@dataclass(frozen=True)
class AafCandidate:
    forest: Forest
    chain_guess: ChainGuess
    deleted_edges: Tuple[frozenset, ...]  # clade below each deleted edge

    def describe(self) -> dict:
        return {
            "forest": self.forest.sorted_blocks(),
            "chain_guess": self.chain_guess.describe(),
            "deleted_edges": [sorted(c) for c in self.deleted_edges],
        }


def chain_guesses(chains: Sequence[Chain]) -> Iterator[ChainGuess]:
    """Full binary enumeration, one_side before spread per chain, the chain
    list ordered as given (lexicographic overall)."""
    for combo in itertools.product((ONE_SIDE, SPREAD), repeat=len(chains)):
        yield ChainGuess(tuple(zip(chains, combo)))


def _partition_after_deletion(cut: Sequence[int]) -> list:
    """Leaf masks of the components left by deleting the in-edges of the cut
    nodes, given the clusters of the root and of the cut nodes.  The
    component of each is its cluster minus the cut clusters below it;
    components without labels vanish."""
    blocks = []
    for whole in cut:
        m = whole
        for d in cut:
            if d != whole and d & whole == d:
                m &= ~d
        if m:
            blocks.append(m)
    return blocks


def enumerate_aafs(ts: Sequence[PhyloTree], k: int, prune: bool = True,
                   trace: Optional[list] = None,
                   clock: Optional[Callable[[], None]] = None) -> Iterator[AafCandidate]:
    """Stream of candidate AAFs for budget k, deduplicated, deterministic.

    Every deletion AAF of a hybridization network with hybridization number k
    for the instance appears in the stream (soundness of each emitted forest
    is checked directly, so extra candidates are harmless).  The clock
    callable, if given, is called once per edge subset tried; it stops the
    enumeration by raising.
    """
    taxa = ts[0].leaf_labels() - {RHO}
    if k == 0:
        if isomorphic(ts[0], ts[1]) and isomorphic(ts[0], ts[2]):
            yield AafCandidate(Forest([taxa | {RHO}]), ChainGuess(()), ())
        return

    # a single-taxon chain collapses to itself, so only longer chains are guessed
    chains = [c for c in common_chains(ts) if len(c) >= 2]
    seen_partitions: set = set()
    for guess in chain_guesses(chains):
        collapsed = guess.one_side_chains()
        count = len(taxa) - sum(len(c) - 1 for c in collapsed)
        if prune and count > 5 * k - 1:
            if trace is not None:
                trace.append({"event": "prune", "chain_guess": guess.describe(),
                              "taxa_left": count, "bound": 5 * k - 1})
            continue
        t1 = ts[0]
        mapping = TaxonMap()
        for c in collapsed:
            t1, m = collapse_chain(t1, c)
            mapping = mapping.merged(m)
        # each node's cluster of t1 in the bits of the input trees
        cl = [ts[0].mask(mapping.expand_labels(t1.labels_of(m))) for m in t1.masks()]
        edge_nodes = [v for v in range(t1.n_nodes) if t1.parent[v] is not None]
        for size in range(0, k + 1):
            for subset in itertools.combinations(edge_nodes, size):
                if clock is not None:
                    clock()
                blocks = frozenset(_partition_after_deletion([cl[v] for v in (t1.root, *subset)]))
                if blocks in seen_partitions:
                    continue
                seen_partitions.add(blocks)
                forest = Forest(ts[0].labels_of(m) for m in blocks)
                if is_acyclic_agreement_forest(forest, ts):
                    yield AafCandidate(forest, guess,
                                       tuple(ts[0].labels_of(cl[v]) for v in subset))
