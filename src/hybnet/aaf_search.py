"""Candidate-AAF enumeration for a given reticulation budget.

For every way of deciding, per common chain of at least two taxa, whether
the chain sits on a single side of the network backbone or spreads one taxon
per side, the single-side chains are collapsed into one taxon each and the
subsets of at most k edges of the first (collapsed) tree are walked, size by
size, in ``itertools.combinations`` order.  The taxon partitions that survive
the acyclic-agreement-forest test with at most k+1 blocks are the candidates.
Guesses whose collapsed taxon count exceeds 5k-1 cannot correspond to a
network within budget and are pruned.

An edge is given by the cluster below it, in the bits of the input trees, and
a tree's edges by its *cut list*: those clusters in preorder.  Collapsing a
chain into one taxon is an edit of the cut list (``collapse_chain``), so no
collapsed tree is built and every cut is already a set of input taxa.

The walk picks one edge at a time and keeps the partition of the prefix.  A
block is *bad* when its restrictions to the three trees differ.  Later cuts
only refine the partition, each cut splits at most one block, and a bad block
that is never split stays in the final partition, which then fails the
agreement test.  So every bad block of a prefix needs a later cut of its own,
and two when no single later cut *fixes* it (leaves both of its pieces
good).  A prefix with r picks left is skipped when its bad blocks need more
than r cuts, and the last pick of a prefix with one bad block only tries the
cuts that fix it.  Every cut set skipped this way would have been rejected,
so the stream is that of the exhaustive walk
(``hybnet.oracles.reference_aaf_stream``).  The clock is read at every prefix
visited, the empty one of each size included.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Tuple

from .errors import InputError
from .forests import Forest, is_acyclic_agreement_forest, restrictions_agree
from .trees import RHO, Chain, PhyloTree, common_chains, isomorphic

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


def collapse_chain(cuts: Tuple[int, ...], chain: int) -> Tuple[int, ...]:
    """The cut list of a tree with the one-side chain of taxa `chain` (a
    mask) collapsed into one leaf.  The chain's leaves and inner path nodes,
    the clusters that meet `chain` without covering it, go.  When the chain
    ends in a cherry, its top node keeps the cluster `chain` and becomes the
    leaf; otherwise the leaf hangs from the top node, the smallest cluster
    left that covers `chain`, after the rest of that node's subtree."""
    kept = [c for c in cuts if c & chain in (0, chain)]
    if chain in kept:
        return tuple(kept)
    top = max(i for i, c in enumerate(kept) if c & chain == chain)
    end = top + 1
    while end < len(kept) and kept[end] & kept[top] == kept[end]:
        end += 1
    return (*kept[:end], chain, *kept[end:])


class WalkMemo:
    """What the cut walk reads of the trees, kept across the budgets of one
    solve: the first tree's root cluster and cut list, the common chains of
    at least two taxa with their masks, and the block memos.  Whether a block
    is bad depends on the block alone, and which cuts split or fix it depends
    on the cut list, which a chain guess keeps at every budget that walks it."""

    def __init__(self, ts: Sequence[PhyloTree]):
        tree_masks = [t.masks() for t in ts]
        t, masks = ts[0], tree_masks[0]
        self.whole = masks[t.root]
        # a tree built by this package numbers its nodes in preorder
        self.cuts = tuple(masks[v] for v in range(t.n_nodes) if t.parent[v] is not None)
        self.n_taxa = len(t.leaf_labels() - {RHO})
        # a single-taxon chain collapses to itself, so only longer chains are guessed
        self.chains = {c: t.mask(c.taxa) for c in common_chains(ts) if len(c) >= 2}

        @functools.lru_cache(maxsize=None)
        def is_bad(m: int) -> bool:
            return not restrictions_agree(m, tree_masks)

        self.is_bad = is_bad
        self._cut_memos: dict = {}

    def cut_spaces(self, k: int, prune: bool = True,
                   trace: Optional[list] = None) -> Iterator[tuple]:
        """Per chain guess within the 5k-1 bound, in guess order: the guess,
        the root's cluster, and the cut list of the first tree with the
        guess's one-side chains collapsed."""
        for guess in chain_guesses(list(self.chains)):
            collapsed = guess.one_side_chains()
            count = self.n_taxa - sum(len(c) - 1 for c in collapsed)
            if prune and count > 5 * k - 1:
                if trace is not None:
                    trace.append({"event": "prune", "chain_guess": guess.describe(),
                                  "taxa_left": count, "bound": 5 * k - 1})
                continue
            cuts = self.cuts
            for c in collapsed:
                cuts = collapse_chain(cuts, self.chains[c])
            yield guess, self.whole, cuts

    def cut_memos(self, cuts: Tuple[int, ...]) -> tuple:
        """The memoised ``splitters`` and ``fixers`` of a cut list."""
        memos = self._cut_memos.get(cuts)
        if memos is not None:
            return memos
        is_bad = self.is_bad

        @functools.lru_cache(maxsize=None)
        def splitters(b: int) -> tuple:
            """Increasing indices of the cuts that split block b."""
            return tuple(j for j, c in enumerate(cuts) if b & c not in (0, b))

        @functools.lru_cache(maxsize=None)
        def fixers(b: int) -> tuple:
            """The splitters of b that leave both of its pieces good."""
            return tuple(j for j in splitters(b)
                         if not is_bad(b & cuts[j]) and not is_bad(b & ~cuts[j]))

        memos = self._cut_memos[cuts] = (splitters, fixers)
        return memos


def _cut_walk(cuts: Tuple[int, ...], k: int, whole: int, memo: WalkMemo,
              tick: Callable[[], None]) -> Iterator[tuple]:
    """For each size from 0 to k in turn, the index tuples of that many cuts,
    in combinations order, whose partition of `whole` has no bad block.  The
    walk keeps each prefix's partition as a tuple of block masks: a cut splits
    the one block that its cluster meets without covering, if any.  Prefixes
    that can only lead to a bad block are skipped (see the module docstring).
    `tick` is called at every prefix visited."""
    n = len(cuts)
    is_bad = memo.is_bad
    splitters, fixers = memo.cut_memos(cuts)

    def later(indices, after):
        return bool(indices) and indices[-1] > after

    def viable(bads, left, after):
        # a bad block needs a later cut of its own, and two of them when no
        # single later cut fixes it; the fixers are only looked up when the
        # count of bad blocks alone does not decide
        if len(bads) > left or not all(later(splitters(b), after) for b in bads):
            return False
        return 2 * len(bads) <= left or sum(
            1 if later(fixers(b), after) else 2 for b in bads) <= left

    def descend(picks, blocks, bads, left):
        if not left:
            yield picks
            return
        start = picks[-1] + 1 if picks else 0
        if left == 1 and bads:
            choices = [j for j in fixers(bads[0]) if j >= start]
        else:
            choices = range(start, n - left + 1)
        for j in choices:
            tick()
            c = cuts[j]
            refined, still_bad = blocks, bads
            for i, b in enumerate(blocks):
                inside = b & c
                if inside and inside != b:
                    parts = (inside, b ^ inside)
                    refined = blocks[:i] + blocks[i + 1:] + parts
                    if b in bads:
                        still_bad = tuple(x for x in bads if x != b)
                    still_bad += tuple(filter(is_bad, parts))
                    break
            if viable(still_bad, left - 1, j):
                yield from descend(picks + (j,), refined, still_bad, left - 1)

    bads = (whole,) if is_bad(whole) else ()
    for size in range(0, k + 1):
        tick()
        if viable(bads, size, -1):
            yield from descend((), (whole,), bads, size)


def enumerate_aafs(ts: Sequence[PhyloTree], k: int, prune: bool = True,
                   trace: Optional[list] = None,
                   clock: Optional[Callable[[], None]] = None,
                   memo: Optional[WalkMemo] = None) -> Iterator[AafCandidate]:
    """Stream of candidate AAFs for budget k, deduplicated, deterministic.

    Every deletion AAF of a hybridization network with hybridization number k
    for the instance appears in the stream (soundness of each emitted forest
    is checked directly, so extra candidates are harmless).  The clock
    callable, if given, is called at every cut-walk prefix visited; it stops
    the enumeration by raising.  A memo built for the same trees carries the
    chains, the cut list and the walk's block memos over from earlier calls;
    a negative k raises InputError.
    """
    if not isinstance(k, int) or k < 0:
        raise InputError(f"--k must be at least 0, got {k}")
    if k == 0:
        if isomorphic(ts[0], ts[1]) and isomorphic(ts[0], ts[2]):
            yield AafCandidate(Forest([ts[0].leaf_labels() | {RHO}]), ChainGuess(()), ())
        return

    tick = clock if clock is not None else (lambda: None)
    memo = memo if memo is not None else WalkMemo(ts)
    seen_partitions: set = set()
    for guess, whole, cuts in memo.cut_spaces(k, prune, trace):
        for picks in _cut_walk(cuts, k, whole, memo, tick):
            blocks = frozenset(_partition_after_deletion([whole, *(cuts[j] for j in picks)]))
            if blocks in seen_partitions:
                continue
            seen_partitions.add(blocks)
            forest = Forest(ts[0].labels_of(m) for m in blocks)
            if is_acyclic_agreement_forest(forest, ts):
                yield AafCandidate(forest, guess,
                                   tuple(ts[0].labels_of(cuts[j]) for j in picks))
