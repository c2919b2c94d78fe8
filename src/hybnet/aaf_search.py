"""Candidate-AAF enumeration for a given reticulation budget.

For every way of deciding, per common chain of at least two taxa, whether
the chain sits on a single side of the network backbone or spreads one taxon
per side, the single-side chains are collapsed into one taxon each and the
subsets of at most k edges of the first (collapsed) tree are walked, size by
size, in ``itertools.combinations`` order.  The taxon partitions that survive
the acyclic-agreement-forest test with at most k+1 blocks are the candidates.
From k = 1 on, guesses whose collapsed taxon count exceeds 5k-1 cannot
correspond to a network within budget and are pruned.  Budget 0 is walked
like any other: its one cut set is the empty one, whose single block passes
exactly when the three trees are equal, and no guess is pruned there.

An edge is given by the cluster below it, in the bits of the input trees, and
a tree's edges by its *cut list*: those clusters in preorder.  Collapsing a
chain into one taxon only drops and adds clusters (see below), so no
collapsed tree is built and every cut is already a set of input taxa.

The walk picks one edge at a time, in ``combinations`` order, and keeps the
partition of the prefix.  Later cuts only refine it, and each cut splits at
most one block.  A block that is never split stays in the final partition.
Three rules skip the cut sets that cannot give a new partition that passes:

- *Bad blocks.*  A block is bad when its restrictions to the three trees
  differ; the final partition then fails the agreement test.  So a bad
  block needs a later cut of its own, and two when no single later cut
  *fixes* it (leaves both of its pieces good).  A piece of a good block is
  good, since it restricts agreeing restrictions further.
- *Meeting spans.*  When the spanning subtrees of two good blocks meet in a
  tree, the final partition is no forest of that tree unless a later cut
  splits one of them.  The span of a piece lies in the span of its block,
  so a split elsewhere never makes two spans meet.  The pairs are matched
  greedily on disjoint blocks, and each matched pair needs one more cut.
  A prefix with r picks left is skipped when its bad blocks and matched
  pairs need more than r cuts.  The last pick only tries the cuts that fix
  the bad block and split a block of every meeting pair, and the pick before
  it, when it cuts into a bad block, only those that leave at most one bad
  piece, fixed by a later cut.
- *Repeated cut sets.*  When the cluster of a node v is the union of those
  of its children a and b, a first in preorder, the sets {a, b} and {v, b}
  give the partition of {v, a}, which comes earlier in combinations order,
  and {v, a, b} gives that of the smaller {a, b}.  So b is never picked
  after a or after v.

Every cut set skipped fails the agreement-forest test or repeats the
partition of an earlier cut set, which was yielded or failed too; so the
candidate stream is that of the exhaustive walk
(``hybnet.oracles.reference_aaf_stream``), and every partition that reaches
the final check is an agreement forest, which only acyclicity can fail.  The
clock is read at every prefix visited, the empty one of each size included.

The walk runs on one *cut index* per solve (``WalkMemo``): the first tree's
cut list with the cluster of each chain that does not end in a cherry (a
*path chain*) put right after its top node's subtree.  A chain guess is a
``present`` mask over the index: a one-side chain drops the clusters that
meet it without covering it, and a spread path chain drops its own cluster.
The present cuts, in index order, are the cut list of the collapsed tree
(``collapse_chain``, which the reference stream uses, builds that list), so
combinations of present positions come in the order of combinations of the
list.  The block memos are ints over index positions: the cuts that split a
block come from per-taxon sets of the cuts that hold each taxon.  Which cuts
split or fix a block does not depend on the guess, so these memos are shared
by every guess and budget and ANDed with ``present``.  What does depend on
the guess (the positions each pick may take, the cuts the sibling rule rules
out, and ``repairs``) is built afresh for each walk.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Tuple

from .errors import InputError
from .forests import Forest, is_acyclic_agreement_forest, restrictions_agree, spans_meet
from .trees import RHO, PhyloTree, common_chains

ONE_SIDE = "one_side"
SPREAD = "spread"


class ChainGuess(NamedTuple):
    cases: Tuple[Tuple[tuple, str], ...]  # (chain's taxa, case)

    def one_side_chains(self) -> Tuple[tuple, ...]:
        return tuple(c for c, case in self.cases if case == ONE_SIDE)

    def describe(self) -> dict:
        return {"+".join(c): case for c, case in self.cases}


class AafCandidate(NamedTuple):
    forest: Forest
    chain_guess: ChainGuess
    deleted_edges: Tuple[frozenset, ...]  # clade below each deleted edge

    def describe(self) -> dict:
        return {
            "forest": self.forest.sorted_blocks(),
            "chain_guess": self.chain_guess.describe(),
            "deleted_edges": [sorted(c) for c in self.deleted_edges],
        }


def chain_guesses(chains: Sequence[tuple]) -> Iterator[ChainGuess]:
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


def _after_subtree(cuts: Tuple[int, ...], chain: int) -> Tuple[int, ...]:
    """`cuts` with the cluster `chain` put right after the subtree of its top
    node, the last cut in preorder that covers it."""
    top = max(i for i, c in enumerate(cuts) if c & chain == chain)
    end = top + 1
    while end < len(cuts) and cuts[end] & cuts[top] == cuts[end]:
        end += 1
    return (*cuts[:end], chain, *cuts[end:])


def collapse_chain(cuts: Tuple[int, ...], chain: int) -> Tuple[int, ...]:
    """The cut list of a tree with the one-side chain of taxa `chain` (a
    mask) collapsed into one leaf: the clusters that meet `chain` without
    covering it go, and unless a cherry's top node already has the cluster
    `chain`, the leaf comes right after the subtree of the chain's top node."""
    kept = tuple(c for c in cuts if c & chain in (0, chain))
    return kept if chain in kept else _after_subtree(kept, chain)


def _bits(x: int) -> Iterator[int]:
    """The positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _tree_key(ts: Sequence[PhyloTree]) -> tuple:
    """The shapes and labels of the trees, equal for equal trees."""
    return tuple((t.parent, t.children, t.label, t.root) for t in ts)


class WalkMemo:
    """What the cut walk reads of the trees, kept across the budgets of one
    solve: the shapes and labels of the trees, the first tree's root cluster
    and cut list, the common chains of at least two taxa with their masks,
    the cut index, the cuts each chain's guesses drop, and the block memos.

    The cut index holds every cut of every chain guess: the first tree's
    cut list with the cluster of each path chain, the leaf it collapses to,
    right after its top node's subtree.  A guess is the ``present`` mask of
    the index positions its cut list keeps.  Whether a block is bad, whether
    the spans of two blocks meet, and which cuts of the index split or fix a
    block depend on the blocks alone; they are memoised once per solve and
    ANDed with a guess's mask.  Which present cuts leave a block one later
    fix from good (``repairs``), and which cuts repeat a partition, depend on
    the guess, and are built for each walk (``guess_memos``)."""

    def __init__(self, ts: Sequence[PhyloTree]):
        self._key = _tree_key(ts)
        tree_masks = [t.masks() for t in ts]
        t, masks = ts[0], tree_masks[0]
        self.whole = masks[t.root]
        # a tree built by this package numbers its nodes in preorder
        self.cuts = tuple(masks[v] for v in range(t.n_nodes) if t.parent[v] is not None)
        self.n_taxa = len(t.leaf_labels() - {RHO})
        # a single-taxon chain collapses to itself, so only longer chains are guessed
        self.chains = {c: t.mask(c) for c in common_chains(ts) if len(c) >= 2}
        index = self.cuts
        for m in self.chains.values():
            if m not in index:
                index = _after_subtree(index, m)
        self.index = index
        # per chain and case, the positions a guess drops: one side, the cuts
        # that meet the chain without covering it; spread, its path cluster
        self._drops = {c: {ONE_SIDE: sum(1 << j for j, d in enumerate(index)
                                         if d & m not in (0, m)),
                           SPREAD: 0 if m in self.cuts else 1 << index.index(m)}
                       for c, m in self.chains.items()}

        holding: dict = {}  # per taxon bit: the cuts of the index whose cluster holds it
        for j, c in enumerate(index):
            while c:
                x = c & -c
                holding[x] = holding.get(x, 0) | 1 << j
                c ^= x
        everything = (1 << len(index)) - 1
        # per cut, itself and the cuts whose clusters it holds
        inner = [sum(1 << i for i, d in enumerate(index) if d & c == d) for c in index]

        @functools.lru_cache(maxsize=None)
        def is_bad(m: int) -> bool:
            return not restrictions_agree(m, tree_masks)

        @functools.lru_cache(maxsize=None)
        def meet(a: int, b: int) -> bool:
            """Whether the spans of the disjoint blocks a < b meet in some
            tree.  In the first, the components of a cut never meet unless
            a one-side chain was collapsed, so it is tested last."""
            return any(spans_meet(u, a, b) for u in (*ts[1:], ts[0]))

        @functools.lru_cache(maxsize=None)
        def splitters(b: int) -> int:
            """The cuts of the index that split block b: they hold some of
            its taxa, not all."""
            meets, covers = 0, everything
            while b:
                x = b & -b
                js = holding.get(x, 0)
                meets |= js
                covers &= js
                b ^= x
            return meets & ~covers

        @functools.lru_cache(maxsize=None)
        def fixers(b: int) -> int:
            """The splitters of b that leave both of its pieces good.  Once
            the piece of b outside a cut is bad, so is the larger piece
            outside every cut that it holds."""
            out, js = 0, splitters(b)
            while js:
                j = (js & -js).bit_length() - 1
                inside = b & index[j]
                if is_bad(b ^ inside):
                    js &= ~inner[j]
                    continue
                js ^= 1 << j
                if not is_bad(inside):
                    out |= 1 << j
            return out

        self.is_bad = is_bad
        self.meet = meet
        self.splitters = splitters
        self.fixers = fixers

    def built_for(self, ts: Sequence[PhyloTree]) -> bool:
        """Whether the memo was built for trees of these shapes and labels."""
        return _tree_key(ts) == self._key

    def guess_masks(self, k: int, prune: bool = True,
                    trace: Optional[list] = None) -> Iterator[tuple]:
        """Per chain guess, in guess order, the guess and its ``present``
        mask over the cut index; from k = 1 on, and with `prune`, only the
        guesses within the 5k-1 bound."""
        for guess in chain_guesses(list(self.chains)):
            count = self.n_taxa - sum(len(c) - 1 for c in guess.one_side_chains())
            if prune and k >= 1 and count > 5 * k - 1:
                if trace is not None:
                    trace.append({"event": "prune", "chain_guess": guess.describe(),
                                  "taxa_left": count, "bound": 5 * k - 1})
                continue
            present = (1 << len(self.index)) - 1
            for c, case in guess.cases:
                present &= ~self._drops[c][case]
            yield guess, present

    def guess_memos(self, present: int) -> tuple:
        """For a guess's ``present`` mask: per number of picks left, the
        present positions that leave enough present cuts after them; per
        position, the later cuts that it rules out; and the memoised
        ``repairs`` of the blocks (see the module docstring)."""
        index, is_bad, splitters, fixers = self.index, self.is_bad, self.splitters, self.fixers
        at = list(_bits(present))
        window = [0] + [present & (1 << at[-left] + 1) - 1 for left in range(1, len(at) + 1)]

        # in preorder, a cut's parent is the nearest earlier cut holding it
        rules_out = [0] * len(index)
        children: dict = {}
        ancestors: list = []
        for j in at:
            while ancestors and index[ancestors[-1]] & index[j] != index[j]:
                ancestors.pop()
            children.setdefault(ancestors[-1] if ancestors else -1, []).append(j)
            ancestors.append(j)
        for v, kids in children.items():
            top = index[v] if v >= 0 else self.whole
            if len(kids) == 2 and index[kids[0]] | index[kids[1]] == top:
                elder, younger = kids
                rules_out[elder] |= 1 << younger
                if v >= 0:
                    rules_out[v] |= 1 << younger

        @functools.lru_cache(maxsize=None)
        def repairs(b: int) -> int:
            """The present splitters of b that leave at most one bad piece,
            fixed by a later present cut."""
            out = fixers(b) & present
            for j in _bits(splitters(b) & present & ~out):
                inside = b & index[j]
                bad_inside = is_bad(inside)
                if bad_inside != is_bad(b ^ inside) and (fixers(
                        inside if bad_inside else b ^ inside) & present) >> j + 1:
                    out |= 1 << j
            return out

        return window, rules_out, repairs


def _cut_walk(present: int, k: int, memo: WalkMemo,
              tick: Callable[[], None]) -> Iterator[tuple]:
    """For each size from 0 to k in turn, the cut index positions of that
    many present cuts, in combinations order, whose partition of the root's
    cluster is an agreement forest of the trees, but for the cut sets that
    repeat the partition of an earlier one by the sibling rule.  The walk
    keeps each prefix's partition as a tuple of block masks (a cut splits the
    one block that its cluster meets without covering, if any), its bad
    blocks and its pairs of good blocks whose spans meet.  Prefixes that can
    only lead to a failing or repeated partition are skipped (see the module
    docstring).  `tick` is called at every prefix visited."""
    whole, index, is_bad, meet = memo.whole, memo.index, memo.is_bad, memo.meet
    splitters, fixers = memo.splitters, memo.fixers
    window, rules_out, repairs = memo.guess_memos(present)

    def viable(bads, meets, left, after):
        # each bad block needs a later cut of its own, and two of them when no
        # single later cut fixes it; each pair of meeting spans needs a later
        # cut on one of its blocks, and pairs on disjoint blocks need distinct
        # cuts; the fixers are only looked up when the rest does not decide
        shift = after + 1
        later = present >> shift << shift
        if len(bads) > left:
            return False
        for b in bads:
            if not splitters(b) & later:
                return False
        need, matched = len(bads), 0
        for a, b in meets:
            if not (splitters(a) | splitters(b)) & later:
                return False
            if not (a | b) & matched:
                matched |= a | b
                need += 1
        if need + len(bads) > left:
            for b in bads:
                if not fixers(b) & later:
                    need += 1
        return need <= left

    def descend(picks, ruled_out, blocks, bads, meets, left):
        if not left:
            yield picks
            return
        # the present cuts after the last pick that leave `left` - 1 after them
        allowed = window[left] & ~ruled_out & -(1 << picks[-1] + 1 if picks else 1)
        if left == 1:
            # the last cut must fix the one bad block and split a block of
            # every meeting pair
            if bads:
                allowed &= fixers(bads[0])
            for a, b in meets:
                allowed &= splitters(a) | splitters(b)
        elif left == 2:
            # a cut into a bad block must leave it one cut from good
            for b in bads:
                allowed &= ~splitters(b) | repairs(b)
        for j in _bits(allowed):
            tick()
            c = index[j]
            refined, still_bad, still_meet = blocks, bads, meets
            for i, b in enumerate(blocks):
                inside = b & c
                if inside and inside != b:
                    parts = (inside, b ^ inside)
                    rest = blocks[:i] + blocks[i + 1:]
                    refined = rest + parts
                    if b in bads:
                        still_bad = tuple(x for x in bads if x != b)
                        good = [p for p in parts if not is_bad(p)]
                        still_bad += tuple(p for p in parts if p not in good)
                        others = [x for x in rest if x not in bads]
                    else:
                        # the pieces of a good block are good, and their spans
                        # lie in its span
                        good = parts
                        others = [x for pair in meets if b in pair for x in pair if x != b]
                        still_meet = tuple(pair for pair in meets if b not in pair)
                    for p in good:
                        for x in others:
                            if meet(min(p, x), max(p, x)):
                                still_meet += ((p, x),)
                    if len(good) == 2 and meet(min(parts), max(parts)):
                        still_meet += (parts,)
                    break
            if viable(still_bad, still_meet, left - 1, j):
                yield from descend(picks + (j,), ruled_out | rules_out[j], refined,
                                   still_bad, still_meet, left - 1)

    bads = (whole,) if is_bad(whole) else ()
    for size in range(min(k, present.bit_count()) + 1):  # no set holds more than the cuts
        tick()
        if viable(bads, (), size, -1):
            yield from descend((), 0, (whole,), bads, (), size)


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
    chains, the cut index and the walk's block memos over from earlier calls.
    A memo built for other trees raises InputError, and so does a k that is
    not an int of at least 0 (a bool is not).
    """
    if isinstance(k, bool) or not isinstance(k, int):
        raise InputError(f"--k must be an integer, got {k!r}")
    if k < 0:
        raise InputError(f"--k must be at least 0, got {k}")
    if memo is not None and not memo.built_for(ts):
        raise InputError("the walk memo was built for other trees")
    tick = clock if clock is not None else (lambda: None)
    memo = memo if memo is not None else WalkMemo(ts)
    seen_partitions: set = set()
    for guess, present in memo.guess_masks(k, prune, trace):
        for picks in _cut_walk(present, k, memo, tick):
            cuts = [memo.index[j] for j in picks]
            blocks = frozenset(_partition_after_deletion([memo.whole, *cuts]))
            if blocks in seen_partitions:
                continue
            seen_partitions.add(blocks)
            forest = Forest(ts[0].labels_of(m) for m in blocks)
            if is_acyclic_agreement_forest(forest, ts):
                yield AafCandidate(forest, guess, tuple(ts[0].labels_of(c) for c in cuts))
