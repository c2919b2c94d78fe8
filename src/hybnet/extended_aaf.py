"""Extended AAFs: invisible nodes, component roots, wiring guesses and
descriptions.

Components of the extended forest are either AAF blocks (present in all
three trees, root = root of the spanning subtree) or invisible nodes of one
tree (nodes on no leaf-to-leaf path within a single block, the root leaf
counting as a leaf).  The wiring guess of a component root fixes how many
parent edges its image has in the network, which tree images use which
parent edge, and for each parent edge one tree whose image branches at the
edge's top endpoint.  Which guesses a component may take depends only on
its ``Component.tree``: the tree index of an invisible node, or None for a
block; the block containing RHO takes the one guess ``RHO_GUESS``.

Every component carries a leaf mask in the bits the three trees share (see
:meth:`PhyloTree.masks`): a block's taxa, or the cluster of an invisible
node.  The reconstruction compares these ints, not label sets.
"""

from __future__ import annotations

import functools
import itertools
import json
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .forests import Forest, span_owners, spanning_root
from .forests import spanning_nodes  # noqa: F401  (stays patchable here by name)
from .trees import RHO, PhyloTree

ALL_COLOURS = frozenset({0, 1, 2})


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------


class Component(NamedTuple):
    """Either an AAF block or one invisible node of one tree."""

    kind: str  # "block" or "inode"
    block: Optional[frozenset] = None
    tree: Optional[int] = None
    clade: Optional[frozenset] = None  # leaf labels below the invisible node

    def key(self):
        if self.kind == "block":
            return (0, tuple(sorted(self.block)), -1)
        return (1, tuple(sorted(self.clade)), self.tree)

    @property
    def is_rho(self) -> bool:
        return self.kind == "block" and RHO in self.block

    def name(self) -> str:
        if self.kind == "block":
            return "{" + ",".join(sorted(self.block)) + "}"
        return f"I(T{self.tree + 1}:{{{','.join(sorted(self.clade))}}})"


class ExtendedAAF:
    """An AAF together with the invisible nodes of each tree and the
    per-tree representative node of every component root.  ``mask``,
    ``rep`` and ``attached`` are indexed by a component's position in
    ``components``; ``owner[s][v]`` is the position of node v's component in
    tree s, and ``hang[s][v]`` that of its parent's (-1 at the root), which
    the pendant at v hangs from.  ``attached[x]`` lists the pendants that x
    must receive, those hanging from it or an invisible node's two children,
    each as the int id ``v * 3 + s`` of its root v in tree s."""

    def __init__(self, forest: Forest, trees: Sequence[PhyloTree]):
        self.forest = forest
        self.trees = tuple(trees)
        blocks = sorted((Component("block", block=b) for b in forest.blocks), key=Component.key)
        block_masks = [self.trees[0].mask(c.block) for c in blocks]
        # owner table per tree: the index of the one component each node
        # belongs to; blocks sort before invisible nodes, so block j is component j
        self.owner: List[List[int]] = [span_owners(t, block_masks) for t in self.trees]
        self.invisible: Tuple[frozenset, ...] = tuple(
            frozenset(v for v, j in enumerate(own) if j < 0) for own in self.owner)
        inodes = sorted(((Component("inode", tree=i, clade=t.labels_of(t.masks()[v])), i, v)
                         for i, t in enumerate(self.trees) for v in self.invisible[i]),
                        key=lambda entry: entry[0].key())
        for x, (_, i, v) in enumerate(inodes, len(blocks)):
            self.owner[i][v] = x
        self.components = tuple(blocks) + tuple(c for c, _, _ in inodes)
        self.mask: Tuple[int, ...] = tuple(block_masks) + tuple(
            self.trees[i].masks()[v] for _, i, v in inodes)
        # representative node of each component root, per tree
        self.rep: Tuple[Dict[int, int], ...] = tuple(
            {i: spanning_root(t, c.block) for i, t in enumerate(self.trees)} for c in blocks
        ) + tuple({i: v} for _, i, v in inodes)
        self.hang: List[List[int]] = [[-1 if p is None else own[p] for p in t.parent]
                                      for t, own in zip(self.trees, self.owner)]
        attached: List[list] = [[] for _ in self.components]
        for i, (hang, own) in enumerate(zip(self.hang, self.owner)):
            for w, x in enumerate(hang):
                if x >= 0 and x != own[w]:
                    attached[x].append(w * 3 + i)
        for _, i, v in inodes:
            attached[self.owner[i][v]] = [w * 3 + i for w in self.trees[i].children[v]]
        self.attached: Tuple[Tuple[int, ...], ...] = tuple(map(tuple, attached))

    def n_invisible(self) -> Tuple[int, ...]:
        return tuple(len(s) for s in self.invisible)

    def describe(self) -> dict:
        def clade(i: int, v: int) -> list:
            # the leaves below v: the RHO root's own bit is not one of them
            t = self.trees[i]
            return sorted(t.labels_of(t.masks()[v]) - {RHO})

        reps = {
            c.name(): {f"T{i + 1}": clade(i, node) for i, node in sorted(self.rep[x].items())}
            for x, c in enumerate(self.components)
        }
        return {
            "forest": self.forest.sorted_blocks(),
            "invisible": [sorted(clade(i, v) for v in self.invisible[i])
                          for i in range(len(self.trees))],
            "components": [c.name() for c in self.components],
            "representatives": reps,
        }


# ---------------------------------------------------------------------------
# wiring guesses
# ---------------------------------------------------------------------------


class WiringGuess(NamedTuple):
    """Parent edges of a component root's image: per edge, its colour set and
    the split colour guessed for the edge's top endpoint.  The code that
    makes a guess supplies its edges in canonical order, by sorted colours
    and then split: ``enumerate_wiring_guesses`` emits them so, and
    ``RHO_GUESS`` has none."""

    edges: Tuple[Tuple[frozenset, int], ...]

    def colour_union(self) -> frozenset:
        out = frozenset()
        for colours, _ in self.edges:
            out |= colours
        return out

    def describe(self) -> list:
        return [{"colours": sorted(f"T{c + 1}" for c in colours), "split": f"T{split + 1}"}
                for colours, split in self.edges]


# the one guess of the block containing RHO: its image has no parent edge
RHO_GUESS = WiringGuess(())


def _partitions_of(colours: Tuple[int, ...]) -> Iterator[Tuple[frozenset, ...]]:
    """Set partitions of the colour set, each part becoming one parent edge."""
    if not colours:
        yield ()
        return
    first, rest = colours[0], colours[1:]
    for sub in _partitions_of(rest):
        yield (frozenset({first}),) + sub
        for i, part in enumerate(sub):
            yield sub[:i] + (part | {first},) + sub[i + 1:]


@functools.lru_cache(maxsize=None, typed=True)
def enumerate_wiring_guesses(tree: Optional[int]) -> Tuple[WiringGuess, ...]:
    """All wiring guesses for a component root keyed by its ``tree``, in
    canonical order, one tuple per key (the cache is typed, so ``True`` and
    ``1.0`` are rejected even after ``1`` is cached).

    An invisible node of tree T (key T) admits 17 guesses (T must appear on
    some parent edge), an AAF block (key None) 10 (all three colours must
    appear).  The block containing RHO takes only RHO_GUESS.
    """
    if tree is None:
        unions = [ALL_COLOURS]
    elif type(tree) is int and tree in ALL_COLOURS:
        unions = [u for u in _subsets(ALL_COLOURS) if tree in u]
    else:
        raise TypeError(f"a guess key is a tree index or None, got {tree!r}")
    out = set()
    for union in unions:
        partitions = {frozenset(p) for p in _partitions_of(tuple(sorted(union)))}
        for partition in partitions:
            parts = sorted(partition, key=lambda s: tuple(sorted(s)))
            for splits in itertools.product(*[sorted(p) for p in parts]):
                out.add(WiringGuess(tuple(zip(parts, splits))))
    return tuple(sorted(out, key=lambda g: tuple((tuple(sorted(c)), s) for c, s in g.edges)))


def _subsets(colours: frozenset):
    items = sorted(colours)
    for r in range(1, len(items) + 1):
        for combo in itertools.combinations(items, r):
            yield frozenset(combo)


# ---------------------------------------------------------------------------
# descriptions
# ---------------------------------------------------------------------------


class Description(NamedTuple):
    """One wiring guess per component root, plus the extended AAF itself."""

    fstar: ExtendedAAF
    guesses: Tuple[Tuple[Component, WiringGuess], ...]

    def to_json(self) -> str:
        payload = {
            "fstar": self.fstar.describe(),
            "guesses": {c.name(): g.describe() for c, g in self.guesses},
        }
        return json.dumps(payload, ensure_ascii=False, sort_keys=True)
