"""A lower bound on the hybridization number from the pairs of trees.

A network that displays three trees displays each pair of them, so
h(T1, T2, T3) is at least the rooted SPR distance of every pair (Baroni,
Grünewald, Moulton & Semple, J. Math. Biol. 2005; Bordewich & Semple, Ann.
Comb. 2005).  That distance is the size of a maximum agreement forest of the
two trees, less one, with the root leaf ρ counted as a taxon.

The forest is found by the branching of Whidden, Beiko & Zeh (SIAM J.
Comput. 2013).  The second tree is cut into a partition of the taxa, each
block standing for the tree's restriction to it.  The first tree is walked
in postorder, so each sibling pair (a, c) is met once both of its sides are
down to one leaf each, a leaf being the cluster of a contracted cherry.
Then:

- a leaf that is a block of its own is dropped from the first tree;
- a pair that is a cherry of the second forest too is contracted;
- otherwise the search branches: cut a, or cut c, and, when a and c share a
  block, cut every pendant subtree on the a–c path instead.

The budget of cuts is deepened one at a time, and the clock is called at
every branch.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

from .trees import RHO, PhyloTree

COMBINE = 0  # a step of the first tree's postorder that joins the top two leaves


class _Tree:
    """One tree in both of the roles the search gives it, in the bits of
    ``PhyloTree.masks``.

    As the first tree it is ``program``: its postorder as leaf masks to push
    and COMBINE steps, with ρ joined last.  As the second it is a binary tree
    with ρ a leaf beside the root: ``parent``, ``mask`` and ``sibling`` (the
    mask of a node's sibling) per node, the root being ρ's node, whose mask
    ``taxa`` holds every taxon, and ``leaf``, the node of each taxon's bit.
    """

    __slots__ = ("program", "taxa", "parent", "mask", "sibling", "leaf", "_lca")

    def __init__(self, t: PhyloTree):
        masks, rho = t.masks(), t.node(RHO)
        top = t.children[rho][0]
        rho_leaf, rho_bit = t.n_nodes, masks[rho] & ~masks[top]
        program = [COMBINE if t.children[v] else masks[v] for v in t.postorder()]
        program[-1:] = (rho_bit, COMBINE)  # ρ's node joins ρ's leaf and the old top
        self.program = tuple(program)
        self.taxa = masks[rho]
        self.parent = t.parent + (rho,)
        self.mask = masks + (rho_bit,)
        self.sibling = [0] * (t.n_nodes + 1)
        for a, b in [(top, rho_leaf)] + [c for c in t.children if len(c) == 2]:
            self.sibling[a], self.sibling[b] = self.mask[b], self.mask[a]
        self.leaf = {m.bit_length() - 1: v for v, m in enumerate(self.mask)
                     if m & (m - 1) == 0 and v != rho}
        self._lca: dict = {}

    def lca(self, m: int) -> int:
        """The lowest node whose cluster holds every taxon of `m`."""
        v = self._lca.get(m)
        if v is None:
            v = self.leaf[(m & -m).bit_length() - 1]
            mask, parent = self.mask, self.parent
            while mask[v] & m != m:
                v = parent[v]
            self._lca[m] = v
        return v


def _within(first: _Tree, second: _Tree, budget: int, clock: Callable[[], None]) -> bool:
    """Whether at most `budget` cuts of the second tree give an agreement
    forest of the two trees."""
    program = first.program
    end = len(program)
    lca, mask, parent, sibling = second.lca, second.mask, second.parent, second.sibling

    def split(blocks, b, pieces):
        rest = b
        for p in pieces:
            rest &= ~p
        return [x for x in blocks if x != b] + [rest, *pieces]

    def go(i, stack, blocks, budget):
        while i < end:
            step = program[i]
            i += 1
            if step:
                stack.append(step)
                continue
            c = stack.pop()
            a = stack.pop()
            if not a or not c:
                stack.append(a | c)
                continue
            for ba in blocks:
                if ba & a:
                    break
            for bc in blocks:
                if bc & c:
                    break
            if ba == a or bc == c:
                # a block of its own is done with; what is left moves up
                stack.append((0 if ba == a else a) | (0 if bc == c else c))
                continue
            if ba == bc:
                w = lca(a | c)
                if mask[w] & ba == a | c:
                    stack.append(a | c)
                    continue
            clock()
            if not budget:
                return False
            if go(i, stack + [c], split(blocks, ba, (a,)), budget - 1):
                return True
            if go(i, stack + [a], split(blocks, bc, (c,)), budget - 1):
                return True
            if ba != bc:
                return False
            pendants = []
            for x in (a, c):
                v = lca(x)
                while parent[v] != w:
                    s = sibling[v] & ba
                    if s:
                        pendants.append(s)
                    v = parent[v]
            if len(pendants) > budget:
                return False
            stack.append(a | c)
            blocks = split(blocks, ba, pendants)
            budget -= len(pendants)
        return True

    return go(0, [], [second.taxa], budget)


def pairwise_lower_bound(trees: Sequence[PhyloTree], cap: int,
                         clock: Callable[[], None]) -> Tuple[int, Tuple[int, int]]:
    """The largest rooted SPR distance over the pairs of the three `trees`,
    and the first pair, by positions from 0, that has it.  A distance is
    settled only up to cap + 1, which means that the pair needs more than
    `cap` cuts.  After the first pair, a pair is searched only from the bound
    so far upward: a search within that budget that succeeds settles it."""
    shapes = [_Tree(t) for t in trees]
    best, best_pair = 0, (0, 1)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        d = best
        while d <= cap and not _within(shapes[i], shapes[j], d, clock):
            d += 1
        if d > best:
            best, best_pair = d, (i, j)
        if best > cap:
            break
    return best, best_pair
