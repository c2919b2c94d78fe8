"""Signature construction and component expansion: one loop, the search.

A description fixes, for every component root of the extended AAF, the wiring
of its image's parent edges.  The signature is grown bottom-up: in each round
one *free* root is processed, the root edges representing its child edges are
merged into a fresh node, and new root edges are added according to the wiring
guess.  Every root edge carries, per colour, the tree node whose pendant
subtree it currently represents; that bookkeeping drives both the freeness
tests and the final expansion of AAF components.  :func:`search_cnet` grows
the signatures of all descriptions at once, sharing prefixes; the replay of
one description is its test reference, ``hybnet.oracles.reconstruct_cnet``.

Which free root a round processes does not change the signature: a free root
stays free with the same plan until it is processed.  Its plan reads the root
edges at its own child pendants, which branch off it, and for an invisible
node the buddies those edges hang from in other colours.  No other merge can
take those edges, so none absorbs those buddies either, and new edges go
only to pendants that hold none.  The replay processes the lowest-indexed
free root; the search the first free invisible node, and a block only when
no invisible node is free, taking the blocks in an order fixed per search
that frees invisible nodes early (:func:`_scan_order`).

The search also drops a guess as soon as one of its new edges leaves an
invisible node that can never be processed (:func:`strands_inode`).  Each
root edge has one merger, the only component that can consume it, and an
empty pendant is first filled when the component owning the pendant's root
is assigned.  So an invisible node x is dead for good when it is locked
with both child edges failing the buddy test, or when it waits for a
component that waits for x: the merger of the live edge on x's other
pendant, or the unassigned block that must fill that pendant, needs x to
take away the new edge first.

Expansion replaces each block image by the block's tree, reattaching the
collected child edges onto component edges in an order consistent with all
three input trees (a topological order of the per-edge constraint DAG).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import InternalInconsistency
from .extended_aaf import (
    AafRoot,
    Component,
    Description,
    ExtendedAAF,
    INode,
    RhoRoot,
    WiringGuess,
    guesses_for,
)
from .forests import topological_order
from .networks import CNET, CnetEdge
from .trees import RHO


def component_edge_key(fstar: ExtendedAAF, x: int, s: int, u: int) -> int:
    """The block leaves below the component edge of block x that the
    attachment point u of tree s lies on, as a mask.  The pendant hanging at
    u holds no leaf of the block, so u's cluster meets the block as the
    edge's bottom node does."""
    return fstar.trees[s].masks()[u] & fstar.mask[x]


@dataclass(frozen=True)
class Rejection:
    # NoFreeNode | BuddyGuessMismatch | BranchConflict | CyclicAttachOrder
    # | DeletionForestMismatch
    reason: str
    witness: tuple = ()

    def __bool__(self):
        return False


@dataclass(frozen=True)
class SigEdge:
    """A signature edge.  It never changes once created: the node that later
    merges it is recorded apart, in the signature's ``top`` map."""

    eid: int
    bottom: int
    colours: frozenset
    top_colour: Optional[int]
    reps: dict = field(compare=False)  # colour -> tree node whose pendant it represents


@dataclass(frozen=True)
class PartialSignature:
    """The contracted network: one node per set of component roots mapping to
    it, edges carrying colour sets and per-colour pendant representatives,
    and the node that merged each edge (edges without one are root edges)."""

    nodes: tuple  # ((nid, frozenset[Component]), ...)
    edges: tuple  # (SigEdge, ...) in id order
    top: Dict[int, int]  # eid -> merging node

    def canonical(self):
        names = {nid: tuple(sorted(c.name() for c in comps)) for nid, comps in self.nodes}
        rows = sorted(
            (names.get(self.top.get(e.eid), ()), names[e.bottom], tuple(sorted(e.colours)))
            for e in self.edges
        )
        return (tuple(sorted(names.values())), tuple(rows))


def edge_verdicts(fstar: ExtendedAAF, top_colour: int, reps: dict) -> Tuple[bool, bool]:
    """Whether a root edge, given by its top colour and its pendant
    representative per colour, is doomed, and whether its top colour is
    unread; the search asks both before it makes the edge.  Both read, per
    colour, the component that owns the node the edge's pendant hangs from.

    Doomed: no component can ever consume the edge.  An edge whose colour
    pendants target different components can only be consumed through an
    invisible-node merge, which requires its top colour's target to be an
    invisible node.  An edge targeting one block must have all its colours
    branch off the same component edge.

    Unread: the pendant hangs, in every colour, below a node of one block.
    Only that block's plan can merge the edge, since an invisible node's
    pendants hang below the invisible node itself, and neither the plan, the
    single-target test above nor the expansion reads the top colour.
    """
    owners = set()
    for s, node in reps.items():
        p = fstar.trees[s].parent[node]
        if p is None:
            return False, False
        owners.add(fstar.owner[s][p])
    if len(owners) > 1:
        p = fstar.trees[top_colour].parent[reps[top_colour]]
        return fstar.components[fstar.owner[top_colour][p]].kind == "block", False
    x = owners.pop()
    tgt = fstar.components[x]
    if tgt.kind != "block":
        return False, False
    if len(tgt.block) == 1:
        return False, True
    keys = {component_edge_key(fstar, x, s, fstar.trees[s].parent[node])
            for s, node in reps.items()}
    return len(keys) > 1, True


def _buddies(fstar: ExtendedAAF, tree: int, colours, reps: dict, e: SigEdge,
             assigned_mask: int) -> Optional[List[int]]:
    """The buddy test of an invisible node of the given tree that merges a
    root edge, given by its colours and pendant representatives, with root
    edge e: per other colour both edges carry, the invisible node of that
    colour's tree that both pendants hang from, which is absorbed.  None when
    in some such colour the pendants hang from a root, from different nodes,
    from a node that is not an invisible node, or from an assigned one."""
    buddies = []
    for s in e.colours.intersection(colours) - {tree}:
        t = fstar.trees[s]
        w = t.parent[reps[s]]
        if w is None or w != t.parent[e.reps[s]]:
            return None
        b = fstar.owner[s][w]
        comp = fstar.components[b]
        if comp.kind != "inode" or comp.tree != s or assigned_mask >> b & 1:
            return None
        buddies.append(b)
    return buddies


def _hangs_from(fstar: ExtendedAAF, s: int, node: int) -> int:
    """The component owning the parent of node in tree s, or -1 at the root."""
    p = fstar.trees[s].parent[node]
    return -1 if p is None else fstar.owner[s][p]


def strands_inode(b: "_Builder", merged, assigned_mask: int, split: int, colours,
                  rep_of: dict) -> Optional[str]:
    """Whether a new root edge E of top colour t = split over the given
    colours, with pendant representatives rep_of, leaves an invisible node
    that can never be merged: the case that dooms it, or None.  E is made by
    a merge of builder b that merges the root edges `merged`; assigned_mask
    is the assigned set after it.

    Every root edge has one *merger*, the only component whose merge can
    consume it: the block all its colours hang from, or else the invisible
    node its top-colour pendant hangs from (an absorber merges the absorbed
    node's edges, so it is their merger).  A live edge stays at its pendants
    until its merger merges it, since new edges never overwrite a live
    pendant; an empty pendant is first filled when its *supplier*, the
    component owning the pendant's root, is assigned; and a block is never
    absorbed.  Here E's pendant in tree t hangs from an invisible node x of
    tree t, which is then E's merger, and x waits for its sibling pendant.
    E dooms x in three cases, each final:

    - "locked": the sibling holds a live edge of top colour t that the merge
      leaves live, and the buddy test of the pair fails.  Only x can merge
      both edges, and its plan reads only them and the assigned set, which
      only grows.
    - "crossed": the sibling holds a live edge e of another top colour u,
      whose merger is the component y that e's u-pendant hangs from, and E
      hangs below y in colour u.  x waits for y to take e away, and y, whose
      plan needs top colour u at both of its pendants, waits for x to take
      E away.
    - "unsupplied": the sibling is empty, its supplier is an unassigned
      block B, and E hangs below B in another colour.  x waits for B to fill
      the sibling, and B, whose plan needs every colour of E to hang from B,
      waits for x to take E away.

    In each case x is never assigned, so no signature below completes.
    """
    fstar = b.fstar
    t = fstar.trees[split]
    node = rep_of[split]
    p = t.parent[node]
    if p is None or fstar.components[fstar.owner[split][p]].kind != "inode":
        return None
    c1, c2 = t.children[p]
    sibling = c2 if c1 == node else c1
    eid = b.live.get((split, sibling))
    if eid is None:
        block = fstar.owner[split][sibling]
        if (fstar.components[block].kind == "block" and not assigned_mask >> block & 1
                and any(_hangs_from(fstar, s, rep_of[s]) == block for s in colours if s != split)):
            return "unsupplied"
        return None
    if eid in merged:
        return None
    e = b.edges[eid]
    u = e.top_colour
    if u == split:
        return "locked" if _buddies(fstar, split, colours, rep_of, e, assigned_mask) is None else None
    if u in colours:
        y = _hangs_from(fstar, u, e.reps[u])
        if y >= 0 and _hangs_from(fstar, u, rep_of[u]) == y:
            return "crossed"
    return None


def locks_stuck_inode(b: "_Builder", merged, assigned_mask: int, split: int, colours,
                      rep_of: dict) -> bool:
    """Whether the new root edge locks an invisible node whose buddy test
    fails: the "locked" case of strands_inode, where both child pendants of
    the node hold edges of its tree's top colour."""
    return strands_inode(b, merged, assigned_mask, split, colours, rep_of) == "locked"


def attached_pendants(fstar: ExtendedAAF) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Per component, the pendants (tree, pendant root) it must receive
    before it can be processed: those hanging from its nodes, and for an
    invisible node its two children in its own tree."""
    attached: List[List[Tuple[int, int]]] = [[] for _ in fstar.components]
    for i, t in enumerate(fstar.trees):
        own = fstar.owner[i]
        for w in range(t.n_nodes):
            p = t.parent[w]
            if p is not None and own[p] != own[w]:
                attached[own[p]].append((i, w))
    for x, c in enumerate(fstar.components):
        if c.kind == "inode":
            rep = fstar.rep[x][c.tree]
            attached[x] = [(c.tree, w) for w in fstar.trees[c.tree].children[rep]]
    return tuple(map(tuple, attached))


class _Builder:
    """Signature state of one search branch.  Edges are shared between
    clones; only the five dicts are copied.  Components are named by their
    index in ``fstar.components``.

    A *plan* for processing a component is ``(merged, absorbed, rep_of)``:
    the root edges its node merges, the buddies it absorbs, and per colour
    the tree node whose pendant a new parent edge of that colour represents.
    """

    def __init__(self, fstar: ExtendedAAF):
        self.fstar = fstar
        self.edges: Dict[int, SigEdge] = {}
        self.top: Dict[int, int] = {}  # eid -> node that merged it
        self.nodes: Dict[int, Tuple[int, ...]] = {}  # nid -> component indices
        self.live: Dict[Tuple[int, int], int] = {}  # (tree, pendant root) -> eid
        self.assigned: Dict[int, WiringGuess] = {}
        self.assigned_mask = 0  # the keys of assigned, as bits
        self.attached = attached_pendants(fstar)

    def clone(self) -> "_Builder":
        out = _Builder.__new__(_Builder)
        out.fstar = self.fstar
        out.edges = dict(self.edges)
        out.top = dict(self.top)
        out.nodes = dict(self.nodes)
        out.live = dict(self.live)
        out.assigned = dict(self.assigned)
        out.assigned_mask = self.assigned_mask
        out.attached = self.attached
        return out

    # -- freeness ----------------------------------------------------------

    def done(self) -> bool:
        return len(self.assigned) == len(self.fstar.components)

    def _inode_plan(self, x: int):
        """The plan for invisible node x, or None when the merge cannot
        belong to any CNET (a child edge still missing, wrong top colours,
        mismatched or non-invisible parents)."""
        p1, p2 = self.attached[x]
        e1 = self.live.get(p1)
        e2 = self.live.get(p2)
        if e1 is None or e2 is None:
            return None
        fstar = self.fstar
        tree = fstar.components[x].tree
        e1, e2 = self.edges[e1], self.edges[e2]
        if e1.top_colour != tree or e2.top_colour != tree:
            return None
        buddies = _buddies(fstar, tree, e1.colours, e1.reps, e2, self.assigned_mask)
        if buddies is None:
            return None
        # a new edge's colour represents x's own pendant, a buddy's, or
        # passes the pendant of a child edge through
        rep_of = {**e2.reps, **e1.reps, tree: fstar.rep[x][tree]}
        for b in buddies:
            s = fstar.components[b].tree
            rep_of[s] = fstar.rep[b][s]
        return (e1.eid, e2.eid), tuple(buddies), rep_of

    def _block_plan(self, x: int):
        """The plan for block x, or None while some pendant it must receive
        has no root edge yet or a root edge also branches off elsewhere."""
        eids = set()
        for p in self.attached[x]:
            eid = self.live.get(p)
            if eid is None:
                return None
            eids.add(eid)
        fstar = self.fstar
        for eid in eids:
            e = self.edges[eid]
            for s in e.colours:
                parent = fstar.trees[s].parent[e.reps[s]]
                if parent is None or fstar.owner[s][parent] != x:
                    return None
        return tuple(sorted(eids)), (), fstar.rep[x]

    def free_components(self, order: Sequence[int]):
        """The free components with their plans, lazily, in the given order
        of component indices."""
        assigned = self.assigned_mask
        comps = self.fstar.components
        for x in order:
            if assigned >> x & 1:
                continue
            plan = self._inode_plan(x) if comps[x].kind == "inode" else self._block_plan(x)
            if plan is not None:
                yield x, plan

    # -- processing ----------------------------------------------------------

    def _new_edge(self, colours, top_colour, reps, bottom):
        eid = len(self.edges)
        self.edges[eid] = SigEdge(eid, bottom, colours, top_colour, reps)
        for s, node in reps.items():
            self.live[(s, node)] = eid

    def apply(self, x: int, guess: WiringGuess, plan):
        """Merge x's child root edges into a fresh node, as its plan from
        free_components says, and add the new parent edges of the guess.
        Returns the ids of the newly created root edges."""
        first_new = len(self.edges)
        merged, buddies, rep_of = plan
        absorbed = sorted(buddies)
        nid = len(self.nodes)
        self.nodes[nid] = (x, *absorbed)
        for eid in merged:
            self.top[eid] = nid
            for s, node in self.edges[eid].reps.items():
                self.live.pop((s, node), None)
        for y in (x, *absorbed):
            self.assigned[y] = guess
            self.assigned_mask |= 1 << y
        for colours, split in guess.edges:
            self._new_edge(colours, split, {s: rep_of[s] for s in colours}, nid)
        return range(first_new, len(self.edges))

    def export(self) -> PartialSignature:
        comps = self.fstar.components
        nodes = tuple((nid, frozenset(comps[x] for x in xs)) for nid, xs in self.nodes.items())
        return PartialSignature(nodes, tuple(self.edges.values()), dict(self.top))


# ---------------------------------------------------------------------------
# expansion of AAF components
# ---------------------------------------------------------------------------


class _Expander:
    """Expansion state of one signature.  ``log`` lists each block expanded,
    in order, with the number of fresh roots its child edges got (the root
    component without a tree) or, per component edge key, the child edges
    attached on that edge, top down."""

    def __init__(self, sig: PartialSignature, fstar: ExtendedAAF):
        self.fstar = fstar
        self.log: List[Tuple[Component, object]] = []
        self.labels: Dict[int, str] = {}
        self.node_ids = [nid for nid, _ in sig.nodes]
        self.comps = dict(sig.nodes)
        self.next_node = max(self.node_ids, default=-1) + 1
        self.etop: Dict[int, int] = {}
        self.ebottom: Dict[int, int] = {}
        self.ecolours: Dict[int, frozenset] = {}
        self.ereps: Dict[int, dict] = {}
        for e in sig.edges:
            self.etop[e.eid] = sig.top[e.eid]
            self.ebottom[e.eid] = e.bottom
            self.ecolours[e.eid] = e.colours
            self.ereps[e.eid] = e.reps
        self.next_edge = max(self.etop, default=-1) + 1
        self.dead_nodes: set = set()

    def new_node(self) -> int:
        nid = self.next_node
        self.next_node += 1
        self.node_ids.append(nid)
        return nid

    def new_edge(self, top, bottom, colours) -> int:
        eid = self.next_edge
        self.next_edge += 1
        self.etop[eid] = top
        self.ebottom[eid] = bottom
        self.ecolours[eid] = colours
        self.ereps[eid] = {}
        return eid

    def topo_block_nodes(self) -> List[int]:
        edges = [(self.etop[e], self.ebottom[e]) for e in self.etop]
        order = topological_order(self.node_ids, edges)
        if order is None:
            raise InternalInconsistency("the signature has a directed cycle")
        return [n for n in order
                if any(c.kind == "block" for c in self.comps.get(n, ()))]

    def _labels(self, key: int) -> list:
        return sorted(self.fstar.trees[0].labels_of(key))

    def _group_attachments(self, x: int, child_eids):
        groups: Dict[int, list] = {}
        for eid in child_eids:
            keys = set()
            for s, rep in self.ereps[eid].items():
                keys.add(component_edge_key(self.fstar, x, s, self.fstar.trees[s].parent[rep]))
            if len(keys) != 1:
                return Rejection(
                    "BranchConflict",
                    (f"e{eid}",) + tuple(str(k) for k in sorted(map(self._labels, keys))))
            groups.setdefault(keys.pop(), []).append(eid)
        return groups

    def expand_block(self, nid: int, c: Component):
        block = c.block
        child_eids = sorted(e for e, top in self.etop.items() if top == nid)
        parent_eids = sorted(e for e, bot in self.ebottom.items() if bot == nid)

        if len(block) == 1 and not c.is_rho:
            (lbl,) = block
            self.labels[nid] = lbl
            if child_eids:
                raise InternalInconsistency("taxon leaf with child edges")
            return
        if c.is_rho and len(block) == 1:
            # no component tree: every child edge gets its own root
            for eid in child_eids:
                r = self.new_node()
                self.etop[eid] = r
            self.dead_nodes.add(nid)
            self.log.append((c, len(child_eids)))
            return

        shape = self.fstar.shape_of(c)
        groups = self._group_attachments(self.fstar.index[c], child_eids)
        if isinstance(groups, Rejection):
            return groups

        # instantiate the component tree, all edges carrying all colours
        mapped: Dict[int, int] = {}
        for v in shape.preorder():
            mapped[v] = self.new_node()
            lbl = shape.label[v]
            if lbl is not None and not shape.children[v] and lbl != RHO:
                self.labels[mapped[v]] = lbl
        # component edges by the leaves below them, in the trees' bits
        t0 = self.fstar.trees[0]
        shape_edge_by_key: Dict[int, int] = {}
        for v in shape.preorder():
            p = shape.parent[v]
            if p is None:
                continue
            eid = self.new_edge(mapped[p], mapped[v], frozenset({0, 1, 2}))
            shape_edge_by_key[t0.mask(shape.labels_of(shape.masks()[v]))] = eid

        # re-route the block node's parent edges to the component root
        top_node = mapped[shape.root]
        for eid in parent_eids:
            self.ebottom[eid] = top_node
        self.dead_nodes.add(nid)

        orders = {}
        for key in sorted(groups, key=self._labels):
            eids = groups[key]
            order = self._attachment_order(eids)
            if isinstance(order, Rejection):
                return order
            if key not in shape_edge_by_key:
                raise InternalInconsistency(f"no component edge with clade {self._labels(key)}")
            f_eid = shape_edge_by_key[key]
            top = self.etop[f_eid]
            bottom = self.ebottom[f_eid]
            prev = top
            for eid in order:
                z = self.new_node()
                seg = self.new_edge(prev, z, frozenset({0, 1, 2}))
                self.etop[eid] = z
                prev = z
            # final segment reuses the original component edge
            self.etop[f_eid] = prev
            self.ebottom[f_eid] = bottom
            orders[key] = order
        self.log.append((c, orders))
        return None

    def _attachment_order(self, eids):
        """Topological order of the attachment-constraint DAG: an edge must be
        attached above every edge it sits above in some tree."""
        above = set()  # (a, b): a is attached above b
        for s in range(3):
            t = self.fstar.trees[s]
            coloured = [e for e in eids if s in self.ecolours[e]]
            # the cluster of each attachment point; a proper ancestor has a
            # strictly larger one
            cl = {e: t.masks()[t.parent[self.ereps[e][s]]] for e in coloured}
            for a in coloured:
                for b in coloured:
                    if cl[a] != cl[b] and cl[a] & cl[b] == cl[b]:
                        above.add((a, b))
        order = topological_order(eids, above)
        if order is None:
            return Rejection("CyclicAttachOrder", tuple(f"e{e}" for e in eids))
        return order

    def run(self):
        """Expand every block image, top down; the CNET, or the rejection
        when attachments conflict or cannot be ordered."""
        for nid in self.topo_block_nodes():
            c = next(comp for comp in self.comps[nid] if comp.kind == "block")
            result = self.expand_block(nid, c)
            if isinstance(result, Rejection):
                return result
        return self.to_cnet()

    def to_cnet(self) -> CNET:
        live = [n for n in self.node_ids if n not in self.dead_nodes]
        remap = {n: i for i, n in enumerate(sorted(live))}
        edges = [
            CnetEdge(i, remap[self.etop[eid]], remap[self.ebottom[eid]], self.ecolours[eid])
            for i, eid in enumerate(sorted(self.etop))
        ]
        labels = {remap[n]: lbl for n, lbl in self.labels.items()}
        return CNET(len(live), edges, labels)


def expand_components(sig: PartialSignature, d: Description):
    """Turn a complete signature into a CNET by expanding every block image,
    or reject when attachments conflict or cannot be ordered."""
    return _Expander(sig, d.fstar).run()


# ---------------------------------------------------------------------------
# guess search used by the solver
# ---------------------------------------------------------------------------


def _scan_order(fstar: ExtendedAAF) -> Tuple[int, ...]:
    """The order in which the search looks for a free component: invisible
    nodes first, in component order, since a free invisible node has both
    child edges fixed and few guesses, so its branch fails early (fail
    first).  Then the blocks, one at a time: of the blocks whose pendants'
    suppliers are all taken, the one after which the most invisible nodes
    have all their pendants' suppliers taken, counting an invisible node as
    taken once all of its own are; ties go to component order.  A block
    that frees invisible nodes early lets their few guesses fail before
    other blocks' guesses multiply them."""
    comps = fstar.components
    # per component, its pendants' suppliers as bits
    needs = [sum(1 << y for y in {fstar.owner[s][w] for s, w in pendants})
             for pendants in attached_pendants(fstar)]
    inodes = [x for x, c in enumerate(comps) if c.kind == "inode"]
    inode_mask = sum(1 << x for x in inodes)

    def close(taken: int) -> int:
        """taken with every invisible node whose suppliers it holds, repeatedly."""
        grown = True
        while grown:
            grown = False
            for x in inodes:
                if not taken >> x & 1 and needs[x] & ~taken == 0:
                    taken |= 1 << x
                    grown = True
        return taken

    blocks = [x for x, c in enumerate(comps) if c.kind == "block"]
    order = list(inodes)
    taken = close(0)
    while blocks:
        # no block is ready only when the forest is cyclic
        ready = [x for x in blocks if needs[x] & ~taken == 0] or blocks[:1]
        best = max(ready, key=lambda x: ((close(taken | 1 << x) & inode_mask).bit_count(), -x))
        blocks.remove(best)
        order.append(best)
        taken = close(taken | 1 << best)
    return tuple(order)


@functools.lru_cache(maxsize=None)
def _search_options():
    """The guesses the search branches on, each with its added reticulations
    and its edges as (split, sorted colours, 5-bit tag of both): per tree
    and child colour union for invisible nodes, the multi-edge guesses for
    blocks, and the root component's guess."""
    def options(guesses):
        return tuple((g, max(len(g.edges) - 1, 0),
                      tuple((split, tuple(sorted(colours)), split << 3 | sum(1 << s for s in colours))
                            for colours, split in g.edges))
                     for g in guesses)

    by_union: Dict[int, Dict[frozenset, tuple]] = {}
    for t in range(3):
        buckets: Dict[frozenset, List[WiringGuess]] = {}
        for g in guesses_for(INode(t)):
            buckets.setdefault(g.colour_union(), []).append(g)
        by_union[t] = {union: options(gs) for union, gs in buckets.items()}
    # a deletion-forest component other than the root one must be cut off by
    # reticulation edges, so its image needs >= 2 parents
    multi_block = options(g for g in guesses_for(AafRoot()) if len(g.edges) >= 2)
    return by_union, multi_block, guesses_for(RhoRoot())[0]


def search_cnet(fstar: ExtendedAAF, max_hyb: Optional[int] = None,
                clock: Optional[Callable[[], None]] = None):
    """Depth-first search over wiring guesses, sharing signature prefixes.

    Equivalent to running the replay ``oracles.reconstruct_cnet`` over
    ``oracles.enumerate_descriptions(fstar)`` and returning the first
    within-budget success, in the order of the search: descriptions ordered
    by their guesses taken in the order the search processes the components.
    Guesses of a component are only branched when the component becomes
    free, so rejected prefixes prune the whole guess subspace below them.
    The hybridization number of the final CNET is the sum over merged nodes
    of (parent edge count - 1), which is accumulated during the search and
    capped at max_hyb.  A guess with a new edge that edge_verdicts says is
    doomed is dropped before the branch is copied, so every copy becomes a
    search node.

    Each node branches on the first free component of ``_scan_order``:
    invisible nodes before blocks, and the blocks in the order that lets
    invisible nodes become free soonest.  A free invisible node already has
    both child edges, and few of its guesses fit their colours, so a bad
    prefix fails before the blocks' guesses multiply it.  No description is
    lost: a free component stays free with the same plan until it is
    processed, so every order of processing builds the same signature
    (criterion 7), and the search finds a network exactly when some
    description within the budget reconstructs.

    Equivalent guesses are branched once: two guesses of a node whose new
    edges agree up to top colours that edge_verdicts says nothing reads have
    the same subtree, so the later one, tried only after the earlier one
    failed, is skipped.  A guess with a new edge that strands an invisible
    node (strands_inode) is dropped before the branch is copied too: the
    node is locked with a failing buddy test, or it waits for a component
    that waits for it, as a live edge only its merger can take away or an
    empty pendant only an unassigned block can fill.  No later merge undoes
    any of the three, so the node is never assigned.  The clock callable,
    if given, is called once per search node; it stops the search by
    raising.
    """
    by_union, multi_block_options, rho_guess = _search_options()
    comps = fstar.components
    # every unprocessed non-rho block adds a reticulation
    blocks_mask = sum(1 << x for x, c in enumerate(comps) if c.kind == "block" and not c.is_rho)
    # per edge of this search, keyed by its reps as digits in base `width`
    # above its 5-bit tag, which fixes the colours and so the digit count:
    # its class key (the key with the split bits of the tag cleared when the
    # split is read by nothing), or -1 when the edge is doomed; int keys keep
    # the memo (thousands of edges) small
    classes: Dict[int, int] = {}
    width = max(t.n_nodes for t in fstar.trees)
    order = _scan_order(fstar)

    def class_keys(edges, rep_of) -> Optional[tuple]:
        """The class keys of a guess's new edges, or None if one is doomed."""
        out = []
        for split, colours, tag in edges:
            key = 0
            for s in colours:
                key = key * width + rep_of[s]
            key = key << 5 | tag
            cls = classes.get(key)
            if cls is None:
                doomed, unread = edge_verdicts(fstar, split, {s: rep_of[s] for s in colours})
                cls = -1 if doomed else key & ~0b11000 if unread else key
                classes[key] = cls
            if cls < 0:
                return None
            out.append(cls)
        return tuple(out)

    def dfs(builder: _Builder, cost: int):
        if clock is not None:
            clock()
        if builder.done():
            if len(builder.top) < len(builder.edges):
                return None
            sig = builder.export()
            d = Description(fstar, tuple((comps[x], g) for x, g in sorted(builder.assigned.items())))
            cnet = expand_components(sig, d)
            if isinstance(cnet, Rejection):
                return None
            return cnet, d, sig
        x, plan = next(builder.free_components(order), (None, None))
        if x is None:
            return None
        c = comps[x]
        if c.is_rho:
            nxt = builder.clone()
            nxt.apply(x, rho_guess, plan)
            return dfs(nxt, cost)
        rep_of = plan[2]
        if c.kind == "inode":
            choices = by_union[c.tree].get(frozenset(rep_of), ())
        else:
            choices = multi_block_options
        pending_blocks = (blocks_mask & ~builder.assigned_mask & ~(1 << x)).bit_count()
        assigned_after = builder.assigned_mask | 1 << x | sum(1 << y for y in plan[1])
        tried = set()
        for guess, added, edges in choices:
            if max_hyb is not None and cost + added + pending_blocks > max_hyb:
                continue
            keys = class_keys(edges, rep_of)
            if keys is None or keys in tried:
                continue
            tried.add(keys)
            if any(strands_inode(builder, plan[0], assigned_after, split, colours, rep_of)
                   for split, colours, _ in edges):
                continue
            nxt = builder.clone()
            nxt.apply(x, guess, plan)
            result = dfs(nxt, cost + added)
            if result is not None:
                return result
        return None

    return dfs(_Builder(fstar), 0)
