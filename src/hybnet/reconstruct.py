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
Both grow a :class:`_Builder`.  Which component each pendant hangs from,
and which pendants each component must receive, are read from the tables
``ExtendedAAF.hang`` and ``ExtendedAAF.attached``, built once per forest.

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

Each component's guesses are filtered once per search, per set of pendant
representatives: the guesses with a doomed new edge are dropped and
equivalent guesses kept once, in a menu that every later node with the same
component and representatives reuses.  A node then only checks the budget
and strands_inode, the two tests that read its branch.

Expansion reads the complete signature from the builder that grew it, the
one format the signature has until the CNET.  It replaces each block image
by the block's tree, read off the first tree's masks (:func:`component_tree`),
reattaching the collected child edges onto component edges in an order
consistent with all three input trees (a topological order of the per-edge
constraint DAG).  Edges that no tree orders go by their pendants' clusters,
so the network depends on the description only, not on the order of the
merges.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .errors import InternalInconsistency
from .extended_aaf import (
    ALL_COLOURS,
    RHO_GUESS,
    Component,
    Description,
    ExtendedAAF,
    WiringGuess,
    enumerate_wiring_guesses,
)
from .forests import topological_order
from .networks import CNET


def component_edge_key(fstar: ExtendedAAF, x: int, s: int, u: int) -> int:
    """The block leaves below the component edge of block x that the
    attachment point u of tree s lies on, as a mask.  The pendant hanging at
    u holds no leaf of the block, so u's cluster meets the block as the
    edge's bottom node does."""
    return fstar.trees[s].masks()[u] & fstar.mask[x]


class Rejection(NamedTuple):
    # NoFreeNode | BuddyGuessMismatch | BranchConflict | CyclicAttachOrder
    # | DeletionForestMismatch
    reason: str
    witness: tuple = ()


class SigEdge(NamedTuple):
    """A signature edge, at its id's position in ``_Builder.edges``.  It
    never changes once created: the node that later merges it is recorded
    apart, in the builder's ``top`` map."""

    bottom: int
    colours: frozenset
    top_colour: Optional[int]
    reps: dict  # colour -> tree node whose pendant it represents


def edge_verdicts(fstar: ExtendedAAF, top_colour: int, reps: dict) -> Tuple[bool, bool]:
    """Whether a root edge, given by its top colour and its pendant
    representative per colour, is doomed, and whether its top colour is
    unread; the search asks both before it makes the edge.  Both read, per
    colour, the component the edge's pendant hangs from.

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
    owners = {fstar.hang[s][node] for s, node in reps.items()}
    if -1 in owners:
        return False, False
    if len(owners) > 1:
        return fstar.components[fstar.hang[top_colour][reps[top_colour]]].kind == "block", False
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
    in some such colour the pendants hang from a root, from different
    components, from a block, or from an assigned invisible node."""
    buddies = []
    for s in e.colours.intersection(colours) - {tree}:
        hang = fstar.hang[s]
        b = hang[reps[s]]
        if b < 0 or b != hang[e.reps[s]] or fstar.components[b].kind != "inode" or (
                assigned_mask >> b & 1):
            return None
        buddies.append(b)
    return buddies


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
    node = rep_of[split]
    x = fstar.hang[split][node]
    if x < 0 or fstar.components[x].kind != "inode":
        return None
    p1, p2 = fstar.attached[x]
    sibling = p2 if p1 == node * 3 + split else p1
    eid = b.live[sibling]
    if eid < 0:
        block = fstar.owner[split][sibling // 3]
        if (fstar.components[block].kind == "block" and not assigned_mask >> block & 1
                and any(fstar.hang[s][rep_of[s]] == block for s in colours if s != split)):
            return "unsupplied"
        return None
    if eid in merged:
        return None
    e = b.edges[eid]
    u = e.top_colour
    if u == split:
        return "locked" if _buddies(fstar, split, colours, rep_of, e, assigned_mask) is None else None
    if u in colours:
        y = fstar.hang[u][e.reps[u]]
        if y >= 0 and fstar.hang[u][rep_of[u]] == y:
            return "crossed"
    return None


class _Builder:
    """Signature state of one search branch, each fact kept once.  Edges
    and nodes are lists indexed by id, and a node holds its components (the
    processed one first) and their guess.  ``live`` holds, per pendant id
    ``node * 3 + tree`` as in ``fstar.attached``, the root edge at that
    pendant, or -1.  Clones share the edges, which never change, and copy
    the ``edges``, ``nodes`` and ``live`` lists and the ``top`` map; the
    search clones only for a guess that a later sibling guess follows.
    Components are named by their index in ``fstar.components``;
    ``attached`` aliases ``fstar.attached``.

    A *plan* for processing a component is ``(merged, absorbed, rep_of)``:
    the root edges its node merges, the buddies it absorbs, and per colour
    the tree node whose pendant a new parent edge of that colour represents.
    """

    def __init__(self, fstar: ExtendedAAF):
        self.fstar = fstar
        self.edges: List[SigEdge] = []
        self.top: Dict[int, int] = {}  # eid -> node that merged it
        self.nodes: List[Tuple[Tuple[int, ...], WiringGuess]] = []  # (components, guess)
        self.live: List[int] = [-1] * (3 * max(t.n_nodes for t in fstar.trees))
        self.assigned_mask = 0
        self.attached = fstar.attached

    def clone(self) -> "_Builder":
        out = _Builder.__new__(_Builder)
        out.fstar = self.fstar
        out.edges = self.edges.copy()
        out.top = self.top.copy()
        out.nodes = self.nodes.copy()
        out.live = self.live.copy()
        out.assigned_mask = self.assigned_mask
        out.attached = self.attached
        return out

    # -- freeness ----------------------------------------------------------

    def done(self) -> bool:
        return self.assigned_mask == (1 << len(self.fstar.components)) - 1

    def _inode_plan(self, x: int):
        """The plan for invisible node x, or None when the merge cannot
        belong to any CNET (a child edge still missing, wrong top colours,
        mismatched or non-invisible parents)."""
        p1, p2 = self.attached[x]
        eid1 = self.live[p1]
        eid2 = self.live[p2]
        if eid1 < 0 or eid2 < 0:
            return None
        fstar = self.fstar
        tree = fstar.components[x].tree
        e1, e2 = self.edges[eid1], self.edges[eid2]
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
        return (eid1, eid2), tuple(buddies), rep_of

    def _block_plan(self, x: int):
        """The plan for block x, or None while some pendant it must receive
        has no root edge yet or a root edge also branches off elsewhere."""
        eids = set()
        live = self.live
        for p in self.attached[x]:
            eid = live[p]
            if eid < 0:
                return None
            eids.add(eid)
        hang = self.fstar.hang
        for eid in eids:
            e = self.edges[eid]
            for s in e.colours:
                if hang[s][e.reps[s]] != x:
                    return None
        return tuple(sorted(eids)), (), self.fstar.rep[x]

    # -- processing ----------------------------------------------------------

    def _new_edge(self, colours, top_colour, reps, bottom):
        eid = len(self.edges)
        self.edges.append(SigEdge(bottom, colours, top_colour, reps))
        live = self.live
        for s, node in reps.items():
            live[node * 3 + s] = eid

    def apply(self, x: int, guess: WiringGuess, plan):
        """Merge x's child root edges into a fresh node, as its plan from
        _inode_plan or _block_plan says, and add the new parent edges of the
        guess.
        Returns the ids of the newly created root edges."""
        first_new = len(self.edges)
        merged, buddies, rep_of = plan
        xs = (x, *sorted(buddies))
        nid = len(self.nodes)
        self.nodes.append((xs, guess))
        live = self.live
        for eid in merged:
            self.top[eid] = nid
            for s, node in self.edges[eid].reps.items():
                live[node * 3 + s] = -1
        for y in xs:
            self.assigned_mask |= 1 << y
        for colours, split in guess.edges:
            self._new_edge(colours, split, {s: rep_of[s] for s in colours}, nid)
        return range(first_new, len(self.edges))

    def description(self) -> Description:
        """The guess of each assigned component, in component order."""
        comps = self.fstar.components
        return Description(self.fstar, tuple(
            (comps[y], g) for y, g in sorted((y, g) for xs, g in self.nodes for y in xs)))


# ---------------------------------------------------------------------------
# expansion of AAF components
# ---------------------------------------------------------------------------


def component_tree(fstar: ExtendedAAF, x: int) -> List[Tuple[int, Optional[int]]]:
    """The tree of block x, read off the first tree: the nodes of x's span
    that are its root, a taxon, or have two children in the span (a node
    with one is suppressed), in preorder, each with the nearest such node
    above it (None at the root)."""
    t0, own = fstar.trees[0], fstar.owner[0]
    out = []
    stack = [(fstar.rep[x][0], None)]
    while stack:
        v, above = stack.pop()
        inside = [c for c in t0.children[v] if own[c] == x]
        if above is None or len(inside) != 1:
            out.append((v, above))
            above = v
        stack.extend((c, above) for c in reversed(inside))
    return out


class _Expander:
    """Expansion of the complete signature of builder b, read from its
    ``edges``, ``top`` and ``nodes``.  The expansion's own edge state is two
    lists indexed by edge id, ``tail`` and ``head``: the signature's edges
    first, the edges it makes appended.  New nodes are numbered from
    ``len(b.nodes)`` and new edges carry all three colours.  ``log`` lists
    each block expanded, in order, with the number of fresh roots its child
    edges got (the root component without a tree) or, per component edge
    key, the child edges attached on that edge, top down."""

    def __init__(self, b: _Builder):
        self.fstar = b.fstar
        self.sig_edges = b.edges
        self.sig_nodes = b.nodes
        self.tail = [b.top[eid] for eid in range(len(b.edges))]
        self.head = [e.bottom for e in b.edges]
        self.n_nodes = len(b.nodes)
        # the child and parent edges of each signature node, in id order
        self.child_edges: List[List[int]] = [[] for _ in b.nodes]
        self.parent_edges: List[List[int]] = [[] for _ in b.nodes]
        for eid, (top, bottom) in enumerate(zip(self.tail, self.head)):
            self.child_edges[top].append(eid)
            self.parent_edges[bottom].append(eid)
        self.log: List[Tuple[Component, object]] = []
        self.labels: Dict[int, str] = {}
        self.dead_nodes: set = set()

    def new_node(self) -> int:
        self.n_nodes += 1
        return self.n_nodes - 1

    def new_edge(self, top, bottom) -> int:
        self.tail.append(top)
        self.head.append(bottom)
        return len(self.tail) - 1

    def topo_block_nodes(self) -> List[int]:
        order = topological_order(range(self.n_nodes), zip(self.tail, self.head))
        if order is None:
            raise InternalInconsistency("the signature has a directed cycle")
        # a node's processed component comes first, and a block is merged alone
        comps = self.fstar.components
        return [n for n in order if comps[self.sig_nodes[n][0][0]].kind == "block"]

    def _labels(self, key: int) -> list:
        return sorted(self.fstar.trees[0].labels_of(key))

    def _group_attachments(self, x: int, child_eids):
        groups: Dict[int, list] = {}
        for eid in child_eids:
            keys = set()
            for s, rep in self.sig_edges[eid].reps.items():
                keys.add(component_edge_key(self.fstar, x, s, self.fstar.trees[s].parent[rep]))
            if len(keys) != 1:
                return Rejection(
                    "BranchConflict",
                    (f"e{eid}",) + tuple(str(k) for k in sorted(map(self._labels, keys))))
            groups.setdefault(keys.pop(), []).append(eid)
        return groups

    def expand_block(self, nid: int, x: int):
        fstar = self.fstar
        c = fstar.components[x]
        block = c.block
        child_eids = self.child_edges[nid]

        if len(block) == 1 and not c.is_rho:
            (lbl,) = block
            self.labels[nid] = lbl
            if child_eids:
                raise InternalInconsistency("taxon leaf with child edges")
            return
        if c.is_rho and len(block) == 1:
            # no component tree: every child edge gets its own root
            for eid in child_eids:
                self.tail[eid] = self.new_node()
            self.dead_nodes.add(nid)
            self.log.append((c, len(child_eids)))
            return

        groups = self._group_attachments(x, child_eids)
        if isinstance(groups, Rejection):
            return groups

        # instantiate the component tree, all edges carrying all colours,
        # keyed by the block leaves below them, in the trees' bits
        t0 = fstar.trees[0]
        masks, mask = t0.masks(), fstar.mask[x]
        mapped: Dict[int, int] = {}
        edge_by_key: Dict[int, int] = {}
        for v, above in component_tree(fstar, x):
            mapped[v] = self.new_node()
            if not t0.children[v]:
                self.labels[mapped[v]] = t0.label[v]
            if above is not None:
                edge_by_key[masks[v] & mask] = self.new_edge(mapped[above], mapped[v])

        # re-route the block node's parent edges to the component root
        top_node = mapped[fstar.rep[x][0]]
        for eid in self.parent_edges[nid]:
            self.head[eid] = top_node
        self.dead_nodes.add(nid)

        orders = {}
        for key in sorted(groups, key=self._labels):
            eids = groups[key]
            order = self._attachment_order(eids)
            if isinstance(order, Rejection):
                return order
            if key not in edge_by_key:
                raise InternalInconsistency(f"no component edge with clade {self._labels(key)}")
            f_eid = edge_by_key[key]
            prev = self.tail[f_eid]
            for eid in order:
                z = self.new_node()
                self.new_edge(prev, z)
                self.tail[eid] = z
                prev = z
            # final segment reuses the original component edge
            self.tail[f_eid] = prev
            orders[key] = order
        self.log.append((c, orders))
        return None

    def _attachment_order(self, eids):
        """Topological order of the attachment-constraint DAG: an edge must be
        attached above every edge it sits above in some tree.  Edges that no
        tree orders go by their sorted (colour, pendant cluster) pairs, not
        by edge id, which follows the order the signature was built in."""
        above = set()  # (a, b): a is attached above b
        pendants = {e: [] for e in eids}
        for s in range(3):
            t = self.fstar.trees[s]
            coloured = [e for e in eids if s in self.sig_edges[e].colours]
            # the cluster of each attachment point; a proper ancestor has a
            # strictly larger one
            cl = {e: t.masks()[t.parent[self.sig_edges[e].reps[s]]] for e in coloured}
            for a in coloured:
                pendants[a].append((s, t.masks()[self.sig_edges[a].reps[s]]))
                for b in coloured:
                    if cl[a] != cl[b] and cl[a] & cl[b] == cl[b]:
                        above.add((a, b))
        node = {e: (tuple(pendants[e]), e) for e in eids}
        order = topological_order(node.values(), ((node[a], node[b]) for a, b in above))
        if order is None:
            return Rejection("CyclicAttachOrder", tuple(f"e{e}" for e in eids))
        return [e for _, e in order]

    def run(self):
        """Expand every block image, top down; the CNET, or the rejection
        when attachments conflict or cannot be ordered."""
        for nid in self.topo_block_nodes():
            result = self.expand_block(nid, self.sig_nodes[nid][0][0])
            if isinstance(result, Rejection):
                return result
        return self.to_cnet()

    def to_cnet(self) -> CNET:
        live = [n for n in range(self.n_nodes) if n not in self.dead_nodes]
        remap = {n: i for i, n in enumerate(live)}
        edges = [(remap[top], remap[bottom]) for top, bottom in zip(self.tail, self.head)]
        colours = [e.colours for e in self.sig_edges]
        colours += [ALL_COLOURS] * (len(edges) - len(colours))
        labels = {remap[n]: lbl for n, lbl in self.labels.items()}
        return CNET(len(live), edges, labels, colours)


def expand_components(b: _Builder):
    """Turn the complete signature of builder b into a CNET by expanding
    every block image, or reject when attachments conflict or cannot be
    ordered."""
    return _Expander(b).run()


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
    needs = [sum(1 << y for y in {fstar.owner[p % 3][p // 3] for p in pendants})
             for pendants in fstar.attached]
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
    and child colour union for invisible nodes, and the multi-edge guesses
    for blocks."""
    def options(guesses):
        return tuple((g, max(len(g.edges) - 1, 0),
                      tuple((split, tuple(sorted(colours)), split << 3 | sum(1 << s for s in colours))
                            for colours, split in g.edges))
                     for g in guesses)

    by_union: Dict[int, Dict[frozenset, tuple]] = {}
    for t in range(3):
        buckets: Dict[frozenset, List[WiringGuess]] = {}
        for g in enumerate_wiring_guesses(t):
            buckets.setdefault(g.colour_union(), []).append(g)
        by_union[t] = {union: options(gs) for union, gs in buckets.items()}
    # a deletion-forest component other than the root one must be cut off by
    # reticulation edges, so its image needs >= 2 parents
    return by_union, options(g for g in enumerate_wiring_guesses(None) if len(g.edges) >= 2)


def search_cnet(fstar: ExtendedAAF, max_hyb: int,
                clock: Optional[Callable[[], None]] = None):
    """Depth-first search over wiring guesses, sharing signature prefixes:
    ``(cnet, description)`` of the first network found, or None.  A complete
    signature's builder goes to expand_components as it is, and the
    description is made only once the expansion succeeds.

    Equivalent to running the replay ``oracles.reconstruct_cnet`` over
    ``oracles.enumerate_descriptions(fstar)`` and returning the first
    within-budget success, in the order of the search: descriptions ordered
    by their guesses taken in the order the search processes the components.
    Guesses of a component are only branched when the component becomes
    free, so rejected prefixes prune the whole guess subspace below them.
    The hybridization number of the final CNET is the sum over merged nodes
    of (parent edge count - 1), which is accumulated during the search and
    capped at max_hyb.  A guess with a new edge that edge_verdicts says is
    doomed is dropped before it is applied, so every apply makes a search
    node.

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
    failed, is skipped.  Both filters read only the component and its plan's
    pendant representatives, so each component's guesses are filtered once
    per search, per set of representatives, into a menu kept for the rest
    of the search.  Equivalent guesses have as many edges, so a guess the
    menu drops as a repeat could not have passed the budget where the first
    one failed it.  A guess with a new edge that strands an invisible
    node (strands_inode) is dropped before it is applied too: the node is
    locked with a failing buddy test, or it waits for a component that
    waits for it, as a live edge only its merger can take away or an empty
    pendant only an unassigned block can fill.  No later merge undoes any of
    the three, so the node is never assigned.

    A node copies its builder only for a branch that a later sibling
    follows.  It first lists the guesses it descends into, judging the
    budget and strands_inode on its unchanged builder; then it applies each
    of them but the last to a clone, and the last, like the root
    component's one guess, to its own builder, which it never reads again.
    So a node with m such guesses makes m - 1 clones, and each branch sees
    only the merges of its own path.  The clock callable, if given, is
    called once per search node; it stops the search by raising.
    """
    by_union, multi_block_options = _search_options()
    comps = fstar.components
    rho = next(x for x, c in enumerate(comps) if c.is_rho)
    # every unprocessed non-rho block adds a reticulation
    blocks_mask = sum(1 << x for x, c in enumerate(comps) if c.kind == "block" and not c.is_rho)
    # per edge of this search, keyed by its reps as digits in base `width`
    # above its 5-bit tag, which fixes the colours and so the digit count:
    # its class key (the key with the split bits of the tag cleared when the
    # split is read by nothing), or -1 when the edge is doomed; int keys keep
    # the memo (thousands of edges) small
    classes: Dict[int, int] = {}
    width = max(t.n_nodes for t in fstar.trees)
    # per component and its pendant representatives, the guesses it branches
    # on (menu); an invisible node's keyed by x and rep_of per colour (-1
    # when absent) as digits in base width + 1, a block's by ~x alone, since
    # its rep_of is always fstar.rep[x]
    menus: Dict[int, list] = {}
    # the scan order with, per component, its bit and whether it is an
    # invisible node
    scan = [(x, 1 << x, comps[x].kind == "inode") for x in _scan_order(fstar)]

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

    def menu(x: int, inode: bool, rep_of: dict) -> list:
        """The guesses branched on at component x with pendant
        representatives rep_of, in option order: those with no doomed new
        edge, one per tuple of class keys.  Built once per key."""
        if inode:
            key = x
            for s in range(3):
                key = key * (width + 1) + rep_of.get(s, -1) + 1
        else:
            key = ~x
        out = menus.get(key)
        if out is None:
            if inode:
                options = by_union[comps[x].tree].get(frozenset(rep_of), ())
            else:
                options = multi_block_options
            out, seen = [], set()
            for option in options:
                keys = class_keys(option[2], rep_of)
                if keys is not None and keys not in seen:
                    seen.add(keys)
                    out.append(option)
            menus[key] = out
        return out

    def dfs(builder: _Builder, cost: int):
        if clock is not None:
            clock()
        if builder.done():
            if len(builder.top) < len(builder.edges):
                return None
            cnet = expand_components(builder)
            if isinstance(cnet, Rejection):
                return None
            return cnet, builder.description()
        # the first free component of the scan
        assigned = builder.assigned_mask
        for x, bit, inode in scan:
            if not assigned & bit:
                plan = builder._inode_plan(x) if inode else builder._block_plan(x)
                if plan is not None:
                    break
        else:
            return None
        if x == rho:
            builder.apply(x, RHO_GUESS, plan)
            return dfs(builder, cost)
        merged, buddies, rep_of = plan
        room = max_hyb - cost - (blocks_mask & ~assigned & ~bit).bit_count()
        assigned_after = assigned | bit
        for y in buddies:
            assigned_after |= 1 << y
        # the viable guesses, judged on the unchanged builder
        viable = []
        for guess, added, edges in menu(x, inode, rep_of):
            if added > room:
                continue
            for split, colours, _ in edges:
                if strands_inode(builder, merged, assigned_after, split, colours, rep_of):
                    break
            else:
                viable.append((guess, added))
        last = len(viable) - 1
        for i, (guess, added) in enumerate(viable):
            # a later sibling still needs this builder as it is
            nxt = builder.clone() if i < last else builder
            nxt.apply(x, guess, plan)
            result = dfs(nxt, cost + added)
            if result is not None:
                return result
        return None

    return dfs(_Builder(fstar), 0)
