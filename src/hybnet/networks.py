"""Phylogenetic networks and canonical networks with embedded trees (CNETs).

A ``Network`` is the strict form: acyclic, binary, single root of outdegree
1, leaves bijectively labelled.  A ``CNET`` is the looser coloured DAG
produced by the reconstruction: it may have several roots, nodes that are
reticulation and split node at once, and reticulations of indegree above
two.  The induced network of a CNET is the Network obtained by the four
normalization steps in :func:`induce_network`.

No tree is built to compare shapes: a rooted tree is determined by its
clusters.  :func:`displays` walks the 2^k switchings of the reticulations
and, under each, ORs the leaf bits of t's mask index up the kept edges; the
switching displays t iff the nonzero node masks are t's clusters other than
its RHO root's.  Condition iv of :func:`validate_cnet` compares each
colour's image the same way.
"""

from __future__ import annotations

import heapq
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import (
    InputError,
    InvalidCNET,
    MissingSubstitution,
    TooManyReticulations,
    UnsupportedFormat,
)
from .forests import Forest, topological_order
from .trees import RHO, PhyloTree, TaxonMap, is_synthetic

DISPLAY_GUARD = 25


class Network:
    """Directed acyclic graph with labelled sinks; parallel edges allowed."""

    __slots__ = ("n_nodes", "edges", "label", "_children", "_parents")

    def __init__(self, n_nodes: int, edges: Sequence[Tuple[int, int]], label: Dict[int, str]):
        self.n_nodes = n_nodes
        self.edges = tuple(edges)
        self.label = dict(label)
        children: List[List[int]] = [[] for _ in range(n_nodes)]
        parents: List[List[int]] = [[] for _ in range(n_nodes)]
        for u, v in self.edges:
            children[u].append(v)
            parents[v].append(u)
        self._children = children
        self._parents = parents

    def children(self, v: int) -> List[int]:
        return self._children[v]

    def parents(self, v: int) -> List[int]:
        return self._parents[v]

    def indeg(self, v: int) -> int:
        return len(self._parents[v])

    def outdeg(self, v: int) -> int:
        return len(self._children[v])

    def roots(self) -> List[int]:
        return [v for v in range(self.n_nodes) if not self._parents[v]]

    def sinks(self) -> List[int]:
        return [v for v in range(self.n_nodes) if not self._children[v]]

    def reticulations(self) -> List[int]:
        return [v for v in range(self.n_nodes) if len(self._parents[v]) >= 2]

    def is_acyclic(self) -> bool:
        return self._topological() is not None

    def _topological(self) -> Optional[List[int]]:
        return topological_order(range(self.n_nodes), self.edges)

    def topological(self) -> List[int]:
        order = self._topological()
        if order is None:
            raise ValueError("graph has a directed cycle")
        return order

    def is_binary(self) -> bool:
        """A binary phylogenetic network: acyclic, a single root of outdegree
        1, every other node a leaf (1,0), a split node (1,2) or a
        reticulation (2,1), and the labels exactly on the sinks, each once."""
        roots = self.roots()
        if len(roots) != 1 or self.outdeg(roots[0]) != 1:
            return False
        for v in range(self.n_nodes):
            if v != roots[0] and (self.indeg(v), self.outdeg(v)) not in ((1, 0), (1, 2), (2, 1)):
                return False
        named = {v: lbl for v, lbl in self.label.items() if lbl is not None}
        if set(named) != set(self.sinks()) or len(set(named.values())) != len(named):
            return False
        return self.is_acyclic()


@dataclass(frozen=True)
class CnetEdge:
    eid: int
    tail: int
    head: int
    colours: frozenset  # nonempty subset of {0, 1, 2}


class CNET:
    """Coloured DAG; colour i marks the edges of the image of input tree i."""

    __slots__ = ("n_nodes", "edges", "label", "_children", "_parents")

    def __init__(self, n_nodes: int, edges: Sequence[CnetEdge], label: Dict[int, str]):
        self.n_nodes = n_nodes
        self.edges = tuple(edges)
        self.label = dict(label)
        children: List[List[CnetEdge]] = [[] for _ in range(n_nodes)]
        parents: List[List[CnetEdge]] = [[] for _ in range(n_nodes)]
        for e in self.edges:
            children[e.tail].append(e)
            parents[e.head].append(e)
        self._children = children
        self._parents = parents

    def child_edges(self, v: int) -> List[CnetEdge]:
        return self._children[v]

    def indeg(self, v: int) -> int:
        return len(self._parents[v])

    def outdeg(self, v: int) -> int:
        return len(self._children[v])

    def roots(self) -> List[int]:
        return [v for v in range(self.n_nodes) if not self._parents[v]]

    def sinks(self) -> List[int]:
        return [v for v in range(self.n_nodes) if not self._children[v]]

    def as_network(self) -> Network:
        return Network(self.n_nodes, [(e.tail, e.head) for e in self.edges], self.label)


# ---------------------------------------------------------------------------
# basic quantities
# ---------------------------------------------------------------------------


def hybridization_number(g) -> int:
    """Sum of (indegree - 1) over all nodes of indegree at least two."""
    return sum(g.indeg(v) - 1 for v in range(g.n_nodes) if g.indeg(v) >= 2)


# ---------------------------------------------------------------------------
# CNET validation
# ---------------------------------------------------------------------------


@dataclass
class CnetReport:
    violations: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, condition: str, detail: str) -> None:
        self.violations.append((condition, detail))

    def conditions(self) -> set:
        return {c for c, _ in self.violations}


def _image_matches(h: CNET, colour: int, t: PhyloTree) -> bool:
    """Whether the colour's edges form an image of t: one unary source (it
    stands for t's RHO root), in-degree at most 1, no label but at the sinks,
    the sinks labelled by t's taxa, each once, and below the source the
    clusters of t.  Needs h acyclic."""
    kept = [e for e in h.edges if colour in e.colours]
    tails = {e.tail for e in kept}
    heads = [e.head for e in kept]
    sources = tails.difference(heads)
    if len(sources) != 1 or len(set(heads)) != len(heads) or sum(e.tail in sources for e in kept) != 1:
        return False
    sinks = [v for v in heads if v not in tails]
    labels = [h.label.get(v) for v in sinks]
    taxa = t.leaf_labels() - {RHO}
    if len(labels) != len(taxa) or set(labels) != taxa:
        return False
    if any(h.label.get(v) is not None for v in tails - sources):
        return False
    net = h.as_network()
    dropped = {i for i, e in enumerate(h.edges) if colour not in e.colours}
    masks = _switch_to_tree(net, dropped, _bottom_up(net), {v: t.mask((h.label[v],)) for v in sinks})
    masks.discard(0)
    return masks == set(t.masks()) - {t.masks()[t.root]}


def _structural_violations(h: CNET) -> List[Tuple[str, str]]:
    """The conditions that need no input tree: i (acyclic), ii (roots
    unary), vi (colours nonempty) and vii (inner nodes binary)."""
    out = [] if h.as_network().is_acyclic() else [("i", "directed cycle present")]
    out += [("ii", f"root {r} has outdegree {h.outdeg(r)}") for r in h.roots() if h.outdeg(r) != 1]
    out += [("vi", f"edge {e.eid} has no colour") for e in h.edges if not e.colours]
    out += [("vii", f"node {v} has {h.outdeg(v)} children")
            for v in range(h.n_nodes) if h.indeg(v) > 0 and h.outdeg(v) not in (0, 2)]
    return out


def validate_cnet(h: CNET, ts: Sequence[PhyloTree]) -> CnetReport:
    """Check the eight structural conditions independently; every violation is
    reported with a witness."""
    report = CnetReport(_structural_violations(h))
    taxa = ts[0].leaf_labels() - {RHO}
    sink_labels = [h.label.get(v) for v in h.sinks()]
    if None in sink_labels or len(set(sink_labels)) != len(sink_labels) or set(sink_labels) != taxa:
        report.add("iii", f"sink labels {sorted(filter(None, sink_labels))} vs taxa {sorted(taxa)}")

    if "i" not in report.conditions():
        for i, t in enumerate(ts):
            if not _image_matches(h, i, t):
                report.add("iv", f"colour {i} subgraph is not an image of tree {i}")

    root_set = set(h.roots())
    for i in range(len(ts)):
        edges = [e for e in h.edges if i in e.colours]
        if edges and not any(e.tail in root_set for e in edges):
            report.add("v", f"image {i} touches no root")

    for v in range(h.n_nodes):
        kids = h.child_edges(v)
        if h.indeg(v) > 0 and len(kids) == 2:
            shared = kids[0].colours & kids[1].colours
            if not shared:
                report.add("viii", f"no image contains both child edges of node {v}")
    return report


# ---------------------------------------------------------------------------
# induced network
# ---------------------------------------------------------------------------


def induce_network(h: CNET) -> Network:
    """The hybridization network induced by a CNET: split retic+split nodes,
    refine high-indegree reticulations, merge roots, and lift multi-parent
    leaves.  Preserves the hybridization number."""
    violations = _structural_violations(h)
    if violations:
        raise InvalidCNET("; ".join(f"condition {c}: {detail}" for c, detail in violations))

    n = h.n_nodes  # a new node takes the id n, then n grows
    edges = [(e.tail, e.head) for e in h.edges]

    def parents(v):
        return [i for i, (a, b) in enumerate(edges) if b == v]

    def children(v):
        return [i for i, (a, b) in enumerate(edges) if a == v]

    # step 1: separate nodes that are reticulation and split node at once
    for v in range(n):
        pin, pout = parents(v), children(v)
        if len(pin) >= 2 and len(pout) >= 2:
            for i in pin:
                edges[i] = (edges[i][0], n)
            edges.append((n, v))
            n += 1

    # step 2: refine reticulations of indegree three or more
    for v in range(n):
        pin = sorted(parents(v))
        while len(pin) > 2:
            a, b = pin[0], pin[1]
            edges[a] = (edges[a][0], n)
            edges[b] = (edges[b][0], n)
            edges.append((n, v))
            n += 1
            pin = sorted(parents(v))

    # step 3: merge roots pairwise
    def roots():
        have_parent = {b for _, b in edges}
        return sorted(v for v in range(n) if v not in have_parent)

    rs = roots()
    while len(rs) > 1:
        r1, r2 = rs[0], rs[1]
        (ci,) = children(r1)
        edges[ci] = (r2, edges[ci][1])
        edges.append((r1, r2))
        rs = roots()

    # step 4: new node above any multi-parent leaf
    for v in range(n):
        if not children(v) and len(parents(v)) > 1:
            for i in parents(v):
                edges[i] = (edges[i][0], n)
            edges.append((n, v))
            n += 1

    return Network(n, edges, h.label)


# ---------------------------------------------------------------------------
# display check
# ---------------------------------------------------------------------------


def _bottom_up(n: Network) -> List[Tuple[int, int, int]]:
    """Every edge as (index, tail, head), tails in reverse topological order,
    so the edges out of a node come before the edges into it."""
    pos = {v: i for i, v in enumerate(n.topological())}
    return sorted(((i, u, v) for i, (u, v) in enumerate(n.edges)), key=lambda e: -pos[e[1]])


def _switch_to_tree(n: Network, dropped: set, bottom_up, leaf_bits: Dict[int, int]) -> set:
    """The displayed tree in cluster form: start each sink at its bit, OR
    the head of every edge not dropped (by index) into its tail, and return
    the set of node masks.  A node all of whose paths down are dropped gets
    0; every other mask is a cluster of the displayed tree."""
    mask = [0] * n.n_nodes
    for v, bit in leaf_bits.items():
        mask[v] = bit
    for i, u, v in bottom_up:
        if i not in dropped:
            mask[u] |= mask[v]
    return set(mask)


def displays(n: Network, t: PhyloTree) -> bool:
    """True iff some switching of the reticulations yields a tree isomorphic
    to t: its nonzero node masks, in t's bits, are t's clusters but the RHO
    root's.  Only for binary phylogenetic networks; 2^k enumeration."""
    if not n.is_binary():
        raise InputError("display check needs a binary phylogenetic network")
    retics = n.reticulations()
    if len(retics) > DISPLAY_GUARD:
        raise TooManyReticulations(f"{len(retics)} reticulations exceed the guard {DISPLAY_GUARD}")
    sinks = n.sinks()
    if {n.label[v] for v in sinks} | {RHO} != t.leaf_labels():
        return False
    leaf_bits = {v: t.mask((n.label[v],)) for v in sinks}
    target = set(t.masks()) - {t.masks()[t.root]}
    bottom_up = _bottom_up(n)
    in_edges = {r: [i for i, (u, v) in enumerate(n.edges) if v == r] for r in retics}
    for choice in itertools.product(*[in_edges[r] for r in retics]):
        chosen = set(choice)
        dropped = {i for r in retics for i in in_edges[r] if i not in chosen}
        masks = _switch_to_tree(n, dropped, bottom_up, leaf_bits)
        masks.discard(0)
        if masks == target:
            return True
    return False


# ---------------------------------------------------------------------------
# deletion forest
# ---------------------------------------------------------------------------


def deletion_forest(n: Network) -> Forest:
    """Delete every edge whose head is a reticulation; taxa partition of the
    remaining components (the network root stands for RHO).  A node that is
    neither a root nor a reticulation keeps its one in-edge, so a component is
    a tree, named here by its top node.  Raises InputError on a directed cycle."""
    order = n._topological()
    if order is None:
        raise InputError("the deletion forest needs an acyclic network")
    top = list(range(n.n_nodes))
    blocks: Dict[int, set] = {}
    for v in order:  # a kept parent comes first and knows its top
        if n.indeg(v) == 1:
            top[v] = top[n.parents(v)[0]]
        lbl = n.label.get(v)
        if lbl is None and n.indeg(v) == 0 and n.outdeg(v) > 0:
            lbl = RHO  # the network root stands for the rho leaf
        if lbl is not None:
            blocks.setdefault(top[v], set()).add(lbl)
    return Forest(blocks.values())


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

_DOT_COLOURS = {
    frozenset(): "black",
    frozenset({0}): "red",
    frozenset({1}): "green3",
    frozenset({2}): "blue",
    frozenset({0, 1}): "orange",
    frozenset({0, 2}): "purple",
    frozenset({1, 2}): "turquoise4",
    frozenset({0, 1, 2}): "gray30",
}


def _stable_order(g) -> List[int]:
    """The nodes in the order emit numbers them: a topological order that
    does not depend on node ids.  Each step takes, of the nodes whose
    parents are all placed, the one with the least sorted labels below it,
    then the least sorted positions of its parents; the node id breaks only
    ties between nodes that agree on both.  A graph with a directed cycle
    keeps id order."""
    net = g.as_network() if isinstance(g, CNET) else g
    order = net._topological()
    if order is None:
        return list(range(net.n_nodes))
    below: Dict[int, frozenset] = {}
    for v in reversed(order):
        here = frozenset((net.label[v],)) if net.label.get(v) is not None else frozenset()
        below[v] = here.union(*(below[c] for c in net.children(v)))
    labels = {v: tuple(sorted(s)) for v, s in below.items()}
    pos: Dict[int, int] = {}
    waiting = {v: net.indeg(v) for v in order}
    ready = [(labels[v], (), v) for v in order if not waiting[v]]
    heapq.heapify(ready)
    while ready:
        v = heapq.heappop(ready)[2]
        pos[v] = len(pos)
        for c in net.children(v):
            waiting[c] -= 1
            if not waiting[c]:
                parents = tuple(sorted(pos[u] for u in net.parents(c)))
                heapq.heappush(ready, (labels[c], parents, c))
    return list(pos)


def emit(g, fmt: str) -> str:
    """Serialize a Network or CNET: 'enewick', 'dot' or 'json'."""
    if fmt == "json":
        return _emit_json(g)
    if fmt == "dot":
        return _emit_dot(g)
    if fmt == "enewick":
        if isinstance(g, CNET):
            raise UnsupportedFormat("enewick requires a finalized network")
        return _emit_enewick(g)
    raise UnsupportedFormat(fmt)


def _edge_triples(g):
    if isinstance(g, CNET):
        return [(e.tail, e.head, sorted(f"T{c + 1}" for c in e.colours)) for e in g.edges]
    return [(u, v, None) for u, v in g.edges]


def _emit_json(g) -> str:
    order = _stable_order(g)
    pos = {v: i for i, v in enumerate(order)}
    nodes = []
    for v in order:
        item = {"id": pos[v]}
        if g.label.get(v) is not None:
            item["label"] = g.label[v]
        nodes.append(item)
    edges = []
    for u, v, colours in sorted(_edge_triples(g), key=lambda e: (pos[e[0]], pos[e[1]], str(e[2]))):
        item = {"from": pos[u], "to": pos[v]}
        if colours is not None:
            item["colours"] = colours
        edges.append(item)
    return json.dumps({"nodes": nodes, "edges": edges}, ensure_ascii=False, indent=2)


def network_from_json(text: str) -> Network:
    """The network of a JSON dump as :func:`emit` writes it.  Raises
    ``InputError`` unless the node ids are 0..n-1, each once, every edge
    endpoint is one of them, every label is a string, the graph has no
    directed cycle and every sink has a label."""
    data = json.loads(text)
    ids = [n["id"] for n in data["nodes"]]
    labels = {n["id"]: n["label"] for n in data["nodes"] if "label" in n}
    edges = [(e["from"], e["to"]) for e in data["edges"]]
    n = len(ids)
    if not all(type(v) is int for v in ids) or sorted(ids) != list(range(n)):
        raise InputError(f"node ids must be 0..{n - 1}, each once")
    if not all(type(v) is int and 0 <= v < n for e in edges for v in e):
        raise InputError(f"edge endpoints must be node ids 0..{n - 1}")
    if not all(isinstance(lbl, str) for lbl in labels.values()):
        raise InputError("node labels must be strings")
    net = Network(n, edges, labels)
    if not net.is_acyclic():
        raise InputError("the network has a directed cycle")
    unlabelled = [v for v in net.sinks() if v not in labels]
    if unlabelled:
        raise InputError(f"sink {unlabelled[0]} has no label")
    return net


def _emit_dot(g) -> str:
    order = _stable_order(g)
    pos = {v: i for i, v in enumerate(order)}
    lines = ["digraph hybnet {"]
    for v in order:
        lbl = g.label.get(v)
        shape = ' [label="%s"]' % lbl if lbl is not None else ' [shape=point]'
        lines.append(f"  n{pos[v]}{shape};")
    triples = sorted(_edge_triples(g), key=lambda e: (pos[e[0]], pos[e[1]], str(e[2])))
    for u, v, colours in triples:
        if colours is None:
            lines.append(f"  n{pos[u]} -> n{pos[v]};")
        else:
            cset = frozenset(int(c[1]) - 1 for c in colours)
            lines.append(f'  n{pos[u]} -> n{pos[v]} [color={_DOT_COLOURS[cset]} label="{"".join(colours)}"];')
    lines.append("}")
    return "\n".join(lines)


def _emit_enewick(n: Network) -> str:
    """eNewick with #Hi hybrid tags; the RHO root is left implicit.  A
    reticulation is written out at its first visit, depth first along the
    stored child lists; sibling texts are sorted."""
    if not n.is_binary():
        raise UnsupportedFormat("enewick output needs a binary single-root network")
    tag = {v: i + 1 for i, v in enumerate(sorted(n.reticulations()))}
    seen = set()
    texts: List[List[str]] = [[]]  # child texts of each open node, outermost first
    stack = [(n.children(n.roots()[0])[0], False)]
    while stack:
        v, done = stack.pop()
        if done:
            parts = sorted(texts.pop())
            if v in tag:
                text = f"({parts[0]})#H{tag[v]}" if parts and parts[0] else f"#H{tag[v]}"
            else:
                text = parts[0] if len(parts) == 1 else "(" + ",".join(parts) + ")"
            texts[-1].append(text)
        elif v in seen:
            texts[-1].append(f"#H{tag[v]}")
        elif v not in tag and n.outdeg(v) == 0:
            texts[-1].append(n.label[v])
        else:
            seen.add(v)  # only reticulations are reached twice
            texts.append([])
            stack.append((v, True))
            kids = n.children(v)[:1] if v in tag else n.children(v)
            stack.extend((c, False) for c in reversed(kids))
    return texts[0][0] + ";"


# ---------------------------------------------------------------------------
# conversions and reduction undo
# ---------------------------------------------------------------------------


def network_from_tree(t: PhyloTree) -> Network:
    """The tree itself as a (reticulation-free) network; the RHO leaf becomes
    the implicit root."""
    edges = [(t.parent[v], v) for v in range(t.n_nodes) if t.parent[v] is not None]
    label = {v: t.label[v] for v in range(t.n_nodes)
             if t.label[v] is not None and t.label[v] != RHO and not t.children[v]}
    return Network(t.n_nodes, edges, label)


def expand_map(n: Network, m: TaxonMap) -> Network:
    """Undo pendant-subtree reductions on a network: graft each recorded
    pendant tree in place of its synthetic sink.  The reduction records
    subtrees of an input tree, which holds no synthetic label, so one pass
    expands them all."""
    synth = {v: lbl for v, lbl in n.label.items() if is_synthetic(lbl)}
    if not synth:
        return n
    count = n.n_nodes
    edges = list(n.edges)
    label = {v: lbl for v, lbl in n.label.items() if v not in synth}
    for v, lbl in synth.items():
        src = m.substitutions.get(lbl)
        if src is None:
            raise MissingSubstitution(f"no pendant subtree recorded for {lbl!r}")
        ids = {src.root: v}
        for w in src.preorder():
            if w == src.root:
                continue
            ids[w] = count
            count += 1
            edges.append((ids[src.parent[w]], ids[w]))
            if src.label[w] is not None and not src.children[w]:
                label[ids[w]] = src.label[w]
        if src.n_nodes == 1:
            label[v] = src.label[src.root]
    return Network(count, edges, label)
