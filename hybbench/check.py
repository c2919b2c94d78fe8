"""Correctness checks that share no code with ``hybnet``.

Trees are handled as cluster sets: a rooted binary tree on the taxa is
determined by the set of leaf sets below its nodes, kept here as integer
bitmasks over the sorted taxa.  A network (the JSON dump ``hybnet`` writes)
displays a tree when some switching, one kept in-edge per reticulation,
leaves a subgraph whose non-empty leaf sets are exactly the tree's clusters.

The two-tree hybridization number is found by brute force over edge
deletions of the first tree, after two reductions that cannot raise it:
splitting at clusters common to both trees (the number is additive over
them), and cutting common chains down to three leaves.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple


# -- Newick --------------------------------------------------------------------


def parse_newick(text: str) -> Tuple[List[List[int]], Dict[int, str], int]:
    """Children lists, leaf labels and root of a Newick tree (lengths and
    inner labels dropped)."""
    kids: List[List[int]] = []
    label: Dict[int, str] = {}
    stack: List[int] = []
    root = None
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch == "(":
            v = len(kids)
            kids.append([])
            if stack:
                kids[stack[-1]].append(v)
            elif root is None:
                root = v
            else:
                raise ValueError("two trees in one expression")
            stack.append(v)
            i += 1
        elif ch == ")":
            if not stack:
                raise ValueError("unbalanced ')'")
            stack.pop()
            i += 1
        elif ch == ",":
            i += 1
        elif ch == ";":
            break
        elif ch == ":":
            i += 1
            while i < n and text[i] not in ",();":
                i += 1
        else:
            j = i
            while j < n and text[j] not in ",():; \t\r\n":
                j += 1
            name = text[i:j]
            after_group = text[:i].rstrip().endswith(")")
            i = j
            if after_group:
                continue  # inner node label
            v = len(kids)
            kids.append([])
            label[v] = name
            if stack:
                kids[stack[-1]].append(v)
            else:
                root = v
    if stack or root is None:
        raise ValueError("unbalanced Newick expression")
    return kids, label, root


def tree_clusters(text: str, bit: Dict[str, int]) -> FrozenSet[int]:
    """Cluster set of a Newick tree; unary nodes add no cluster."""
    kids, label, root = parse_newick(text)
    mask = [0] * len(kids)
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(kids[v])
    for v in reversed(order):
        mask[v] = bit[label[v]] if v in label else 0
        for c in kids[v]:
            mask[v] |= mask[c]
    return frozenset(mask)


def taxon_bits(text: str) -> Dict[str, int]:
    _, label, _ = parse_newick(text)
    return {x: 1 << i for i, x in enumerate(sorted(label.values()))}


# -- networks --------------------------------------------------------------------


class Net:
    """A network read from the JSON node/edge dump."""

    def __init__(self, text: str):
        data = json.loads(text)
        self.n = len(data["nodes"])
        self.label = {int(x["id"]): x["label"] for x in data["nodes"] if "label" in x}
        self.edges = [(int(e["from"]), int(e["to"])) for e in data["edges"]]
        self.kids: List[List[int]] = [[] for _ in range(self.n)]
        self.pars: List[List[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            self.kids[a].append(b)
            self.pars[b].append(a)

    def topological(self) -> Optional[List[int]]:
        indeg = [len(p) for p in self.pars]
        ready = [v for v in range(self.n) if indeg[v] == 0]
        out = []
        while ready:
            v = ready.pop()
            out.append(v)
            for c in self.kids[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return out if len(out) == self.n else None

    def reticulation_number(self) -> int:
        return sum(len(p) - 1 for p in self.pars if len(p) >= 2)

    def switchings(self, bit: Dict[str, int], order: List[int]):
        """Cluster set of the subgraph kept by each switching."""
        retics = [v for v in range(self.n) if len(self.pars[v]) >= 2]
        reverse = order[::-1]
        for choice in itertools.product(*(self.pars[r] for r in retics)):
            keep = dict(zip(retics, choice))
            mask = [0] * self.n
            for v in reverse:
                m = bit.get(self.label.get(v), 0)
                for c in self.kids[v]:
                    if keep.get(c, v) == v:
                        m |= mask[c]
                mask[v] = m
            yield frozenset(mask) - {0}

    def displays(self, clusters: FrozenSet[int], bit: Dict[str, int], order: List[int]) -> bool:
        return any(got == clusters for got in self.switchings(bit, order))


def check_network(net_text: str, k: int, trees: Sequence[str]) -> List[str]:
    """Problems found with a returned network: empty when it is acyclic,
    binary and single-rooted, has the taxa as leaves, has k reticulations and
    displays every input tree."""
    net = Net(net_text)
    order = net.topological()
    if order is None:
        return ["network has a directed cycle"]
    problems = []
    roots = [v for v in range(net.n) if not net.pars[v]]
    if len(roots) != 1 or len(net.kids[roots[0]]) != 1:
        problems.append(f"expected one root of outdegree 1, found roots {roots}")
    for v in range(net.n):
        if v in roots:
            continue
        shape = (len(net.pars[v]), len(net.kids[v]))
        if shape not in ((1, 0), (1, 2), (2, 1)):
            problems.append(f"node {v} has (indegree, outdegree) {shape}")
    bit = taxon_bits(trees[0])
    leaves = [v for v in range(net.n) if not net.kids[v]]
    names = [net.label.get(v) for v in leaves]
    if sorted(map(str, names)) != sorted(bit) or set(net.label) != set(leaves):
        problems.append("leaf labels differ from the taxa")
    if net.reticulation_number() != k:
        problems.append(f"edge list has {net.reticulation_number()} reticulations, k={k}")
    if problems:
        return problems
    for i, text in enumerate(trees):
        if not net.displays(tree_clusters(text, bit), bit, order):
            problems.append(f"tree {i + 1} is not displayed")
    return problems


def display_verdict(net_text: str, tree_text: str) -> bool:
    net = Net(net_text)
    bit = taxon_bits(tree_text)
    return net.displays(tree_clusters(tree_text, bit), bit, net.topological())


# -- two-tree hybridization number -------------------------------------------------


def _parent_map(clusters: Iterable[int]) -> Dict[int, int]:
    """Parent cluster of each cluster (the smallest one strictly above it)."""
    by_size = sorted(clusters, key=lambda c: bin(c).count("1"))
    parent = {}
    for i, c in enumerate(by_size):
        for d in by_size[i + 1:]:
            if d != c and c & d == c:
                parent[c] = d
                break
    return parent


def _restrict(clusters: Iterable[int], keep: int) -> FrozenSet[int]:
    return frozenset(c & keep for c in clusters) - {0}


def _bits(mask: int) -> List[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


def _cut_chains(c1: FrozenSet[int], c2: FrozenSet[int], leaves: int) -> int:
    """Leaf set left after cutting each common chain to its lowest three
    leaves.  A chain step goes from leaf a to leaf b when b is the sibling of
    a's parent in both trees."""
    def ups(clusters):
        parent = _parent_map(clusters)
        out = {}
        for a in _bits(leaves):
            p = parent.get(a)
            g = parent.get(p) if p is not None else None
            if g is not None and bin(g ^ p).count("1") == 1 and g ^ p in clusters:
                out[a] = g ^ p
        return out

    u1, u2 = ups(c1), ups(c2)
    step = {a: b for a, b in u1.items() if u2.get(a) == b}
    has_below = set(step.values())
    keep = leaves
    for start in step:
        if start in has_below:
            continue
        seq = [start]
        while seq[-1] in step and step[seq[-1]] not in seq:
            seq.append(step[seq[-1]])
        for extra in seq[3:]:
            keep &= ~extra
    return keep


def _brute_force(c1: FrozenSet[int], c2: FrozenSet[int], leaves: int, limit: int) -> Optional[int]:
    """Smallest number of edge deletions of the first tree giving an acyclic
    agreement forest of both (the root leaf rho attached above each root), or
    None when more than `limit` are needed."""
    rho = 1 << leaves.bit_length()
    full = leaves | rho
    t1 = frozenset(c1) | {rho, full}
    t2 = frozenset(c2) | {rho, full}
    sorted2 = sorted(t2, key=lambda c: bin(c).count("1"))
    sorted1 = sorted(t1, key=lambda c: bin(c).count("1"))
    edges = sorted(c for c in t1 if c != full)

    def lowest(sorted_clusters, block):
        return next(c for c in sorted_clusters if c & block == block)

    def acceptable(blocks):
        used = set()
        for b in blocks:
            if b & (b - 1) == 0:
                nodes = {b}
            else:
                if _restrict(t1, b) != _restrict(t2, b):
                    return False
                top = lowest(sorted2, b)
                nodes = {c for c in t2 if c & b and c & top == c}
            if used & nodes:
                return False
            used |= nodes
        # inheritance graph: A -> B when A's root lies strictly above B's
        succ = {b: set() for b in blocks}
        for order in (sorted1, sorted2):
            roots = {b: lowest(order, b) for b in blocks}
            for a in blocks:
                for b in blocks:
                    ra, rb = roots[a], roots[b]
                    if ra != rb and ra & rb == rb:
                        succ[a].add(b)
        state: Dict[int, int] = {}

        def cyclic(v):
            state[v] = 1
            for w in succ[v]:
                if state.get(w) == 1 or (w not in state and cyclic(w)):
                    return True
            state[v] = 2
            return False

        return not any(v not in state and cyclic(v) for v in blocks)

    for j in range(limit + 1):
        for cut in itertools.combinations(edges, j):
            blocks = []
            for top in (full,) + cut:
                block = top
                for c in cut:
                    if c != top and c & top == c:
                        block &= ~c
                if block:
                    blocks.append(block)
            if acceptable(blocks):
                return j
    return None


def pair_hybridization(text1: str, text2: str, limit: int) -> Optional[int]:
    """Hybridization number of two trees on the same taxa, or None when it
    exceeds `limit`."""
    bit = taxon_bits(text1)
    if taxon_bits(text2) != bit:
        raise ValueError("trees differ in taxa")
    c1, c2 = tree_clusters(text1, bit), tree_clusters(text2, bit)
    common = [c for c in c1 & c2 if c & (c - 1)]
    above = _parent_map(common)
    total = 0
    for top in common:
        maximal = [d for d in common if above.get(d) == top]
        leaves = top
        for d in maximal:
            leaves = (leaves & ~d) | (d & -d)
        p1, p2 = _restrict(c1, leaves), _restrict(c2, leaves)
        if p1 == p2:
            continue
        leaves = _cut_chains(p1, p2, leaves)
        h = _brute_force(_restrict(p1, leaves), _restrict(p2, leaves), leaves, limit - total)
        if h is None:
            return None
        total += h
    return total
