"""Rooted binary leaf-labelled trees and the standard instance reductions.

The root of an instance tree is materialized as a leaf carrying the reserved
label ``RHO``: it has indegree 0 and outdegree 1.  Newick input never contains
that label; :func:`parse_newick` injects it.  Restrictions to label sets that
exclude ``RHO`` are ordinary rooted trees whose top node has two children, so
:class:`PhyloTree` does not force the root-leaf shape on every instance.

The reductions return plain values: a common chain is a tuple of taxa, and
the pendant-subtree reduction records each synthetic label's subtree in a
dict from label to tree.
"""

from __future__ import annotations

import collections
import heapq
from typing import Iterable, Sequence

from .errors import (
    DuplicateLabel,
    LabelMismatch,
    NewickSyntaxError,
    NonBinaryError,
    UnknownLabel,
)

RHO = "ρ"

SUBTREE_PREFIX = "__sub_"


def is_synthetic(label: str) -> bool:
    return label.startswith(SUBTREE_PREFIX)


class PhyloTree:
    """Immutable rooted tree with labelled leaves, nodes indexed 0..n-1."""

    __slots__ = ("parent", "children", "label", "root", "_by_label",
                 "_canon", "_post", "_masks", "_bit", "_names")

    def __init__(self, parent, children, label, root):
        self.parent = tuple(parent)
        self.children = tuple(tuple(c) for c in children)
        self.label = tuple(label)
        self.root = root
        by = {}
        for v, lbl in enumerate(self.label):
            if lbl is not None:
                if lbl in by:
                    raise DuplicateLabel(f"label {lbl!r} occurs twice")
                by[lbl] = v
        self._by_label = by
        self._canon = self._post = self._masks = self._bit = self._names = None

    # -- structure queries -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.parent)

    def leaf_labels(self) -> frozenset:
        return frozenset(self._by_label)

    def node(self, label: str) -> int:
        try:
            return self._by_label[label]
        except KeyError:
            raise UnknownLabel(f"no leaf labelled {label!r}") from None

    def postorder(self) -> tuple:
        """Children before parents, deterministic, iterative; cached."""
        if self._post is None:
            out, stack = [], [self.root]
            while stack:
                v = stack.pop()
                out.append(v)
                stack.extend(self.children[v])
            out.reverse()
            self._post = tuple(out)
        return self._post

    def preorder(self) -> list[int]:
        out, stack = [], [self.root]
        while stack:
            v = stack.pop()
            out.append(v)
            stack.extend(reversed(self.children[v]))
        return out

    # -- leaf bitmasks -----------------------------------------------------

    def sorted_labels(self) -> tuple:
        """The labels in sorted order: label i owns bit i of every mask."""
        if self._names is None:
            self._names = tuple(sorted(self._by_label))
        return self._names

    def _bits(self) -> dict:
        if self._bit is None:
            self._bit = {lbl: i for i, lbl in enumerate(self.sorted_labels())}
        return self._bit

    def masks(self) -> tuple:
        """Per node, the labels at or below it as an int: bit i stands for
        the i-th label in sorted order, and a node's own label counts (so the
        RHO root has its own bit).  Trees on one label set share the bits, and
        a tree is determined by its set of masks."""
        if self._masks is None:
            bit = self._bits()
            out = [0] * self.n_nodes
            for v in self.postorder():
                lbl = self.label[v]
                m = 0 if lbl is None else 1 << bit[lbl]
                for c in self.children[v]:
                    m |= out[c]
                out[v] = m
            self._masks = tuple(out)
        return self._masks

    def mask(self, labels: Iterable[str]) -> int:
        """The bitmask of a label set, in the bits of :meth:`masks`."""
        bit = self._bits()
        try:
            return sum(1 << bit[lbl] for lbl in set(labels))
        except KeyError as exc:
            raise UnknownLabel(f"no leaf labelled {exc.args[0]!r}") from None

    def labels_of(self, mask: int) -> frozenset:
        """The label set whose bits are set in `mask`, one step per set bit;
        bits beyond the tree's labels are ignored."""
        names = self.sorted_labels()
        mask &= (1 << len(names)) - 1
        out = []
        while mask:
            low = mask & -mask
            out.append(names[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)

    # -- canonical form ----------------------------------------------------

    def canonical(self):
        """Nested-tuple canonical form: leaves encode as their label, internal
        nodes as the sorted tuple of child encodings."""
        if self._canon is None:
            enc = [None] * self.n_nodes
            for v in self.postorder():
                if not self.children[v]:
                    enc[v] = ("L", self.label[v])
                elif self.label[v] is not None:
                    # the RHO root carries a label and a child
                    enc[v] = ("R", self.label[v],
                              tuple(sorted(enc[c] for c in self.children[v])))
                else:
                    enc[v] = ("N", tuple(sorted(enc[c] for c in self.children[v])))
            self._canon = enc[self.root]
        return self._canon

    def check_instance_tree(self) -> None:
        """Assert the instance-tree shape: RHO root-leaf, all inner nodes binary."""
        if self.label[self.root] != RHO or len(self.children[self.root]) != 1:
            raise NonBinaryError("root must be the leaf labelled rho with one child")
        for v in range(self.n_nodes):
            if v != self.root and len(self.children[v]) not in (0, 2):
                raise NonBinaryError(f"node {v} has {len(self.children[v])} children")

    def __repr__(self):
        return f"PhyloTree({serialize(self)!r})"


# -- construction helpers ----------------------------------------------------


class _TreeBuilder:
    """Mutable scratch structure; `freeze` produces a PhyloTree with
    contiguous node ids."""

    def __init__(self):
        self.parent: list = []
        self.children: list = []
        self.label: list = []

    def add(self, label=None, parent=None) -> int:
        v = len(self.parent)
        self.parent.append(parent)
        self.children.append([])
        self.label.append(label)
        if parent is not None:
            self.children[parent].append(v)
        return v

    def attach(self, child: int, parent: int) -> None:
        self.parent[child] = parent
        self.children[parent].append(child)

    def freeze(self, root: int) -> PhyloTree:
        order, stack = [], [root]
        while stack:
            v = stack.pop()
            order.append(v)
            stack.extend(self.children[v])
        remap = {old: new for new, old in enumerate(order)}
        parent = [None if self.parent[v] is None or self.parent[v] not in remap
                  else remap[self.parent[v]] for v in order]
        children = [[remap[c] for c in self.children[v]] for v in order]
        label = [self.label[v] for v in order]
        parent[0] = None
        return PhyloTree(parent, children, label, 0)


def _suppress_unary(b: _TreeBuilder, root: int) -> int:
    """Remove indegree-1 outdegree-1 nodes in place; returns the new root."""
    while len(b.children[root]) == 1 and b.label[root] is None:
        root = b.children[root][0]
        b.parent[root] = None
    stack = list(b.children[root])
    while stack:
        v = stack.pop()
        while len(b.children[v]) == 1 and b.label[v] is None:
            child = b.children[v][0]
            p = b.parent[v]
            b.children[p][b.children[p].index(v)] = child
            b.parent[child] = p
            v = child
        stack.extend(b.children[v])
    return root


# -- Newick ------------------------------------------------------------------


def _tokenize_newick(text: str) -> list:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "(),;":
            tokens.append(ch)
            i += 1
        elif ch == ":":
            j = i + 1
            while j < n and text[j] not in "(),;:":
                j += 1
            # branch length: parsed and discarded
            try:
                float(text[i + 1:j].strip())
            except ValueError:
                raise NewickSyntaxError(f"bad branch length {text[i + 1:j]!r}")
            i = j
        else:
            j = i
            while j < n and text[j] not in "(),;:" and not text[j].isspace():
                j += 1
            tokens.append(("label", text[i:j]))
            i = j
    return tokens


def parse_newick(text: str) -> PhyloTree:
    """Parse a single rooted Newick expression into an instance tree.

    A fresh root leaf labelled RHO is attached above the outermost Newick
    node.  Unary nodes are suppressed, nodes with more than two children
    raise NonBinaryError, and internal labels are discarded.
    """
    tokens = _tokenize_newick(text)
    if not tokens or tokens[-1] != ";":
        raise NewickSyntaxError("expression must end with ';'")
    tokens = tokens[:-1]
    if ";" in tokens:
        raise NewickSyntaxError("more than one ';' in expression")
    if not tokens:
        raise NewickSyntaxError("empty expression")

    b = _TreeBuilder()
    rho = b.add(label=RHO)
    stack = [rho]  # open internal nodes; rho acts as the sentinel parent
    just_closed = None
    expect_item = True
    for tok in tokens:
        if tok == "(":
            if not expect_item:
                raise NewickSyntaxError("unexpected '('")
            v = b.add(parent=stack[-1])
            stack.append(v)
            expect_item = True
        elif tok == ")":
            if expect_item or len(stack) == 1:
                raise NewickSyntaxError("unexpected ')'")
            just_closed = stack.pop()
            if not b.children[just_closed]:
                raise NewickSyntaxError("empty group '()'")
        elif tok == ",":
            if expect_item:
                raise NewickSyntaxError("unexpected ','")
            if len(stack) == 1:
                raise NewickSyntaxError("',' outside any group")
            expect_item = True
        else:
            name = tok[1]
            if expect_item:
                if name == RHO or not name:
                    raise DuplicateLabel(f"label {name!r} is reserved")
                b.add(label=name, parent=stack[-1])
                expect_item = False
            else:
                # internal node label (support value etc.): discarded
                if just_closed is None:
                    raise NewickSyntaxError(f"unexpected label {name!r}")
                just_closed = None
    if len(stack) != 1 or expect_item:
        raise NewickSyntaxError("unbalanced parentheses")
    if len(b.children[rho]) != 1:
        raise NewickSyntaxError("expression must describe a single tree")

    for v in range(len(b.parent)):
        if len(b.children[v]) > 2:
            raise NonBinaryError(f"node with {len(b.children[v])} children")
    root = _suppress_unary(b, rho)
    if root != rho:
        raise NewickSyntaxError("degenerate expression")  # pragma: no cover
    tree = b.freeze(rho)
    if len(tree._by_label) < 2:
        raise NewickSyntaxError("tree needs at least one taxon")
    return tree


def serialize(t: PhyloTree) -> str:
    """Canonical Newick: children sorted by their canonical encoding; the RHO
    root leaf is omitted."""
    enc = [None] * t.n_nodes
    text = [None] * t.n_nodes
    for v in t.postorder():
        if not t.children[v]:
            enc[v] = ("L", t.label[v])
            text[v] = t.label[v]
        else:
            pairs = sorted((enc[c], text[c]) for c in t.children[v])
            enc[v] = ("N", tuple(p[0] for p in pairs))
            text[v] = "(" + ",".join(p[1] for p in pairs) + ")"
    top = t.root
    if t.label[top] == RHO and len(t.children[top]) == 1:
        top = t.children[top][0]
    return text[top] + ";"


# -- elementary operations ----------------------------------------------------


def restrict(t: PhyloTree, labels: Iterable[str]) -> PhyloTree:
    """T restricted to `labels`: minimal spanning subtree with degree-2 nodes
    suppressed.  The result keeps the RHO root leaf only if RHO is requested."""
    wanted = frozenset(labels)
    if not wanted:
        raise UnknownLabel("cannot restrict to an empty label set")
    missing = wanted - t.leaf_labels()
    if missing:
        raise UnknownLabel(f"labels not in tree: {sorted(missing)}")

    b = _TreeBuilder()
    built = [None] * t.n_nodes
    for v in t.postorder():
        if not t.children[v]:
            if t.label[v] in wanted:
                built[v] = b.add(label=t.label[v])
        else:
            kept = [built[c] for c in t.children[v] if built[c] is not None]
            if len(kept) == 1:
                built[v] = kept[0]
            elif len(kept) > 1:
                node = b.add()
                for c in kept:
                    b.attach(c, node)
                built[v] = node
    top = built[t.root]
    if t.children[t.root] and t.label[t.root] in wanted:
        # the root is itself a labelled leaf (RHO); keep it above the rest
        node = b.add(label=t.label[t.root])
        if top is not None:
            b.attach(top, node)
        top = node
    return b.freeze(top)


def isomorphic(t1: PhyloTree, t2: PhyloTree) -> bool:
    """Equal leaf-label sets and identical rooted topology under the
    leaf-label identification: equal sets of clusters."""
    return (t1.leaf_labels() == t2.leaf_labels()
            and set(t1.masks()) == set(t2.masks()))


# -- reductions ----------------------------------------------------------------


def _copy_into(b: _TreeBuilder, src: PhyloTree, src_root: int, parent: int) -> int:
    top = b.add(label=src.label[src_root], parent=parent)
    stack = [(src_root, top)]
    while stack:
        old, new = stack.pop()
        for c in src.children[old]:
            stack.append((c, b.add(label=src.label[c], parent=new)))
    return top


def _to_builder(t: PhyloTree):
    b = _TreeBuilder()
    b.parent = list(t.parent)
    b.children = [list(c) for c in t.children]
    b.label = list(t.label)
    return b


def _extract_subtree(t: PhyloTree, top: int) -> PhyloTree:
    b = _TreeBuilder()
    return b.freeze(_copy_into(b, t, top, None))


def common_pendant_subtree_reduction(ts: Sequence[PhyloTree]):
    """Collapse every maximal common pendant subtree on >= 2 taxa into a fresh
    synthetic leaf, in all trees.  Returns the reduced trees and the pendant
    subtree each synthetic label replaced, as a dict from label to tree, so
    that ``networks.expand_map`` can undo the reduction on a network.

    A node of the first tree is common when every tree has a node with the
    same cluster and the same child clusters, and all its children are
    common.  The maximal common non-root nodes without RHO are numbered by
    (-size, sorted labels) and replaced in one pass."""
    labels = ts[0].leaf_labels()
    for t in ts[1:]:
        if t.leaf_labels() != labels:
            raise LabelMismatch("trees must share one label set")
    t0, m0 = ts[0], ts[0].masks()
    index = [{m: v for v, m in enumerate(t.masks())} for t in ts]

    def kids(t, v):
        return {t.masks()[c] for c in t.children[v]}

    common = [False] * t0.n_nodes
    for v in t0.postorder():
        common[v] = all(common[c] for c in t0.children[v]) and all(
            m0[v] in idx and kids(t, idx[m0[v]]) == kids(t0, v) for t, idx in zip(ts, index))
    rho = t0.mask([RHO]) if RHO in labels else 0

    def collapsible(v):
        return t0.parent[v] is not None and common[v] and not m0[v] & rho

    tops = [v for v in range(t0.n_nodes) if collapsible(v) and not collapsible(t0.parent[v])]
    clades = {v: t0.labels_of(m0[v]) for v in tops}
    tops = sorted((v for v in tops if len(clades[v]) >= 2),
                  key=lambda v: (-len(clades[v]), sorted(clades[v])))
    mapping = {}
    if not tops:
        return tuple(ts), mapping
    builders = [_to_builder(t) for t in ts]
    for n, v in enumerate(tops):
        label = f"{SUBTREE_PREFIX}{n}"
        mapping[label] = _extract_subtree(t0, v)
        for b, idx in zip(builders, index):
            u = idx[m0[v]]
            b.children[u] = []
            b.label[u] = label
    return tuple(b.freeze(t.root) for b, t in zip(builders, ts)), mapping


def common_chains(ts: Sequence[PhyloTree]) -> list:
    """All maximal common chains, as a deterministic partition of the taxa.
    A chain is a tuple of taxa whose parents form a directed path in every
    tree (a cherry is allowed at the bottom).

    Above the bottom position only pure parent-path steps are allowed; the
    bottom pair may be a cherry in some trees and a path step in others.
    Taxa are bits of the shared mask index: with parent p and grandparent g,
    x has a leaf sibling (masks[p] ^ x) or a leaf one step up (masks[g] ^
    masks[p]) when that mask is one taxon.  Common cherries seed chains first,
    in label order, then the least taxon that no untaken taxon may sit right
    below."""
    names = ts[0].sorted_labels()
    if any(t.sorted_labels() != names for t in ts):
        raise LabelMismatch("trees must share one label set")
    rho = ts[0].mask({RHO} & set(names))

    def leaf(m):
        return m if m & (m - 1) == 0 and m != rho else 0

    sib, up, above = {}, {}, {}  # per taxon, what every tree has in common
    for t in ts:
        masks, parent = t.masks(), t.parent
        for v in t.postorder():
            p = parent[v]
            if not t.children[v] and p is not None:
                x, g = masks[v], parent[p]
                s = leaf(masks[p] ^ x)
                u = 0 if g is None else leaf(masks[g] ^ masks[p])
                sib[x] = s if sib.get(x, s) == s else 0
                up[x] = u if up.get(x, u) == u else 0
                # the taxa that may sit right above x at a chain's bottom
                above[x] = above.get(x, {s, u}) & {s, u}
    above = {x: sorted(a - {0}) for x, a in above.items()}
    # per taxon, how many untaken taxa may sit right below it
    below = collections.Counter(y for a in above.values() for y in a)
    ready = [x for x in sorted(sib) if not below[x]]  # sorted, so already a heap
    free, chains = sum(sib), []

    def take(x, y):
        """Take x, then y if nonzero, then the common leaves one step up in turn."""
        nonlocal free
        seq = []
        while x & free:
            seq.append(x)
            free ^= x
            for z in above[x]:
                below[z] -= 1
                if not below[z]:
                    heapq.heappush(ready, z)
            x, y = y or up[x], 0
        chains.append(tuple(names[b.bit_length() - 1] for b in seq))

    for x in sorted(sib):
        if x & free and sib[x] & free:
            take(x, sib[x])
    # no leftovers: along `above` parents rise except at sibling steps, so a cycle is a cherry
    while ready:
        x = heapq.heappop(ready)
        if x & free:
            take(x, next((y for y in above[x] if y & free), 0))
    chains.sort()
    return chains


def random_tree(labels: Sequence[str], rng) -> PhyloTree:
    """Uniform-ish random rooted binary tree over `labels`, plus the RHO root."""
    b = _TreeBuilder()
    rho = b.add(label=RHO)
    items = [b.add(label=x) for x in labels]
    rng.shuffle(items)
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        u = items.pop(i + 1)
        v = items[i]
        node = b.add()
        b.attach(u, node)
        b.attach(v, node)
        items[i] = node
    b.attach(items[0], rho)
    return b.freeze(rho)
