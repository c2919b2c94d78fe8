"""Seeded input generator for the benchmark.

Trees, rSPR moves, caterpillars and reticulation insertion are implemented
here from scratch, so that a change to ``hybnet`` cannot change the
workloads: the program only ever receives the Newick and JSON text built
below.

A tree is a dict ``{"root": id, "kids": {id: [ids]}, "label": {id: name}}``
whose root is the top inner node (the root edge stays implicit, as in
Newick).  A network is ``{"n": count, "edges": [(u, v)], "label": {id:
name}}`` whose node 0 is a root of outdegree one.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Sequence


# -- trees -------------------------------------------------------------------


def _parents(tree) -> Dict[int, int]:
    return {c: v for v, kids in tree["kids"].items() for c in kids}


def _nodes_below(tree, v) -> List[int]:
    out, stack = [], [v]
    while stack:
        x = stack.pop()
        out.append(x)
        stack.extend(tree["kids"].get(x, ()))
    return out


def random_tree(labels: Sequence[str], rng: random.Random):
    """Random rooted binary tree: each leaf in turn subdivides a uniformly
    chosen edge, the edge above the root included."""
    kids: Dict[int, List[int]] = {0: [], 1: []}
    label = {0: labels[0], 1: labels[1]}
    root = 2
    kids[root] = [0, 1]
    nxt = 3
    for name in labels[2:]:
        par = _parents({"kids": kids})
        edges = list(par) + [None]  # None: the edge above the root
        below = rng.choice(edges)
        leaf, mid = nxt, nxt + 1
        nxt += 2
        kids[leaf] = []
        label[leaf] = name
        if below is None:
            kids[mid] = [root, leaf]
            root = mid
        else:
            p = par[below]
            kids[p][kids[p].index(below)] = mid
            kids[mid] = [below, leaf]
    return {"root": root, "kids": kids, "label": label}


def caterpillar(labels: Sequence[str], rng: random.Random):
    """Caterpillar over the labels in a random order."""
    order = list(labels)
    rng.shuffle(order)
    kids: Dict[int, List[int]] = {}
    label = {}
    for i, name in enumerate(order):
        kids[i] = []
        label[i] = name
    top, nxt = 0, len(order)
    for i in range(1, len(order)):
        kids[nxt] = [top, i]
        top = nxt
        nxt += 1
    return {"root": top, "kids": kids, "label": label}


def copy_tree(tree):
    return {"root": tree["root"],
            "kids": {v: list(k) for v, k in tree["kids"].items()},
            "label": dict(tree["label"])}


def rspr(tree, rng: random.Random):
    """One rooted subtree-prune-and-regraft move that changes the tree."""
    while True:
        t = copy_tree(tree)
        par = _parents(t)
        v = rng.choice(sorted(par))
        u = par[v]
        s = next(c for c in t["kids"][u] if c != v)
        moved = set(_nodes_below(t, v))
        # prune: splice u out of the tree
        if u == t["root"]:
            t["root"] = s
        else:
            g = par[u]
            t["kids"][g][t["kids"][g].index(u)] = s
        t["kids"][u] = []
        par = _parents(t)
        targets = [w for w in _nodes_below(t, t["root"]) if w not in moved and w != s]
        if not targets:
            continue
        w = rng.choice(targets)
        if w == t["root"]:
            t["root"] = u
        else:
            p = par[w]
            t["kids"][p][t["kids"][p].index(w)] = u
        t["kids"][u] = [w, v]
        return t


def relabel(tree, names: Dict[str, str]):
    t = copy_tree(tree)
    t["label"] = {v: names[x] for v, x in t["label"].items()}
    return t


def newick(tree, rng: random.Random) -> str:
    """Newick text; the child order at every node is drawn from `rng`."""
    out: List[str] = []
    stack: list = [tree["root"]]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        kids = tree["kids"].get(item)
        if not kids:
            out.append(tree["label"][item])
            continue
        order = list(kids)
        rng.shuffle(order)
        stack.append(")")
        for i, c in enumerate(reversed(order)):
            if i:
                stack.append(",")
            stack.append(c)
        stack.append("(")
    return "".join(out) + ";"


# -- networks ----------------------------------------------------------------


def network_from_tree(tree):
    ids = {tree["root"]: 1}
    order = _nodes_below(tree, tree["root"])
    for v in order:
        ids.setdefault(v, len(ids) + 1)
    edges = [(0, 1)] + [(ids[v], ids[c]) for v in order for c in tree["kids"].get(v, ())]
    label = {ids[v]: x for v, x in tree["label"].items()}
    return {"n": len(ids) + 1, "edges": edges, "label": label}


def _reaches(edges, src: int, dst: int) -> bool:
    succ: Dict[int, List[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    seen, stack = {src}, [src]
    while stack:
        x = stack.pop()
        if x == dst:
            return True
        for y in succ.get(x, ()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return False


def add_reticulation(net, rng: random.Random):
    """Subdivide two distinct edges (a,b) and (c,d) by u and w and add the
    edge u->w, with w the new reticulation; redrawn until acyclic."""
    while True:
        i, j = rng.sample(range(len(net["edges"])), 2)
        (a, b), (c, d) = net["edges"][i], net["edges"][j]
        if _reaches(net["edges"], d, a):
            continue
        u, w = net["n"], net["n"] + 1
        edges = list(net["edges"])
        edges[i] = (a, u)
        edges[j] = (c, w)
        edges += [(u, b), (w, d), (u, w)]
        return {"n": net["n"] + 2, "edges": edges, "label": dict(net["label"])}


def reticulations(net) -> List[int]:
    indeg: Dict[int, int] = {}
    for _, b in net["edges"]:
        indeg[b] = indeg.get(b, 0) + 1
    return sorted(v for v, d in indeg.items() if d >= 2)


def displayed_tree(net, choice: Dict[int, int]):
    """The tree left when each reticulation keeps only the in-edge from the
    parent `choice[r]`: dead ends pruned, unary nodes suppressed."""
    retics = set(choice)
    kids: Dict[int, List[int]] = {}
    for a, b in net["edges"]:
        if b in retics and choice[b] != a:
            continue
        kids.setdefault(a, []).append(b)
    memo: Dict[int, object] = {}
    order = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(kids.get(v, ()))
    out_kids: Dict[int, List[int]] = {}
    for v in reversed(order):
        if v in net["label"]:
            memo[v] = v
            out_kids[v] = []
            continue
        sub = [memo[c] for c in kids.get(v, ()) if memo.get(c) is not None]
        if not sub:
            memo[v] = None
        elif len(sub) == 1:
            memo[v] = sub[0]
        else:
            memo[v] = v
            out_kids[v] = sub
    top = memo[0]
    return {"root": top, "kids": out_kids,
            "label": {v: x for v, x in net["label"].items() if v in out_kids}}


def network_json(net) -> str:
    nodes = [{"id": v, **({"label": net["label"][v]} if v in net["label"] else {})}
             for v in range(net["n"])]
    edges = [{"from": a, "to": b} for a, b in net["edges"]]
    return json.dumps({"nodes": nodes, "edges": edges})
