import itertools
import json

import networkx as nx
import pytest

from hybnet.errors import InputError, InvalidCNET, TooManyReticulations, UnsupportedFormat
from hybnet.forests import Forest, is_acyclic_agreement_forest
from hybnet.networks import (
    CNET,
    CnetEdge,
    Network,
    deletion_forest,
    displays,
    emit,
    hybridization_number,
    induce_network,
    network_from_json,
    network_from_tree,
    validate_cnet,
)
from hybnet.trees import RHO, common_pendant_subtree_reduction, expand_map, parse_newick

T1 = parse_newick("((a,b),c);")
T2 = parse_newick("((a,c),b);")
T3 = parse_newick("((b,c),a);")


def k1_network():
    """T1 plus one reticulation edge; displays T1 and T2 but not T3."""
    # 0 rho, 1 x, 2 y, 3 a, 4 b, 5 c, 6 tail, 7 head(retic)
    edges = [(0, 1), (1, 2), (2, 4), (1, 6), (6, 5), (2, 7), (7, 3), (6, 7)]
    return Network(8, edges, {3: "a", 4: "b", 5: "c"})


def tricoloured_tree_cnet(t):
    n = network_from_tree(t)
    edges = [CnetEdge(i, u, v, frozenset({0, 1, 2})) for i, (u, v) in enumerate(n.edges)]
    return CNET(n.n_nodes, edges, n.label)


def to_nx(n: Network) -> nx.MultiDiGraph:
    g = nx.MultiDiGraph()
    for v in range(n.n_nodes):
        g.add_node(v, label=n.label.get(v))
    g.add_edges_from(n.edges)
    return g


def nx_isomorphic(a: nx.MultiDiGraph, b: nx.MultiDiGraph) -> bool:
    nm = lambda x, y: x.get("label") == y.get("label")
    return nx.is_isomorphic(a, b, node_match=nm)


def ref_read_enewick(s: str) -> nx.MultiDiGraph:
    """Independent eNewick reader used as the round-trip oracle."""
    g = nx.MultiDiGraph()
    counter = itertools.count()
    hybrid = {}
    pos = 0

    def parse():
        nonlocal pos
        kids = []
        if s[pos] == "(":
            pos += 1
            kids.append(parse())
            while s[pos] == ",":
                pos += 1
                kids.append(parse())
            assert s[pos] == ")"
            pos += 1
        j = pos
        while s[j] not in "(),;":
            j += 1
        name = s[pos:j]
        pos = j
        if name.startswith("#H"):
            v = hybrid.setdefault(name, next(counter))
            g.add_node(v)
        else:
            v = next(counter)
            g.add_node(v, label=name or None)
        for k in kids:
            g.add_edge(v, k)
        return v

    top = parse()
    assert s[pos] == ";"
    root = next(counter)
    g.add_node(root)
    g.add_edge(root, top)
    return g


# ---------------------------------------------------------------------------
# hybridization number
# ---------------------------------------------------------------------------


def test_hybridization_number_tree_is_zero():
    assert hybridization_number(network_from_tree(T1)) == 0


def test_hybridization_number_indegree_three_counts_two():
    # sum of (indeg - 1) over reticulations
    n = Network(6, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (2, 5), (3, 5)], {4: "a", 5: "b"})
    assert n.indeg(4) == 2 and n.indeg(5) == 2
    m = Network(5, [(0, 1), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4)], {})
    assert m.indeg(4) == 3
    assert hybridization_number(m) == 2


def test_hybridization_number_three_reticulations():
    # three bubbles in series, each contributing one reticulation
    edges = []
    label = {}
    nid = itertools.count()
    rho = next(nid)
    prev = rho
    for i in range(3):
        s = next(nid)
        p = next(nid)
        q = next(nid)
        x = next(nid)
        y = next(nid)
        w = next(nid)
        edges += [(prev, s), (s, p), (s, q), (p, x), (q, y), (p, w), (q, w)]
        label[x] = f"x{i}"
        label[y] = f"y{i}"
        prev = w
    z = next(nid)
    edges.append((prev, z))
    label[z] = "z"
    n = Network(next(nid), edges, label)
    assert n.is_binary()
    assert hybridization_number(n) == 3


# ---------------------------------------------------------------------------
# displays
# ---------------------------------------------------------------------------


def test_tree_network_displays_itself():
    n = network_from_tree(T1)
    assert displays(n, T1)
    assert not displays(n, T2)


def test_k1_network_displays_both_switchings():
    n = k1_network()
    assert n.is_binary()
    assert displays(n, T1)
    assert displays(n, T2)
    assert not displays(n, T3)


def test_displays_guard():
    with pytest.raises(TooManyReticulations):
        displays(k1_network(), T1, guard=0)


def test_displays_requires_binary():
    bad = Network(3, [(0, 1), (0, 2)], {1: "a", 2: "b"})  # root outdeg 2
    with pytest.raises(InputError):
        displays(bad, T1)


def test_displays_matches_exhaustive_subgraph_oracle():
    """Switching enumeration equals the contraction-subgraph definition on a
    small instance: collect every displayed tree of the k=1 network."""
    n = k1_network()
    displayed = set()
    shapes = ["((a,b),c);", "((a,c),b);", "((b,c),a);"]
    for s in shapes:
        if displays(n, parse_newick(s)):
            displayed.add(s)
    assert displayed == {"((a,b),c);", "((a,c),b);"}


def ref_displays_subsets(n: Network, t) -> bool:
    """Independent display oracle: some edge subset forms a rooted subtree
    that prunes and suppresses to t."""
    import itertools as it

    from hybnet.trees import RHO, _TreeBuilder

    target = t.canonical()
    root = n.roots()[0]
    m = len(n.edges)
    for mask in range(1 << m):
        kids = {}
        indeg = {}
        ok = True
        for i in range(m):
            if mask >> i & 1:
                u, v = n.edges[i]
                kids.setdefault(u, []).append(v)
                indeg[v] = indeg.get(v, 0) + 1
                if indeg[v] > 1:
                    ok = False
                    break
        if not ok or root not in kids:
            continue

        b = _TreeBuilder()

        def build(v):
            sub = [s for s in (build(c) for c in kids.get(v, ())) if s is not None]
            if not sub:
                lbl = n.label.get(v)
                return None if lbl is None else b.add(label=lbl)
            if len(sub) == 1:
                return sub[0]
            node = b.add()
            for s in sub:
                b.attach(s, node)
            return node

        body = build(root)
        if body is None:
            continue
        top = b.add(label=RHO)
        b.attach(body, top)
        if b.freeze(top).canonical() == target:
            return True
    return False


def test_displays_agrees_with_subset_oracle_on_small_networks():
    import random as _random

    from hybnet.oracles import add_reticulation
    from hybnet.trees import random_tree

    rng = _random.Random(17)
    for trial in range(6):
        base = random_tree(["a", "b", "c", "d"][: rng.choice((3, 4))], rng)
        net = network_from_tree(base)
        for _ in range(rng.choice((1, 2))):
            options = [
                out
                for i in range(len(net.edges))
                for j in range(len(net.edges))
                if (out := add_reticulation(net, i, j)) is not None
            ]
            net = rng.choice(options)
        for _ in range(3):
            probe = random_tree(sorted(base.leaf_labels() - {"ρ"}), rng)
            assert displays(net, probe) == ref_displays_subsets(net, probe), trial


def test_deletion_forest_of_displaying_networks_is_aaf():
    """Any generated network displaying the three trees has a deletion forest
    that is an acyclic agreement forest with at most k+1 blocks."""
    import random as _random

    from hybnet.oracles import add_reticulation
    from hybnet.solver import gen_random

    rng = _random.Random(23)
    for seed in range(4):
        inst = gen_random(5, 1, seed=seed)
        net = network_from_tree(inst.trees[0])
        for _ in range(2):
            options = [
                out
                for i in range(len(net.edges))
                for j in range(len(net.edges))
                if (out := add_reticulation(net, i, j)) is not None
            ]
            net = rng.choice(options)
        if all(displays(net, t) for t in inst.trees):
            f = deletion_forest(net)
            assert len(f) <= hybridization_number(net) + 1
            assert is_acyclic_agreement_forest(f, inst.trees)
        # networks that display the trees found by the solver always qualify
        from hybnet.solver import solve

        s = solve(inst)
        f = deletion_forest(s.network)
        assert len(f) <= s.k + 1
        assert is_acyclic_agreement_forest(f, inst.trees)


# ---------------------------------------------------------------------------
# deletion forest
# ---------------------------------------------------------------------------


def test_deletion_forest_tree_single_block():
    f = deletion_forest(network_from_tree(T1))
    assert f.blocks == frozenset({frozenset({"a", "b", "c", RHO})})


def test_deletion_forest_k1():
    f = deletion_forest(k1_network())
    assert f.blocks == frozenset({frozenset({"a"}), frozenset({"b", "c", RHO})})
    assert len(f) <= 2  # at most k+1 blocks for k=1
    assert is_acyclic_agreement_forest(f, [T1, T2, T1])


# ---------------------------------------------------------------------------
# CNET validation and induction
# ---------------------------------------------------------------------------


def test_validate_tricoloured_tree_cnet_passes():
    h = tricoloured_tree_cnet(T1)
    report = validate_cnet(h, [T1, T1, T1])
    assert report.ok


def test_validate_detects_missing_colour():
    h = tricoloured_tree_cnet(T1)
    edges = list(h.edges)
    # strip all colours from one edge
    victim = edges[2]
    edges[2] = CnetEdge(victim.eid, victim.tail, victim.head, frozenset())
    broken = CNET(h.n_nodes, edges, h.label)
    report = validate_cnet(broken, [T1, T1, T1])
    conds = report.conditions()
    assert "vi" in conds and "iv" in conds


@pytest.mark.parametrize("edges, condition", [
    # 1 -> 2 -> 1 is a cycle
    ([(0, 1), (1, 2), (2, 1), (2, 3)], "condition i:"),
    # inner node 1 has one child
    ([(0, 1), (1, 2)], "condition vii:"),
])
def test_induce_rejects_a_structurally_invalid_cnet(edges, condition):
    n = max(map(max, edges)) + 1
    h = CNET(n, [CnetEdge(i, u, v, frozenset({0, 1, 2})) for i, (u, v) in enumerate(edges)],
             {n - 1: "a"})
    with pytest.raises(InvalidCNET, match=condition):
        induce_network(h)


def test_induce_identity_on_binary_cnet():
    h = tricoloured_tree_cnet(T1)
    net = induce_network(h)
    assert net.n_nodes == h.n_nodes
    assert sorted(net.edges) == sorted((e.tail, e.head) for e in h.edges)


def test_induce_splits_retic_split_node_and_merges_roots():
    # two roots feed a node that is both reticulation and split node
    edges = [
        CnetEdge(0, 0, 2, frozenset({0})),
        CnetEdge(1, 1, 2, frozenset({1, 2})),
        CnetEdge(2, 2, 3, frozenset({0, 1, 2})),
        CnetEdge(3, 2, 4, frozenset({0, 1, 2})),
    ]
    h = CNET(5, edges, {3: "a", 4: "b"})
    assert hybridization_number(h) == 1
    net = induce_network(h)
    assert net.is_binary()
    assert len(net.roots()) == 1
    assert hybridization_number(net) == 1
    degs = sorted((net.indeg(v), net.outdeg(v)) for v in range(net.n_nodes))
    assert (2, 1) in degs  # x_t
    assert displays(net, parse_newick("(a,b);"))


def test_induce_refines_indegree_three():
    # three roots feeding one leaf: a reticulation of indegree three
    edges = [
        CnetEdge(0, 0, 3, frozenset({0})),
        CnetEdge(1, 1, 3, frozenset({1})),
        CnetEdge(2, 2, 3, frozenset({2})),
    ]
    h = CNET(4, edges, {3: "a"})
    assert hybridization_number(h) == 2
    net = induce_network(h)
    assert hybridization_number(net) == 2
    assert all(net.indeg(v) <= 2 for v in range(net.n_nodes))
    assert net.is_binary()


# ---------------------------------------------------------------------------
# emit
# ---------------------------------------------------------------------------


def test_emit_json_roundtrip():
    n = k1_network()
    text = emit(n, "json")
    back = network_from_json(text)
    assert nx_isomorphic(to_nx(n), to_nx(back))
    # stable: emitting twice gives identical bytes
    assert text == emit(n, "json")


def test_emit_dot_counts():
    n = k1_network()
    dot = emit(n, "dot")
    assert dot.count(" -> ") == len(n.edges)
    assert dot.count(";") >= n.n_nodes + len(n.edges)
    h = tricoloured_tree_cnet(T1)
    dotc = emit(h, "dot")
    assert dotc.count("label=\"T1T2T3\"") == len(h.edges)


def test_emit_enewick_reparse_equals_same_dag():
    for n in (network_from_tree(T1), k1_network()):
        text = emit(n, "enewick")
        g = ref_read_enewick(text)
        assert nx_isomorphic(g, to_nx(n))


def test_emit_unknown_format():
    with pytest.raises(UnsupportedFormat):
        emit(k1_network(), "xml")


# ---------------------------------------------------------------------------
# reduction undo on networks
# ---------------------------------------------------------------------------


def test_expand_map_on_network():
    trees = [parse_newick("(((a,b),c),d);"), parse_newick("(((a,b),d),c);"),
             parse_newick("((c,d),(a,b));")]
    reduced, mapping = common_pendant_subtree_reduction(trees)
    net = network_from_tree(reduced[0])
    expanded = expand_map(net, mapping)
    assert nx_isomorphic(to_nx(expanded), to_nx(network_from_tree(trees[0])))
