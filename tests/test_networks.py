import itertools
import json
import random

import networkx as nx
import pytest

import hybnet.networks as networks
from hybnet.errors import InputError, InvalidCNET, TooManyReticulations, UnsupportedFormat
from hybnet.forests import Forest, is_acyclic_agreement_forest
from hybnet.networks import (
    CNET,
    CnetEdge,
    Network,
    deletion_forest,
    displays,
    emit,
    expand_map,
    hybridization_number,
    induce_network,
    network_from_json,
    network_from_tree,
    validate_cnet,
)
from hybnet.solver import gen_random, solve
from hybnet.trees import RHO, common_pendant_subtree_reduction, parse_newick

T1 = parse_newick("((a,b),c);")
T2 = parse_newick("((a,c),b);")
T3 = parse_newick("((b,c),a);")
AB = parse_newick("(a,b);")


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


def test_displays_guard(monkeypatch):
    monkeypatch.setattr(networks, "DISPLAY_GUARD", 0)
    with pytest.raises(TooManyReticulations):
        displays(k1_network(), T1)


@pytest.mark.parametrize("bad, t", [
    (Network(3, [(0, 1), (0, 2)], {1: "a", 2: "b"}), T1),
    # degrees pass, but 2 -> 3 -> 2 is a cycle
    (Network(6, [(0, 1), (1, 2), (1, 5), (2, 3), (3, 2), (3, 4)], {4: "a", 5: "b"}), AB),
    # a tree with one extra unlabelled leaf
    (Network(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)], {2: "a", 4: "b"}), AB),
    # a labelled inner node
    (Network(4, [(0, 1), (1, 2), (1, 3)], {1: "c", 2: "a", 3: "b"}), AB),
    # two sinks labelled a
    (Network(4, [(0, 1), (1, 2), (1, 3)], {2: "a", 3: "a"}), AB),
], ids=["root-outdegree-2", "cycle", "unlabelled-leaf", "labelled-inner-node", "duplicate-label"])
def test_displays_requires_binary(bad, t):
    assert not bad.is_binary()
    with pytest.raises(InputError):
        displays(bad, t)


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


def ref_switch_to_tree(n: Network, dropped: set):
    """The display check's former tree build, kept as its reference: drop
    the given edge indices, prune unlabelled dangling parts, suppress, and
    return the displayed tree (RHO at the root)."""
    from hybnet.trees import _TreeBuilder

    root = n.roots()[0]
    kids = [[] for _ in range(n.n_nodes)]
    for i, (u, v) in enumerate(n.edges):
        if i not in dropped:
            kids[u].append(v)
    b = _TreeBuilder()
    result = {}
    stack = [(root, False)]
    while stack:
        v, done = stack.pop()
        if done:
            sub = [result[c] for c in kids[v] if result[c] is not None]
            if not sub:
                result[v] = None
            elif len(sub) == 1:
                result[v] = sub[0]
            else:
                node = b.add()
                for x in sub:
                    b.attach(x, node)
                result[v] = node
        elif not kids[v]:
            lbl = n.label.get(v)
            result[v] = None if lbl is None else b.add(label=lbl)
        else:
            stack.append((v, True))
            stack.extend((c, False) for c in kids[v])
    if result[root] is None:
        return None
    top = b.add(label=RHO)
    b.attach(result[root], top)
    return b.freeze(top)


def ref_displays(n: Network, t) -> bool:
    """The former display check: a tree per switching, compared with t."""
    from hybnet.trees import isomorphic

    retics = n.reticulations()
    in_edges = {r: [i for i, (u, v) in enumerate(n.edges) if v == r] for r in retics}
    for choice in itertools.product(*[in_edges[r] for r in retics]):
        dropped = {i for r in retics for i in in_edges[r] if i not in choice}
        got = ref_switch_to_tree(n, dropped)
        if got is not None and isomorphic(got, t):
            return True
    return False


def random_network(rng, n_taxa: int, k: int):
    """A random tree on n_taxa taxa with k random reticulation edges added."""
    from hybnet.oracles import add_reticulation
    from hybnet.trees import random_tree

    net = network_from_tree(random_tree([f"x{i}" for i in range(n_taxa)], rng))
    while hybridization_number(net) < k:
        m = len(net.edges)
        net = add_reticulation(net, rng.randrange(m), rng.randrange(m)) or net
    return net


def test_displays_agrees_with_the_tree_building_check():
    """On seeded random binary networks (3-9 taxa, 0-6 reticulations, with
    parallel edges where a reticulation edge joins one edge's two halves),
    the cluster check agrees with building a tree per switching, for one
    tree the network displays and for one random tree."""
    import random as _random

    from hybnet.trees import random_tree

    rng = _random.Random(5)
    verdicts = []
    for _ in range(200):
        net = random_network(rng, rng.randint(3, 9), rng.randint(0, 6))
        taxa = sorted(net.label.values())
        retics = net.reticulations()
        keep = {i for i, (u, v) in enumerate(net.edges) if v not in retics}
        keep |= {rng.choice([i for i, (u, v) in enumerate(net.edges) if v == r]) for r in retics}
        shown = ref_switch_to_tree(net, set(range(len(net.edges))) - keep)
        for probe in (shown, random_tree(taxa, rng)):
            verdict = displays(net, probe)
            assert verdict == ref_displays(net, probe)
            verdicts.append(verdict)
    assert verdicts[::2] == [True] * 200 and False in verdicts[1::2]


def test_displays_with_a_parallel_pair_of_edges():
    # 1 -> 2 twice: node 2 is a reticulation whose two in-edges are
    # parallel; node 7 (above b) hangs below a or below c
    net = Network(10, [(0, 1), (1, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 6), (4, 7),
                       (5, 7), (5, 8), (7, 9)], {6: "a", 8: "c", 9: "b"})
    assert net.is_binary()
    for t, shown in ((T1, True), (T2, False), (T3, True)):
        assert displays(net, t) == ref_displays(net, t) == shown


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


def test_deletion_forest_rejects_a_directed_cycle():
    # nodes 2 and 3 each keep their one in-edge, so no component top is reached
    with pytest.raises(InputError):
        deletion_forest(Network(4, [(0, 1), (2, 3), (3, 2)], {1: "a"}))


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


def ref_image_tree(h: CNET, colour: int):
    """Condition iv's former tree build, kept as its reference: suppress the
    colour's edge subgraph to a tree, or None if it is not the image of a
    tree (wrong degrees, disconnected, several sources)."""
    from hybnet.trees import _suppress_unary, _TreeBuilder

    edges = [e for e in h.edges if colour in e.colours]
    if not edges:
        return None
    nodes = sorted({e.tail for e in edges} | {e.head for e in edges})
    kids = {v: [] for v in nodes}
    indeg = {v: 0 for v in nodes}
    for e in edges:
        kids[e.tail].append(e.head)
        indeg[e.head] += 1
    sources = [v for v in nodes if indeg[v] == 0]
    if len(sources) != 1 or any(d > 1 for d in indeg.values()) or len(edges) != len(nodes) - 1:
        return None
    b = _TreeBuilder()
    built = {sources[0]: b.add(label=RHO)}
    stack = [sources[0]]
    while stack:
        v = stack.pop()
        for c in kids[v]:
            built[c] = b.add(label=h.label.get(c), parent=built[v])
            stack.append(c)
    if any(not kids[v] and h.label.get(v) is None for v in nodes):
        return None  # unlabelled sink inside the image
    return b.freeze(_suppress_unary(b, built[sources[0]]))


def ref_conditions(h: CNET, ts) -> set:
    """validate_cnet's conditions with condition iv decided by building each
    colour's image tree, as before."""
    from hybnet.trees import isomorphic

    conds = validate_cnet(h, ts).conditions() - {"iv"}
    if "i" not in conds:
        for i, t in enumerate(ts):
            img = ref_image_tree(h, i)
            if img is None or not isomorphic(img, t):
                conds.add("iv")
    return conds


def cnet_variants(h: CNET):
    """h, h with one colour dropped from or added to one edge, and h with the
    labels of two sinks swapped."""
    yield h
    for j, e in enumerate(h.edges):
        for c in range(3):
            edges = list(h.edges)
            edges[j] = CnetEdge(e.eid, e.tail, e.head, e.colours ^ {c})
            yield CNET(h.n_nodes, edges, h.label)
    for a, b in itertools.combinations(sorted(h.label)[:4], 2):
        label = dict(h.label)
        label[a], label[b] = label[b], label[a]
        yield CNET(h.n_nodes, h.edges, label)


def test_image_check_agrees_with_the_tree_building_check():
    """On CNETs the wiring search finds for small random instances, and on
    their mutations, validate_cnet reports the same conditions as with
    condition iv decided by building each colour's image tree."""
    from hybnet.aaf_search import enumerate_aafs
    from hybnet.extended_aaf import ExtendedAAF
    from hybnet.reconstruct import search_cnet
    from hybnet.solver import gen_random, solve

    cnets = []
    for n, moves, seed in ((4, 1, 0), (5, 1, 1), (5, 2, 2), (6, 2, 3), (6, 3, 4)):
        inst = gen_random(n, moves, seed)
        k = solve(inst).k
        for cand in itertools.islice(enumerate_aafs(inst.reduced, k), 3):
            found = search_cnet(ExtendedAAF(cand.forest, inst.reduced), max_hyb=k)
            if found is not None:
                cnets.append((found[0], inst.reduced))
    verdicts = []
    for h, ts in cnets:
        for variant in cnet_variants(h):
            got = validate_cnet(variant, ts).conditions()
            assert got == ref_conditions(variant, ts)
            verdicts.append("iv" in got)
    assert len(cnets) >= 5 and True in verdicts and False in verdicts


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


def _shuffled(n: Network, seed: int) -> Network:
    """The network n with its node ids and edge list permuted."""
    rng = random.Random(seed)
    ids = list(range(n.n_nodes))
    rng.shuffle(ids)
    edges = [(ids[u], ids[v]) for u, v in n.edges]
    rng.shuffle(edges)
    return Network(n.n_nodes, edges, {ids[v]: lbl for v, lbl in n.label.items()})


def test_emit_json_and_dot_do_not_depend_on_node_ids():
    """The same network serialises the same whatever order built it: the
    solved networks of a seeded batch, with node ids and edges shuffled,
    give the same JSON and DOT."""
    for args in ((6, 3, 1), (7, 3, 2), (7, 4, 5), (8, 3, 0)):
        net = solve(gen_random(*args)).network
        text, dot = emit(net, "json"), emit(net, "dot")
        for seed in range(4):
            other = _shuffled(net, seed)
            assert emit(other, "json") == text, args
            assert emit(other, "dot") == dot, args


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
