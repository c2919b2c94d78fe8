import itertools
import random

import networkx as nx
import pytest

from hybnet.forests import (
    Forest,
    _bits,
    _root_of,
    conflicting_triple,
    inheritance_graph,
    is_acyclic_agreement_forest,
    is_agreement_forest,
    is_forest_for,
    restrictions_agree,
    spanning_nodes,
    spanning_root,
    spans_meet,
    topological_order,
    triple_conflicts,
)
from hybnet.trees import RHO, parse_newick, random_tree, restrict


def nx_spanning_nodes(t, block):
    g = nx.Graph((t.parent[v], v) for v in range(t.n_nodes) if t.parent[v] is not None)
    g.add_nodes_from(range(t.n_nodes))
    nodes = [t.node(x) for x in block]
    keep = set()
    for a, b in itertools.combinations_with_replacement(nodes, 2):
        keep.update(nx.shortest_path(g, a, b))
    return keep


def ref_is_forest_for(t, blocks):
    sets = [nx_spanning_nodes(t, b) for b in blocks]
    return all(not (sets[i] & sets[j]) for i, j in itertools.combinations(range(len(sets)), 2))


TRIPLET = parse_newick("((a,b),c);")


def test_forests_are_equal_by_blocks_whatever_the_order_and_iterables():
    a = Forest([{"a", "b"}, {"c", RHO}])
    same = [
        Forest([[RHO, "c"], ("b", "a")]),
        Forest((frozenset({"c", RHO}), iter("ab"))),
        Forest(x for x in ({"b", "a"}, [RHO, "c"])),
    ]
    for b in same:
        assert a == b and hash(a) == hash(b)
    assert len({a, *same}) == 1
    assert a != Forest([{"a"}, {"b"}, {"c", RHO}])
    assert a != a.blocks  # a forest is not its frozenset of blocks


def test_a_forest_with_an_empty_block_is_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        Forest([["a"], []])


def test_single_block_is_forest():
    f = Forest([TRIPLET.leaf_labels()])
    assert is_forest_for(f, TRIPLET)


def test_disjoint_blocks_on_triplet():
    f = Forest([{"a", "b"}, {"c", RHO}])
    assert is_forest_for(f, TRIPLET)
    assert ref_is_forest_for(TRIPLET, [{"a", "b"}, {"c", RHO}])


def test_overlapping_spanning_subtrees_rejected():
    f = Forest([{"a", "c"}, {"b", RHO}])
    assert not is_forest_for(f, TRIPLET)
    assert not ref_is_forest_for(TRIPLET, [{"a", "c"}, {"b", RHO}])


def test_spanning_nodes_matches_networkx_oracle():
    rng = random.Random(2)
    for _ in range(80):
        n = rng.randrange(3, 9)
        labels = [f"x{i}" for i in range(n)]
        rng.shuffle(labels)
        items = list(labels)
        while len(items) > 1:
            i = rng.randrange(len(items) - 1)
            items[i] = f"({items[i]},{items.pop(i + 1)})"
        t = parse_newick(items[0] + ";")
        pool = sorted(t.leaf_labels())
        block = rng.sample(pool, rng.randrange(1, n + 1))
        assert set(spanning_nodes(t, block)) == nx_spanning_nodes(t, block)
        r = spanning_root(t, block)
        assert t.masks()[r] & t.mask(block) == t.mask(block)


def test_agreement_identical_trees_single_block():
    ts = [TRIPLET] * 3
    assert is_agreement_forest(Forest([TRIPLET.leaf_labels()]), ts)


def test_agreement_all_singletons_always():
    t1 = parse_newick("((a,b),(c,d));")
    t2 = parse_newick("((a,c),(b,d));")
    t3 = parse_newick("((a,d),(b,c));")
    f = Forest([x] for x in t1.leaf_labels())
    assert is_agreement_forest(f, [t1, t2, t3])


def test_agreement_fails_when_restrictions_differ():
    t1 = parse_newick("(((a,b),c),d);")
    t2 = parse_newick("(((a,c),b),d);")  # b and c swapped
    f = Forest([{"a", "b", "c"}, {"d", RHO}])
    assert restrict(t1, {"a", "b", "c"}).canonical() != restrict(t2, {"a", "b", "c"}).canonical()
    assert not is_agreement_forest(f, [t1, t2, t1])


def test_inheritance_graph_single_block_no_edges():
    f = Forest([TRIPLET.leaf_labels()])
    ig = inheritance_graph(f, [TRIPLET] * 3)
    assert not ig.edges


def test_root_block_has_no_incoming_edges():
    t1 = parse_newick("((a,b),(c,d));")
    t2 = parse_newick("(((a,b),c),d);")
    f = Forest([{"a", "b"}, {"c", "d", RHO}])
    if is_agreement_forest(f, [t1, t2, t1]):
        ig = inheritance_graph(f, [t1, t2, t1])
        rho_block = next(b for b in f.blocks if RHO in b)
        assert all(b != rho_block for _, b in ig.edges)


def test_classic_cyclic_agreement_forest():
    # blocks {a,c} and {b,d} are an agreement forest of these two trees but
    # their inheritance graph has a 2-cycle
    t1 = parse_newick("((a,b),(c,d));")
    t2 = parse_newick("((c,b),(a,d));")
    f = Forest([{"a", "c"}, {"b", "d"}, {RHO}])
    ts = [t1, t2, t1]
    if is_agreement_forest(f, ts):
        ig = inheritance_graph(f, ts)
        ab = (frozenset({"a", "c"}), frozenset({"b", "d"}))
        ba = (ab[1], ab[0])
        assert ab in ig.edges and ba in ig.edges
        assert ig.has_cycle()
        assert not is_acyclic_agreement_forest(f, ts)


def test_cycle_detection_via_manual_check():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randrange(3, 7)
        labels = [f"x{i}" for i in range(n)]
        trees = []
        for _ in range(3):
            rng.shuffle(labels)
            items = list(labels)
            while len(items) > 1:
                i = rng.randrange(len(items) - 1)
                items[i] = f"({items[i]},{items.pop(i + 1)})"
            trees.append(parse_newick(items[0] + ";"))
        taxa = sorted(trees[0].leaf_labels())
        rng.shuffle(taxa)
        cut = rng.randrange(1, len(taxa))
        f = Forest([taxa[:cut], taxa[cut:]])
        if is_agreement_forest(f, trees):
            ig = inheritance_graph(f, trees)
            g = nx.DiGraph(list(ig.edges))
            g.add_nodes_from(ig.nodes)
            assert ig.has_cycle() == (not nx.is_directed_acyclic_graph(g))


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 8))
def test_singletons_always_acyclic_agreement_forest(seed, n):
    rng = random.Random(seed)
    trees = []
    for _ in range(3):
        labels = [f"x{i}" for i in range(n)]
        rng.shuffle(labels)
        items = list(labels)
        while len(items) > 1:
            i = rng.randrange(len(items) - 1)
            items[i] = f"({items[i]},{items.pop(i + 1)})"
        trees.append(parse_newick(items[0] + ";"))
    f = Forest([x] for x in trees[0].leaf_labels())
    assert is_acyclic_agreement_forest(f, trees) == (
        not inheritance_graph(f, trees).has_cycle()
    )
    assert is_agreement_forest(f, trees)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_topological_order_matches_networkx(data):
    """The least topological order, with parallel edges counted per copy; on
    a directed cycle (a self-loop included), None."""
    n = data.draw(st.integers(0, 8))
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=16)
                      if n else st.just([]))
    if data.draw(st.booleans()):  # orient the edges along a random ranking: a DAG
        rank = data.draw(st.permutations(range(n)))
        edges = [(a, b) if rank[a] < rank[b] else (b, a) for a, b in edges if a != b]
    g = nx.MultiDiGraph(edges)
    g.add_nodes_from(range(n))
    order = topological_order(range(n), edges)
    if nx.is_directed_acyclic_graph(g):
        assert order == list(nx.lexicographical_topological_sort(g))
    else:
        assert order is None


def ref_is_agreement_forest(f, ts):
    """The agreement test by restricting each tree to each block and
    comparing nested-tuple canonical forms."""
    if f.labels() != ts[0].leaf_labels():
        return False
    if not all(ref_is_forest_for(t, f.blocks) for t in ts):
        return False
    return all(len({restrict(t, b).canonical() for t in ts}) == 1
               for b in f.blocks if len(b) > 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 7))
def test_agreement_forest_matches_restriction_reference(seed, n):
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(n)]
    base = random_tree(labels, rng)
    # two of three trees agree, so blocks often have equal restrictions
    trees = [base, base, random_tree(labels, rng)]
    rng.shuffle(trees)
    everything = sorted(base.leaf_labels())
    for _ in range(10):
        blocks = {}
        for x in everything:
            blocks.setdefault(rng.randrange(rng.randint(1, 4)), set()).add(x)
        f = Forest(blocks.values())
        assert is_agreement_forest(f, trees) == ref_is_agreement_forest(f, trees)


def test_agreement_forest_false_when_tree_label_sets_differ():
    t1, t2 = parse_newick("((a,b),c);"), parse_newick("((a,b),d);")
    f = Forest([{"a", "b", "c", RHO}])
    assert not is_agreement_forest(f, [t1, t2])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 9))
def test_is_forest_for_matches_networkx_on_random_partitions(seed, n):
    """Random partitions, not only edge-cut ones, so non-forests are covered."""
    rng = random.Random(seed)
    t = random_tree([f"x{i}" for i in range(n)], rng)
    for _ in range(10):
        blocks = {}
        for x in sorted(t.leaf_labels()):
            blocks.setdefault(rng.randrange(rng.randint(1, n + 1)), set()).add(x)
        parts = list(blocks.values())
        assert is_forest_for(Forest(parts), t) == ref_is_forest_for(t, parts)


def ref_root_of(t, m):
    """The postorder scan: the first node whose cluster covers the mask."""
    masks = t.masks()
    return next(v for v in t.postorder() if masks[v] & m == m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 12), st.booleans())
def test_root_of_equals_postorder_scan(seed, n, with_rho):
    """Walking up from the leaf of the lowest bit finds the same spanning
    root as the postorder scan, on trees with and without the RHO root."""
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(n)]
    t = random_tree(labels, rng)
    if not with_rho:
        t = restrict(t, labels)
    every = sorted(t.leaf_labels())
    for _ in range(20):
        m = t.mask(rng.sample(every, rng.randint(1, len(every))))
        assert _root_of(t, m) == ref_root_of(t, m)


def ref_restrictions_agree(m, trees):
    """The set-equality form: every tree has the same set of intersections
    of its clusters with m."""
    return len({frozenset(m & x for x in t.masks()) for t in trees}) == 1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 9), st.booleans())
def test_restrictions_agree_superset_test_equals_set_equality(seed, n, with_rho):
    """Inclusion in the first tree's set of intersections is equality, on
    trees with and without the RHO root: two of the three trees are one
    tree, so restrictions often agree, and the odd one out takes every
    place."""
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(n)]
    base = random_tree(labels, rng)
    trees = [base, base, random_tree(labels, rng)]
    rng.shuffle(trees)
    if not with_rho:
        trees = [restrict(t, labels) for t in trees]
    tree_masks = [t.masks() for t in trees]
    every = sorted(trees[0].leaf_labels())
    for _ in range(20):
        m = trees[0].mask(rng.sample(every, rng.randint(1, len(every))))
        assert restrictions_agree(m, tree_masks) == ref_restrictions_agree(m, trees)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 9), st.booleans())
def test_spans_meet_is_the_pairwise_node_test(seed, n, with_rho):
    """Two blocks' spanning subtrees meet iff they share a node, and a
    partition is a forest iff no two of its blocks meet."""
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(n)]
    t = random_tree(labels, rng)
    if not with_rho:
        t = restrict(t, labels)
    for _ in range(10):
        blocks = {}
        for x in sorted(t.leaf_labels()):
            blocks.setdefault(rng.randrange(rng.randint(1, n + 1)), set()).add(x)
        parts = list(blocks.values())
        meets = [spans_meet(t, t.mask(a), t.mask(b)) for a, b in itertools.combinations(parts, 2)]
        assert meets == [bool(nx_spanning_nodes(t, a) & nx_spanning_nodes(t, b))
                         for a, b in itertools.combinations(parts, 2)]
        assert is_forest_for(Forest(parts), t) == (not any(meets))


def three_trees(rng, n, with_rho, distinct):
    """Three random trees on n taxa: `distinct` of them drawn apart and the
    rest copies of the first, in random places, with or without RHO."""
    labels = [f"x{i}" for i in range(n)]
    drawn = [random_tree(labels, rng) for _ in range(distinct)]
    trees = drawn + [drawn[0]] * (3 - distinct)
    rng.shuffle(trees)
    return [t if with_rho else restrict(t, labels) for t in trees]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 10), st.booleans(), st.integers(1, 3))
def test_every_triple_the_conflict_table_reports_is_bad(seed, n, with_rho, distinct):
    """For each pair of taxa, each taxon the table reports makes a triple
    whose restrictions differ; the table is symmetric, and the RHO root leaf
    is in no reported triple."""
    trees = three_trees(random.Random(seed), n, with_rho, distinct)
    tree_masks = [t.masks() for t in trees]
    table = triple_conflicts(trees)
    rho = trees[0].mask({RHO} & trees[0].leaf_labels())
    for i, j in itertools.combinations(range(len(table)), 2):
        assert table[i][j] == table[j][i]
        assert not table[i][j] & (rho | 1 << i | 1 << j)
        assert not (table[i][j] and (1 << i | 1 << j) & rho)
        for d in _bits(table[i][j]):
            assert not restrictions_agree(1 << i | 1 << j | 1 << d, tree_masks)
    assert not any(table[i][i] for i in range(len(table)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 10), st.booleans(), st.integers(1, 3))
def test_a_block_is_bad_exactly_when_it_holds_a_reported_triple(seed, n, with_rho, distinct):
    """On random blocks, restrictions differ exactly when some pair of the
    block has a reported taxon in the block; ``conflicting_triple`` returns
    one such triple, inside the block, and 0 for a block that agrees."""
    rng = random.Random(seed)
    trees = three_trees(rng, n, with_rho, distinct)
    tree_masks = [t.masks() for t in trees]
    table = triple_conflicts(trees)
    every = sorted(trees[0].leaf_labels())
    for _ in range(30):
        m = trees[0].mask(rng.sample(every, rng.randint(1, len(every))))
        holds = any(table[i][j] & m for i, j in itertools.combinations(_bits(m), 2))
        assert holds == (not restrictions_agree(m, tree_masks))
        w = conflicting_triple(table, m)
        assert w & m == w and bool(w) == holds
        if w:
            assert w.bit_count() == 3 and not restrictions_agree(w, tree_masks)
