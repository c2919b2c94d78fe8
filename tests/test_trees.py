import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybnet.errors import (
    DuplicateLabel,
    LabelMismatch,
    MissingSubstitution,
    NewickSyntaxError,
    NonBinaryError,
    UnknownLabel,
)
from hybnet.networks import displays, expand_map, network_from_tree
from hybnet.oracles import is_chain_of
from hybnet.solver import Instance, gen_random, rspr
from hybnet.trees import (
    RHO,
    PhyloTree,
    common_chains,
    common_pendant_subtree_reduction,
    isomorphic,
    parse_newick,
    random_tree,
    restrict,
    serialize,
)


# ---------------------------------------------------------------------------
# independent reference machinery
# ---------------------------------------------------------------------------


def to_nx(t: PhyloTree) -> nx.Graph:
    g = nx.Graph()
    for v in range(t.n_nodes):
        g.add_node(v)
        if t.parent[v] is not None:
            g.add_edge(t.parent[v], v)
    return g


def ref_spanning_nodes(t: PhyloTree, labels):
    """Union of undirected paths between all pairs of the given leaves."""
    g = to_nx(t)
    nodes = [t.node(x) for x in labels]
    keep = set()
    for a, b in itertools.combinations_with_replacement(nodes, 2):
        keep.update(nx.shortest_path(g, a, b))
    return keep


def ref_restrict_shape(t: PhyloTree, labels):
    """Restriction computed independently: take the spanning subgraph and
    suppress degree-2 nodes (in the rooted sense), then encode canonically."""
    keep = ref_spanning_nodes(t, labels)

    def encode(v):
        kids = [c for c in t.children[v] if c in keep]
        if not kids:
            return ("L", t.label[v])
        enc = [encode(c) for c in kids]
        if t.label[v] is not None:
            return ("R", t.label[v], tuple(sorted(enc)))
        if len(enc) == 1:
            return enc[0]
        return ("N", tuple(sorted(enc)))

    top = next(v for v in t.preorder() if v in keep)
    return encode(top)


def all_topologies(labels):
    """Every rooted binary tree shape over the labels, as canonical forms."""
    labels = list(labels)
    if len(labels) == 1:
        return {("L", labels[0])}
    out = set()
    for i in range(1, len(labels)):
        for left in itertools.combinations(labels[1:], i - 1):
            left = (labels[0],) + left
            right = tuple(x for x in labels if x not in left)
            if not right:
                continue
            for l in all_topologies(left):
                for r in all_topologies(right):
                    out.add(("N", tuple(sorted((l, r)))))
    return out


def random_newick(rng, n):
    labels = [f"x{i}" for i in range(n)]
    rng.shuffle(labels)
    items = list(labels)
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        a = items.pop(i + 1)
        items[i] = f"({items[i]},{a})"
    return items[0] + ";"


# ---------------------------------------------------------------------------
# parse / serialize
# ---------------------------------------------------------------------------


def test_parse_basic_triplet():
    t = parse_newick("((a,b),c);")
    assert t.leaf_labels() == {"a", "b", "c", RHO}
    root = t.root
    assert t.label[root] == RHO and len(t.children[root]) == 1
    inner = t.children[root][0]
    assert {t.label[c] for c in t.children[inner] if not t.children[c]} == {"c"}


def test_parse_single_taxon_is_one_edge():
    t = parse_newick("(a);")
    assert t.leaf_labels() == {"a", RHO}
    assert t.n_nodes == 2


def test_parse_balanced_four_taxa_matches_reference_reader():
    text = "((a,b),(c,d));"
    t = parse_newick(text)
    # reference: the two cherries sit on opposite sides of the top split
    inner = t.children[t.root][0]
    sides = []
    for c in t.children[inner]:
        sides.append(frozenset(t.label[x] for x in t.children[c]))
    assert set(sides) == {frozenset("ab"), frozenset("cd")}
    assert serialize(t) == "((a,b),(c,d));"


def test_parse_discards_lengths_and_internal_labels():
    t1 = parse_newick("((a:1.5,b:0.2)90:1.0,c:3);")
    t2 = parse_newick("((a,b),c);")
    assert isomorphic(t1, t2)


@pytest.mark.parametrize(
    "bad",
    ["", ";", "((a,b);", "(a,b));", "(a,,b);", "(a,b)", "();", "(a,b);(c,d);"],
)
def test_parse_syntax_errors(bad):
    with pytest.raises(NewickSyntaxError):
        parse_newick(bad)


def test_parse_nonbinary_rejected():
    with pytest.raises(NonBinaryError):
        parse_newick("(a,b,c);")


def test_parse_duplicate_and_reserved_labels():
    with pytest.raises(DuplicateLabel):
        parse_newick("((a,b),a);")
    with pytest.raises(DuplicateLabel):
        parse_newick(f"((a,b),{RHO});")


def test_parse_serialize_roundtrip_random():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randrange(2, 51)
        text = random_newick(rng, n)
        t = parse_newick(text)
        again = parse_newick(serialize(t))
        assert isomorphic(t, again)


# ---------------------------------------------------------------------------
# restrict / isomorphic
# ---------------------------------------------------------------------------


def test_restrict_full_label_set_is_identity():
    t = parse_newick("((a,b),c);")
    assert isomorphic(restrict(t, t.leaf_labels()), t)


def test_restrict_forced_suppression():
    t = parse_newick("((a,b),c);")
    r = restrict(t, {"a", "c"})
    assert r.canonical() == ("N", (("L", "a"), ("L", "c")))
    r2 = restrict(t, {"a", "c", RHO})
    assert r2.canonical() == ("R", RHO, (("N", (("L", "a"), ("L", "c"))),))


def test_restrict_against_spanning_subtree_oracle():
    t = parse_newick("((a,b),(c,d));")
    assert restrict(t, {"a", "c", "d"}).canonical() == ref_restrict_shape(
        t, {"a", "c", "d"}
    )
    rng = random.Random(3)
    for _ in range(100):
        t = parse_newick(random_newick(rng, rng.randrange(3, 9)))
        pool = sorted(t.leaf_labels())
        labels = rng.sample(pool, rng.randrange(1, len(pool)))
        assert restrict(t, labels).canonical() == ref_restrict_shape(t, labels)


def test_restrict_unknown_label():
    t = parse_newick("((a,b),c);")
    with pytest.raises(UnknownLabel):
        restrict(t, {"a", "zz"})
    with pytest.raises(UnknownLabel):
        restrict(t, set())


def test_isomorphic_identity_and_child_order():
    t = parse_newick("((a,b),c);")
    assert isomorphic(t, t)
    assert isomorphic(parse_newick("((a,b),c);"), parse_newick("((b,a),c);"))


def test_isomorphic_distinguishes_all_three_topologies():
    shapes = ["((a,b),c);", "((a,c),b);", "((b,c),a);"]
    trees = [parse_newick(s) for s in shapes]
    assert len(all_topologies(["a", "b", "c"])) == 3
    for i, j in itertools.combinations(range(3), 2):
        assert not isomorphic(trees[i], trees[j])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 12))
def test_isomorphic_invariant_under_child_shuffle(seed, n):
    rng = random.Random(seed)
    t = parse_newick(random_newick(rng, n))
    # rebuild with shuffled child lists
    order = list(range(t.n_nodes))
    children = [list(c) for c in t.children]
    for c in children:
        rng.shuffle(c)
    t2 = PhyloTree(t.parent, children, t.label, t.root)
    assert isomorphic(t, t2)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.integers(2, 6), st.booleans())
def test_isomorphic_equals_canonical_comparison(seed, n, with_rho):
    """Cluster-set isomorphism agrees with the nested-tuple canonical form on
    random trees and on their restrictions with and without RHO."""
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(n)]
    a, b = random_tree(labels, rng), random_tree(labels, rng)
    keep = set(rng.sample(labels, rng.randint(1, n)))
    if with_rho:
        keep.add(RHO)
    ra, rb = restrict(a, keep), restrict(b, keep)
    other = restrict(a, keep ^ {RHO})
    for x, y in [(a, b), (ra, rb), (ra, other), (ra, a), (rb, b)]:
        assert isomorphic(x, y) == (x.canonical() == y.canonical())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 10))
def test_mask_is_shared_by_trees_on_one_label_set(seed, n):
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(n)]
    a, b = random_tree(labels, rng), random_tree(labels, rng)
    some = set(rng.sample(labels + [RHO], rng.randint(0, n + 1)))
    assert a.mask(some) == b.mask(some)
    assert a.labels_of(a.mask(some)) == some
    # the RHO root's own bit counts, so its mask covers every label
    assert a.masks()[a.root] == a.mask(a.leaf_labels())


def test_mask_bits_follow_sorted_labels():
    t = parse_newick("((d,c),(b,a));")
    assert t.mask({"a", "c"}) == 0b101
    assert t.mask({RHO}) == 1 << 4
    assert {t.labels_of(m) for m in t.masks()} == {
        frozenset(x) for x in ["a", "b", "c", "d", "ab", "cd", "abcd", ["a", "b", "c", "d", RHO]]}
    with pytest.raises(UnknownLabel):
        t.mask({"a", "zz"})



@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 12), st.booleans())
def test_labels_of_equals_label_scan(seed, n, with_rho):
    """Iterating the set bits gives the label set of the scan over every
    label, on random masks of trees with and without RHO."""
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(n)]
    t = random_tree(labels, rng)
    if not with_rho:
        t = restrict(t, labels)
    bits = {lbl: i for i, lbl in enumerate(sorted(t.leaf_labels()))}
    for _ in range(20):
        m = rng.getrandbits(len(bits))
        assert t.labels_of(m) == frozenset(lbl for lbl, i in bits.items() if m >> i & 1)

# ---------------------------------------------------------------------------
# common pendant subtree reduction
# ---------------------------------------------------------------------------


def ref_clades(t: PhyloTree):
    """Per node, the labels of the childless nodes below it, by walking down."""
    def below(v):
        if not t.children[v]:
            return frozenset({t.label[v]})
        return frozenset().union(*(below(c) for c in t.children[v]))

    return [below(v) for v in range(t.n_nodes)]


def ref_common_pendant_clades(trees):
    """All clades (>=2 taxa) pendant in every tree with identical shapes."""
    out = set()
    clades = [ref_clades(t) for t in trees]
    for v in range(trees[0].n_nodes):
        if trees[0].parent[v] is None:
            continue
        c = clades[0][v]
        if len(c) < 2 or RHO in c:
            continue
        shapes = set()
        ok = True
        for t, cl in zip(trees, clades):
            match = [w for w in range(t.n_nodes) if t.parent[w] is not None and cl[w] == c]
            if not match:
                ok = False
                break
            shapes.add(restrict(t, c).canonical())
        if ok and len(shapes) == 1:
            out.add(c)
    return out


def test_reduction_identical_trees_collapse_entirely():
    trees = [parse_newick("((a,b),(c,d));") for _ in range(3)]
    reduced, mapping = common_pendant_subtree_reduction(trees)
    for t in reduced:
        assert t.n_nodes == 2
    assert len(mapping) >= 1
    assert displays(expand_map(network_from_tree(reduced[0]), mapping), trees[0])


def test_reduction_shared_cherry():
    t1 = parse_newick("(((a,b),c),d);")
    t2 = parse_newick("(((a,b),d),c);")
    t3 = parse_newick("((c,d),(a,b));")
    reduced, mapping = common_pendant_subtree_reduction([t1, t2, t3])
    assert ref_common_pendant_clades(list(reduced)) == set()
    labels = reduced[0].leaf_labels()
    assert "a" not in labels and "b" not in labels
    for orig, red in zip((t1, t2, t3), reduced):
        assert displays(expand_map(network_from_tree(red), mapping), orig)


def test_reduction_no_common_cherry_is_noop():
    t1 = parse_newick("((a,b),(c,d));")
    t2 = parse_newick("((a,c),(b,d));")
    t3 = parse_newick("((a,d),(b,c));")
    assert ref_common_pendant_clades([t1, t2, t3]) == set()
    reduced, mapping = common_pendant_subtree_reduction([t1, t2, t3])
    assert not mapping
    for orig, red in zip((t1, t2, t3), reduced):
        assert isomorphic(orig, red)


def test_reduction_result_never_has_common_cherry():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(3, 9)
        trees = [parse_newick(random_newick(rng, n)) for _ in range(3)]
        try:
            reduced, _ = common_pendant_subtree_reduction(trees)
        except Exception:  # different label sets cannot happen here
            raise
        assert ref_common_pendant_clades(list(reduced)) == set()


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def ref_maximal_chains(trees, max_len=6):
    """Brute force: every tuple over the taxa that is a chain of all trees and
    not extendable by one taxon at either end."""
    taxa = sorted(trees[0].leaf_labels() - {RHO})
    valid = set()
    for q in range(1, max_len + 1):
        for tup in itertools.permutations(taxa, q):
            if all(is_chain_of(t, tup) for t in trees):
                valid.add(tup)
    maximal = set()
    for tup in valid:
        extendable = False
        for x in taxa:
            if x in tup:
                continue
            if (x,) + tup in valid or tup + (x,) in valid:
                extendable = True
                break
        if not extendable:
            maximal.add(tup)
    return maximal


def test_chain_predicate_direct():
    t = parse_newick("(((a,b),c),d);")
    assert is_chain_of(t, ("a", "b", "c", "d"))
    assert is_chain_of(t, ("b", "a", "c"))
    assert not is_chain_of(t, ("c", "a"))
    assert is_chain_of(t, ("d",))


def test_common_chains_singletons_when_no_agreement():
    t1 = parse_newick("((a,b),(c,d));")
    t2 = parse_newick("((a,c),(b,d));")
    t3 = parse_newick("((a,d),(b,c));")
    chains = common_chains([t1, t2, t3])
    assert sorted(c for c in chains) == [("a",), ("b",), ("c",), ("d",)]


def test_common_chains_caterpillar_hanging_differently():
    # same caterpillar order of x1,x2,x3 attached to different backbones
    t1 = parse_newick("((((x1,x2),x3),a),b);")
    t2 = parse_newick("((((x1,x2),x3),b),a);")
    t3 = parse_newick("((a,b),((x1,x2),x3));")
    chains = common_chains([t1, t2, t3])
    tups = {c for c in chains}
    assert ("x1", "x2", "x3") in tups


def test_common_chains_partition_and_maximality_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(3, 7)
        trees = [parse_newick(random_newick(rng, n)) for _ in range(3)]
        chains = common_chains(trees)
        seen = [x for c in chains for x in c]
        assert sorted(seen) == sorted(trees[0].leaf_labels() - {RHO})
        for c in chains:
            assert all(is_chain_of(t, c) for t in trees)
        # on these random instances, compare against the brute-force maximal set
        ref = ref_maximal_chains(trees, max_len=n)
        shared = {c for c in chains} | {tuple(reversed(c[:2])) + c[2:] for c in chains if len(c) >= 2}
        for c in chains:
            if c in ref or (len(c) >= 2 and (c[1], c[0]) + c[2:] in ref):
                continue
            # allowed only when a taxon was claimed by an overlapping maximal chain
            assert any(set(c) & set(m) for m in ref)


def ref_common_chains(ts):
    """The label-walking form of ``common_chains`` that the mask form
    replaced: per-taxon sibling and uncle lookups, a fixpoint loop over
    every pair of remaining taxa, and a singleton fallback."""

    def leaf_sib(t, x):
        v = t.node(x)
        others = [c for c in t.children[t.parent[v]] if c != v]
        return t.label[others[0]] if others and not t.children[others[0]] else None

    def leaf_up(t, x):
        p = t.parent[t.node(x)]
        g = t.parent[p]
        if g is None:
            return None
        others = [c for c in t.children[g] if c != p]
        if len(others) == 1 and not t.children[others[0]]:
            lbl = t.label[others[0]]
            return lbl if lbl != RHO else None
        return None

    taxa = sorted(ts[0].leaf_labels() - {RHO})
    up, sib = {}, {}
    for x in taxa:
        ups = {leaf_up(t, x) for t in ts}
        up[x] = ups.pop() if len(ups) == 1 and None not in ups else None
        sibs = {leaf_sib(t, x) for t in ts}
        sib[x] = sibs.pop() if len(sibs) == 1 and None not in sibs else None
    used, chains = set(), []

    def extend(seq):
        while True:
            nxt = up[seq[-1]]
            if nxt is None or nxt in used or nxt in seq:
                return
            seq.append(nxt)
            used.add(nxt)

    for x in taxa:
        if x in used:
            continue
        y = sib[x]
        if y is not None and y not in used and sib[y] == x:
            seq = sorted((x, y))
            used.update(seq)
            extend(seq)
            chains.append(tuple(seq))

    def bottom_step(w, x):
        return all(x in {leaf_up(t, w), leaf_sib(t, w)} for t in ts)

    remaining = [x for x in taxa if x not in used]
    while remaining:
        progressed = False
        for x in list(remaining):
            if any(w not in used and bottom_step(w, x) for w in remaining if w != x):
                continue
            seq = [x]
            used.add(x)
            nxt = next((y for y in taxa if y not in used and bottom_step(x, y)), None)
            if nxt is not None:
                seq.append(nxt)
                used.add(nxt)
            extend(seq)
            chains.append(tuple(seq))
            progressed = True
            remaining = [r for r in remaining if r not in used]
            break
        if not progressed:
            x = remaining.pop(0)
            used.add(x)
            chains.append((x,))
    chains.sort(key=lambda c: c[0])
    return chains


def caterpillar_instance(n, moves, seed):
    """A caterpillar on n taxa and two trees `moves` rSPR moves from it."""
    rng = random.Random(seed)
    text = "t1"
    for i in range(2, n + 1):
        text = f"({text},t{i})"
    t = parse_newick(text + ";")

    def walk(u):
        for _ in range(moves):
            u = rspr(u, rng)
        return u

    return Instance.from_trees(t, walk(t), walk(t))


def test_common_chains_match_the_label_walking_reference():
    """The mask form finds the chains of the label-walking form, order
    included, on random and caterpillar instances, reduced, unreduced and
    without the root leaf; long chains and bottoms that are a cherry in one
    tree and a path step in another both occur."""
    instances = [gen_random(3 + seed % 28, seed % 5, seed) for seed in range(150)]
    instances += [caterpillar_instance(4 + seed % 20, seed % 4, seed) for seed in range(50)]
    long_chains = mixed_bottoms = 0
    for inst in instances:
        rootless = tuple(restrict(t, inst.taxa) for t in inst.trees)
        for ts in (inst.trees, inst.reduced, rootless):
            chains = common_chains(ts)
            assert chains == ref_common_chains(ts)
            for c in chains:
                long_chains += len(c) >= 3
                if len(c) >= 2:
                    cherry = {t.parent[t.node(c[0])] == t.parent[t.node(c[1])]
                              for t in ts}
                    mixed_bottoms += len(cherry) == 2
    assert long_chains and mixed_bottoms, (long_chains, mixed_bottoms)


def test_common_chains_require_one_label_set():
    ts = [parse_newick("((a,b),(c,d));"), parse_newick("((a,b),(c,e));"),
          parse_newick("((a,b),(c,d));")]
    with pytest.raises(LabelMismatch):
        common_chains(ts)


def test_expand_map_missing_substitution():
    t = parse_newick("((__sub_9,b),c);")
    with pytest.raises(MissingSubstitution):
        expand_map(network_from_tree(t), {})


def test_random_tree_seed_stability():
    a = random_tree(["a", "b", "c", "d", "e"], random.Random(42))
    b = random_tree(["a", "b", "c", "d", "e"], random.Random(42))
    assert isomorphic(a, b)
    a.check_instance_tree()
