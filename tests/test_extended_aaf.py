import itertools

import pytest

from hybnet.extended_aaf import (
    ALL_COLOURS,
    RHO_GUESS,
    Component,
    Description,
    ExtendedAAF,
    WiringGuess,
    enumerate_wiring_guesses,
)
from hybnet.aaf_search import AafCandidate, ChainGuess, enumerate_aafs
from hybnet.forests import Forest
from hybnet.oracles import (
    dag_sources,
    descendant_dag,
    description_count,
    enumerate_descriptions,
    synthetic_extended_aaf,
)
from hybnet.reconstruct import Rejection, component_edge_key
from hybnet.solver import Instance, gen_random
from hybnet.trees import RHO, parse_newick

# the worked reconstruction fixture: three trees, AAF with four blocks,
# four invisible nodes (one red, two green, one blue)
RED = parse_newick("(((c,d),(b,a)),e);")
GREEN = parse_newick("(a,(((b,c),d),e));")
BLUE = parse_newick("(a,(b,((c,d),e)));")
FIXTURE_TREES = (RED, GREEN, BLUE)
FIXTURE_FOREST = Forest([{"b"}, {"c"}, {"d"}, {"a", "e", RHO}])


def brute_force_guesses(tree):
    """Independent enumeration: all ways to pick 1..3 pairwise-disjoint
    nonempty colour sets plus one split colour inside each, covering the
    invisible node's tree, or every colour for a block (tree None)."""
    out = set()
    colours = sorted(ALL_COLOURS)
    singles = [frozenset(s) for r in (1, 2, 3) for s in itertools.combinations(colours, r)]
    for count in (1, 2, 3):
        for sets in itertools.combinations(singles, count):
            union = frozenset().union(*sets)
            if sum(len(s) for s in sets) != len(union):
                continue  # overlapping
            if not (ALL_COLOURS if tree is None else {tree}) <= union:
                continue
            for splits in itertools.product(*[sorted(s) for s in sets]):
                out.add(tuple(sorted(zip(sets, splits), key=lambda e: (tuple(sorted(e[0])), e[1]))))
    return out


def test_wiring_guess_counts_exact():
    assert len(enumerate_wiring_guesses(0)) == 17
    assert len(enumerate_wiring_guesses(1)) == 17
    assert len(enumerate_wiring_guesses(2)) == 17
    assert len(enumerate_wiring_guesses(None)) == 10


@pytest.mark.parametrize("key", [3, -1, True, 1.0, "block", (0,)])
def test_wiring_guesses_reject_a_key_that_is_no_tree_index(key):
    """The guesses are cached per key and type: a key equal to a cached
    tree index (True, 1.0) is no index, by position or by name."""
    for tree in (0, 1, 2, None):
        enumerate_wiring_guesses(tree)
        enumerate_wiring_guesses(tree=tree)
    with pytest.raises(TypeError):
        enumerate_wiring_guesses(key)
    with pytest.raises(TypeError):
        enumerate_wiring_guesses(tree=key)


def test_records_reject_field_assignment():
    """The records are NamedTuples: no field of one can be reassigned,
    the solver's Instance included."""
    forest = Forest([{"a"}, {"b", RHO}])
    records = [
        (Component("block", block=frozenset({"a"})), "block"),
        (RHO_GUESS, "edges"),
        (AafCandidate(forest, ChainGuess(()), ()), "forest"),
        (Rejection("NoFreeNode"), "reason"),
        (Instance.from_newicks(["((a,b),c);"] * 3), "trees"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_wiring_guess_decomposition_1_3_3_10():
    guesses = enumerate_wiring_guesses(0)
    by_union = {}
    for g in guesses:
        by_union.setdefault(tuple(sorted(g.colour_union())), []).append(g)
    sizes = {u: len(gs) for u, gs in by_union.items()}
    assert sizes == {(0,): 1, (0, 1): 3, (0, 2): 3, (0, 1, 2): 10}


def test_wiring_guesses_match_brute_force():
    for tree in (0, 1, 2, None):
        ours = {g.edges for g in enumerate_wiring_guesses(tree)}
        assert ours == brute_force_guesses(tree)


def test_wiring_guess_invariants():
    for tree in (0, None):
        for g in enumerate_wiring_guesses(tree):
            assert 1 <= len(g.edges) <= 3
            seen = set()
            for colours, split in g.edges:
                assert colours and split in colours
                assert not (seen & colours)
                seen |= colours
    assert RHO_GUESS.edges == ()


def test_invisible_single_block_empty():
    t = parse_newick("((a,b),c);")
    f = Forest([t.leaf_labels()])
    assert ExtendedAAF(f, (t, t, t)).invisible[0] == frozenset()


def test_invisible_all_singletons_internal_nodes():
    t = parse_newick("((a,b),c);")
    f = Forest([x] for x in t.leaf_labels())
    inv = ExtendedAAF(f, (t, t, t)).invisible[0]
    assert inv == frozenset(v for v in range(t.n_nodes)
                            if t.children[v] and t.label[v] is None)
    assert len(inv) == 2


def test_fixture_invisible_counts():
    fstar = ExtendedAAF(FIXTURE_FOREST, FIXTURE_TREES)
    assert fstar.n_invisible() == (1, 2, 1)
    assert sum(fstar.n_invisible()) == 4
    inodes = [c for c in fstar.components if c.kind == "inode"]
    clades = {(c.tree, tuple(sorted(c.clade))) for c in inodes}
    assert clades == {
        (0, ("c", "d")),
        (1, ("b", "c")),
        (1, ("b", "c", "d")),
        (2, ("c", "d")),
    }


def test_descendant_dag_single_component():
    t = parse_newick("((a,b),c);")
    fstar = ExtendedAAF(Forest([t.leaf_labels()]), (t, t, t))
    dag = descendant_dag(fstar)
    assert list(dag.values()) == [frozenset()]


def test_descendant_dag_fixture_sources_are_b_c_d():
    fstar = ExtendedAAF(FIXTURE_FOREST, FIXTURE_TREES)
    sources = {c.name() for c in dag_sources(fstar)}
    assert sources == {"{b}", "{c}", "{d}"}


def block_component(fstar, block):
    return next(c for c in fstar.components if c.kind == "block" and c.block == frozenset(block))


def test_descendant_dag_nested_blocks():
    t1 = parse_newick("(((a,b),c),d);")
    f = Forest([{"a", "b"}, {"c", "d", RHO}])
    fstar = ExtendedAAF(f, (t1, t1, t1))
    dag = descendant_dag(fstar)
    inner = block_component(fstar, {"a", "b"})
    outer = block_component(fstar, {"c", "d", RHO})
    assert dag[inner] == frozenset({outer})
    assert dag[outer] == frozenset()


def test_descendant_dag_is_acyclic_with_source():
    fstar = ExtendedAAF(FIXTURE_FOREST, FIXTURE_TREES)
    succ = descendant_dag(fstar)
    # Kahn: all nodes drain
    indeg = {c: 0 for c in succ}
    for targets in succ.values():
        for t in targets:
            indeg[t] += 1
    queue = [c for c, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        c = queue.pop()
        seen += 1
        for t in succ[c]:
            indeg[t] -= 1
            if indeg[t] == 0:
                queue.append(t)
    assert seen == len(succ)
    assert dag_sources(fstar)


@pytest.mark.parametrize(
    "newicks,blocks,expected_f,expected_i",
    [
        ((("(a,b);",) * 3), [{"a", "b", RHO}], 1, 0),
    ],
)
def test_description_count_trivial(newicks, blocks, expected_f, expected_i):
    trees = tuple(parse_newick(s) for s in newicks)
    fstar = ExtendedAAF(Forest(blocks), trees)
    assert len(fstar.forest) == expected_f
    assert sum(fstar.n_invisible()) == expected_i
    descs = list(enumerate_descriptions(fstar))
    assert len(descs) == 1
    assert description_count(fstar) == 1


def test_two_block_forests_never_have_invisible_nodes():
    # every internal node has three taxa-bearing directions, so two blocks
    # always put one block across two directions of any candidate node
    t1 = parse_newick("((a,b),c);")
    t2 = parse_newick("((a,c),b);")
    fstar = ExtendedAAF(Forest([{"b"}, {"a", "c", RHO}]), (t1, t2, t2))
    assert sum(fstar.n_invisible()) == 0


@pytest.mark.parametrize("f,i", [(1, 0), (2, 1), (2, 2), (3, 2)])
def test_description_count_formula_synthetic(f, i):
    fstar = synthetic_extended_aaf(f, tuple(t % 3 for t in range(i)))
    assert description_count(fstar) == 10 ** (f - 1) * 17 ** i
    assert sum(1 for _ in enumerate_descriptions(fstar)) == 10 ** (f - 1) * 17 ** i


def test_description_stream_matches_formula_fixture():
    fstar = ExtendedAAF(FIXTURE_FOREST, FIXTURE_TREES)
    f, i = len(fstar.forest), sum(fstar.n_invisible())
    assert (f, i) == (4, 4)
    assert description_count(fstar) == 10 ** 3 * 17 ** 4


def test_description_json_is_deterministic():
    t = parse_newick("(a,b);")
    fstar = ExtendedAAF(Forest([{"a", "b", RHO}]), (t, t, t))
    d1, d2 = enumerate_descriptions(fstar), enumerate_descriptions(fstar)
    assert next(d1).to_json() == next(d2).to_json()


# ---------------------------------------------------------------------------
# the leaf-mask build against the label-set build it replaced
# ---------------------------------------------------------------------------


def ref_clade(t, v):
    """The labels of the childless nodes below v, by walking down."""
    if not t.children[v]:
        return frozenset({t.label[v]})
    return frozenset().union(*(ref_clade(t, c) for c in t.children[v]))


def ref_span(t, block):
    """Nodes on a path between two leaves of the block, by walking up from
    each leaf to the lowest common ancestor; that ancestor comes first."""
    def up(v):
        out = []
        while v is not None:
            out.append(v)
            v = t.parent[v]
        return out

    paths = [up(t.node(x)) for x in sorted(block)]
    common = set.intersection(*map(set, paths))
    lca = next(v for v in paths[0] if v in common)
    return [lca] + sorted({v for p in paths for v in p[:p.index(lca)]})


def ref_edge_key(t, span, block, u):
    """The block's labels below the component edge that u lies on: step from
    u into the span and down while the span does not branch."""
    b = next(w for w in t.children[u] if w in span)
    while True:
        kids = [w for w in t.children[b] if w in span]
        if len(kids) != 1:
            break
        b = kids[0]
    return ref_clade(t, b) & block


def candidate_extended_aafs():
    """Extended AAFs of the first candidate forests of small random instances."""
    for n, moves, seed in itertools.product((6, 8, 10), (1, 2, 3), range(4)):
        inst = gen_random(n, moves, seed)
        for k in range(1, 4):
            for cand in itertools.islice(enumerate_aafs(inst.reduced, k), 3):
                yield ExtendedAAF(cand.forest, inst.reduced)


def test_mask_build_matches_the_label_set_build():
    attachments = 0
    for fstar in candidate_extended_aafs():
        blocks = {x: c for x, c in enumerate(fstar.components) if c.kind == "block"}
        for i, t in enumerate(fstar.trees):
            spans = {x: ref_span(t, c.block) for x, c in blocks.items()}
            invisible = frozenset(range(t.n_nodes)).difference(*spans.values())
            assert fstar.invisible[i] == invisible
            owner = [-1] * t.n_nodes
            for x, span in spans.items():
                for v in span:
                    owner[v] = x
                assert fstar.rep[x][i] == span[0]
                assert t.labels_of(fstar.mask[x]) == blocks[x].block
            for x, c in enumerate(fstar.components):
                if c.kind == "inode" and c.tree == i:
                    (v,) = [v for v in invisible if ref_clade(t, v) == c.clade]
                    assert fstar.rep[x] == {i: v} and t.labels_of(fstar.mask[x]) == c.clade
                    owner[v] = x
            assert fstar.owner[i] == owner
            # every attachment point inside a block of two or more taxa
            for w in range(t.n_nodes):
                u = t.parent[w]
                x = None if u is None else owner[u]
                if x in blocks and owner[w] != x and len(blocks[x].block) >= 2:
                    key = component_edge_key(fstar, x, i, u)
                    assert t.labels_of(key) == ref_edge_key(t, set(spans[x]), blocks[x].block, u)
                    attachments += 1
    assert attachments > 500
