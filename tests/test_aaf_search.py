import hashlib
import itertools
import json
import math
import random
import sys
from pathlib import Path

import pytest

import hybnet.aaf_search as aaf_search
from hybnet.aaf_search import (
    AafCandidate,
    ChainGuess,
    WalkMemo,
    _partition_after_deletion,
    chain_guesses,
    enumerate_aafs,
)
from hybnet.errors import InputError
from hybnet.forests import Forest, is_acyclic_agreement_forest
from hybnet.oracles import reference_aaf_stream
from hybnet.solver import gen_random, solve
from hybnet.trees import (
    RHO,
    Chain,
    _to_builder,
    common_chains,
    is_chain_of,
    parse_newick,
    random_tree,
)

STREAM_FIXTURE = Path(__file__).parent / "data" / "aaf_stream_fixture.jsonl"
# (n, moves, seed) of gen_random; each is enumerated at every budget up to 4
STREAM_FIXTURE_INSTANCES = [(6 + i % 7, 1 + i % 3, 200 + i) for i in range(14)]


def partition_labels(t, deleted):
    """Label blocks left by deleting the in-edges of the given nodes of t."""
    masks = t.masks()
    return frozenset(t.labels_of(m) for m in
                     _partition_after_deletion([masks[v] for v in (t.root, *deleted)]))


def brute_force_aafs(ts, k):
    """All taxon partitions from deleting <= k edges of the first tree that
    are acyclic agreement forests."""
    t1 = ts[0]
    out = set()
    edge_nodes = [v for v in range(t1.n_nodes) if t1.parent[v] is not None]
    for size in range(k + 1):
        for subset in itertools.combinations(edge_nodes, size):
            blocks = partition_labels(t1, subset)
            if len(blocks) <= k + 1 and is_acyclic_agreement_forest(Forest(blocks), ts):
                out.add(blocks)
    return out


def test_chain_guesses_counts_and_order():
    chains = [Chain(("a",)), Chain(("b", "c"))]
    guesses = list(chain_guesses(chains))
    assert len(guesses) == 4
    assert guesses[0].cases[0][1] == "one_side" and guesses[0].cases[1][1] == "one_side"
    assert list(chain_guesses([])) == [ChainGuess(())]
    assert len(list(chain_guesses([Chain((x,)) for x in "abcde"]))) == 32


def test_single_taxon_chains_are_not_guessed():
    """A single-taxon chain collapses to itself, so only chains of two or
    more taxa enter the chain guesses of the candidates."""
    seen = 0
    for seed in range(4):
        inst = gen_random(8, 1, seed=seed)
        assert any(len(c) == 1 for c in common_chains(inst.reduced))
        for k in (1, 2):
            for cand in enumerate_aafs(inst.reduced, k):
                assert all(len(chain) >= 2 for chain, _ in cand.chain_guess.cases)
                seen += 1
    assert seen


def test_identical_trees_k0_single_candidate():
    t = parse_newick("((a,b),(c,d));")
    cands = list(enumerate_aafs((t, t, t), 0))
    assert len(cands) == 1
    assert cands[0].forest.blocks == frozenset({frozenset({"a", "b", "c", "d", RHO})})


def test_k0_empty_for_different_trees():
    t1 = parse_newick("((a,b),c);")
    t2 = parse_newick("((a,c),b);")
    assert list(enumerate_aafs((t1, t2, t2), 0)) == []


def test_k1_rspr_pair_contains_moved_subtree_forest():
    t1 = parse_newick("((a,b),c);")
    t2 = parse_newick("((a,c),b);")
    cands = list(enumerate_aafs((t1, t2, t2), 1))
    forests = {c.forest.blocks for c in cands}
    # brute force: all single-edge deletions of t1 that give AAFs
    expected = brute_force_aafs((t1, t2, t2), 1)
    assert forests == expected
    assert frozenset({frozenset({"a"}), frozenset({"b", "c", RHO})}) in forests


def test_candidates_always_valid():
    inst = gen_random(6, 1, seed=5)
    for k in range(0, 3):
        for cand in enumerate_aafs(inst.reduced, k):
            assert len(cand.forest) <= k + 1
            assert is_acyclic_agreement_forest(cand.forest, inst.reduced)


def test_no_prune_superset_of_brute_force():
    for seed in range(6):
        inst = gen_random(6, 1, seed=seed)
        for k in (1, 2, 3):
            got = {c.forest.blocks for c in enumerate_aafs(inst.reduced, k, prune=False)}
            assert got >= brute_force_aafs(inst.reduced, k)


def test_deterministic_stream():
    inst = gen_random(7, 2, seed=11)
    a = [c.forest.blocks for c in enumerate_aafs(inst.reduced, 2)]
    b = [c.forest.blocks for c in enumerate_aafs(inst.reduced, 2)]
    assert a == b


def test_chain_prune_blocks_overwide_guesses():
    # a long common chain: with k=1 the all-spread guess exceeds 5k-1 = 4 taxa
    t = parse_newick("((((((x1,x2),x3),x4),x5),x6),y);")
    trace = []
    chains = common_chains((t, t, t))
    assert any(len(c) >= 5 for c in chains)
    list(enumerate_aafs((t, t, t), 1, trace=trace))
    assert any(ev["event"] == "prune" for ev in trace)


def test_provenance_describes_deletions():
    t1 = parse_newick("((a,b),c);")
    t2 = parse_newick("((a,c),b);")
    cands = list(enumerate_aafs((t1, t2, t2), 1))
    target = next(c for c in cands
                  if c.forest.blocks == frozenset({frozenset({"a"}), frozenset({"b", "c", RHO})}))
    assert target.deleted_edges == (frozenset({"a"}),)
    assert "forest" in target.describe()


def ref_partition_after_deletion(t, deleted):
    """Union-find over the tree's edges, the deleted in-edges left out."""
    comp = list(range(t.n_nodes))

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    for v in range(t.n_nodes):
        if t.parent[v] is not None and v not in deleted:
            comp[find(v)] = find(t.parent[v])
    blocks = {}
    for v in range(t.n_nodes):
        if t.label[v] is not None:
            blocks.setdefault(find(v), set()).add(t.label[v])
    return frozenset(frozenset(b) for b in blocks.values())


def test_partition_after_deletion_matches_union_find():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(2, 12)
        t = random_tree([f"x{i}" for i in range(n)], rng)
        edges = [v for v in range(t.n_nodes) if t.parent[v] is not None]
        deleted = rng.sample(edges, rng.randint(0, min(5, len(edges))))
        assert partition_labels(t, deleted) == ref_partition_after_deletion(t, set(deleted))


def ref_collapse_chain(t, chain):
    """The tree with a one-side chain replaced by one leaf, and that leaf's
    label.  In a cherry, the chain's top parent becomes the leaf; otherwise
    the leaf hangs from the top parent beside the subtree below the chain."""
    assert is_chain_of(t, chain.taxa)
    label = "__chain_" + "_".join(chain.taxa)
    nodes = [t.node(x) for x in chain.taxa]
    parents = [t.parent[v] for v in nodes]
    top = parents[-1]
    b = _to_builder(t)
    b.children[top] = []
    if parents[0] == parents[1]:
        b.label[top] = label
    else:
        z = next(c for c in t.children[parents[0]] if c != nodes[0])
        b.attach(b.add(label=label), top)
        b.attach(z, top)
    return b.freeze(t.root), label


def ref_collapsed_cuts(ts, guess):
    """The guess's one-side chains collapsed by building trees, one chain at
    a time: the collapsed first tree, each of its nodes' clusters in the
    input trees' bits, the chain taxa of each synthetic label, and whether
    each collapse was a cherry."""
    t1, taxa_of, cherries = ts[0], {}, []
    for c in guess.one_side_chains():
        parents = [t1.parent[t1.node(x)] for x in c.taxa]
        cherries.append(parents[0] == parents[1])
        t1, label = ref_collapse_chain(t1, c)
        taxa_of[label] = c.taxa

    def expand(labels):
        return [x for lbl in labels for x in taxa_of.get(lbl, (lbl,))]

    cl = [ts[0].mask(expand(t1.labels_of(m))) for m in t1.masks()]
    return t1, cl, expand, cherries


def test_cut_spaces_collapse_chains_as_the_tree_building_reference_does():
    """Each chain guess's cut list is the preorder cluster list of the tree
    that collapsing its one-side chains builds, in the input trees' bits, and
    the partitions it gives are the label-level ones of that tree, each block
    expanded through the chain labels."""
    rng = random.Random(5)
    cases = {"cherry": 0, "path": 0, "several": 0}
    for seed in range(40):
        ts = gen_random(8 + seed % 9, 1 + seed % 3, seed).reduced
        spaces = list(WalkMemo(ts).cut_spaces(1, prune=False))
        chains = [c for c in common_chains(ts) if len(c) >= 2]
        assert [guess for guess, _, _ in spaces] == list(chain_guesses(chains))
        for guess, whole, cuts in spaces:
            t1, cl, expand, cherries = ref_collapsed_cuts(ts, guess)
            edges = [v for v in range(t1.n_nodes) if t1.parent[v] is not None]
            assert whole == cl[t1.root]
            assert cuts == tuple(cl[v] for v in edges)
            cases["cherry"] += cherries.count(True)
            cases["path"] += cherries.count(False)
            cases["several"] += len(cherries) >= 2
            for _ in range(5):
                deleted = rng.sample(edges, rng.randint(0, min(3, len(edges))))
                cut = [cl[v] for v in (t1.root, *deleted)]
                got = frozenset(ts[0].labels_of(m) for m in _partition_after_deletion(cut))
                want = frozenset(frozenset(expand(b))
                                 for b in ref_partition_after_deletion(t1, set(deleted)))
                assert got == want
    assert all(cases.values()), cases


def test_pruned_walk_yields_the_exhaustive_stream_in_order():
    """The pruned cut walk yields exactly the candidates of the exhaustive
    subset loop, in the same order, with the same chain guesses and deleted
    edges."""
    for seed in range(8):
        ts = gen_random(8 + seed % 5, 1 + seed % 3, seed).reduced
        for k in range(4):
            for prune in (True, False):
                got = [c.describe() for c in enumerate_aafs(ts, k, prune=prune)]
                want = [c.describe() for c in reference_aaf_stream(ts, k, prune=prune)]
                assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_walk_skips_most_cut_sets_of_a_budget_without_candidates():
    """On a budget that yields no candidate, the walk reads the clock at far
    fewer prefixes than there are edge subsets to try; trying every subset
    would read it once per subset."""
    ts = gen_random(12, 3, 5).reduced  # hybridization number 6
    k = 5
    reads = []
    assert list(enumerate_aafs(ts, k, clock=lambda: reads.append(None))) == []
    subsets = sum(math.comb(len(cuts), size)
                  for _, _, cuts in WalkMemo(ts).cut_spaces(k) for size in range(k + 1))
    assert 0 < 4 * len(reads) < subsets


def test_walk_memo_shared_across_budgets_keeps_every_stream():
    """One memo serves every budget of a solve: each budget yields what a
    fresh memo yields, and walking the same budgets again computes nothing
    new."""
    for seed in (0, 3, 8, 12):
        ts = gen_random(9, 2, seed).reduced
        memo = WalkMemo(ts)
        for k in range(4):
            shared = [c.describe() for c in enumerate_aafs(ts, k, memo=memo)]
            assert shared == [c.describe() for c in enumerate_aafs(ts, k)], (seed, k)
        computed = memo.is_bad.cache_info().misses
        for k in range(4):
            list(enumerate_aafs(ts, k, memo=memo))
        assert memo.is_bad.cache_info().misses == computed


def test_chains_are_found_once_per_solve(monkeypatch):
    """The common chains depend on the trees alone: ``solve`` finds them once
    for all its budgets, and ``enumerate_aafs`` without a memo once per call."""
    calls = []

    def counted(ts):
        calls.append(None)
        return common_chains(ts)

    monkeypatch.setattr(aaf_search, "common_chains", counted)
    inst = gen_random(10, 2, 4)
    assert solve(inst).k >= 2
    assert len(calls) == 1
    for k in (1, 2, 3):
        list(enumerate_aafs(inst.reduced, k))
    assert len(calls) == 4


def test_negative_budget_is_bad_input():
    ts = gen_random(6, 1, 0).reduced
    with pytest.raises(InputError, match="at least 0"):
        list(enumerate_aafs(ts, -1))


def stream_fixture_lines():
    """One line per fixture instance, budget and prune setting: the number
    of candidates and the sha256 of their JSON ``describe()`` stream."""
    for n, moves, seed in STREAM_FIXTURE_INSTANCES:
        ts = gen_random(n, moves, seed).reduced
        for k in range(5):
            for prune in (True, False):
                stream = [c.describe() for c in enumerate_aafs(ts, k, prune=prune)]
                digest = hashlib.sha256(json.dumps(stream, sort_keys=True).encode()).hexdigest()
                row = {"n": n, "moves": moves, "seed": seed, "k": k, "prune": prune,
                       "candidates": len(stream), "sha256": digest}
                yield json.dumps(row, sort_keys=True) + "\n"


def test_candidate_streams_replay_the_stream_fixture_byte_for_byte():
    """The candidate streams, chain guesses and deleted edges included, are
    the recorded ones: unlike the comparison with the exhaustive loop, this
    also sees a change to the cut lists that both walk."""
    lines = STREAM_FIXTURE.read_text(encoding="utf-8").splitlines(keepends=True)
    assert list(stream_fixture_lines()) == lines
    assert any(json.loads(line)["candidates"] for line in lines)


if __name__ == "__main__":
    # regenerate the stream fixture: PYTHONPATH=src python tests/test_aaf_search.py --write
    if sys.argv[1:] == ["--write"]:
        STREAM_FIXTURE.write_text("".join(stream_fixture_lines()), encoding="utf-8")
