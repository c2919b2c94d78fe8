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
    _cut_walk,
    _partition_after_deletion,
    chain_guesses,
    enumerate_aafs,
)
from hybnet.errors import InputError
from hybnet.forests import Forest, is_acyclic_agreement_forest, is_agreement_forest, is_forest_for
from hybnet.oracles import collapsed_cut_lists, is_chain_of, reference_aaf_stream
from hybnet.solver import gen_random, solve
from hybnet.trees import (
    RHO,
    _to_builder,
    common_chains,
    parse_newick,
    random_tree,
)

STREAM_FIXTURE = Path(__file__).parent / "data" / "aaf_stream_fixture.jsonl"
# (n, moves, seed) of gen_random; each is enumerated at every budget up to 4
STREAM_FIXTURE_INSTANCES = [(6 + i % 7, 1 + i % 3, 200 + i) for i in range(14)]
# (n, moves, seed) of gen_random for the comparisons of the cut walk with
# test-side references; it has instances with two or more common chains,
# collapsed as cherries and along paths
WIDE_CORPUS = [(6 + i % 4, 1 + i % 3, 300 + i) for i in range(24)]


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
    chains = [("a",), ("b", "c")]
    guesses = list(chain_guesses(chains))
    assert len(guesses) == 4
    assert guesses[0].cases[0][1] == "one_side" and guesses[0].cases[1][1] == "one_side"
    assert list(chain_guesses([])) == [ChainGuess(())]
    assert len(list(chain_guesses([(x,) for x in "abcde"]))) == 32


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


# three copies of one tree, unreduced, so that their common chains are
# guessed: one cherry chain, several, and a path chain beside two cherries
IDENTICAL_WITH_CHAINS = ["((((a,b),c),d),e);", "(((a,b),c),((d,e),f));",
                         "((((a,b),c),(d,e)),((f,g),h));", "(((((x,y),(z,w)),a),b),c);"]


def test_budget_0_is_the_exhaustive_stream_on_identical_trees_with_chains():
    """Budget 0 is walked like any budget: on identical trees with common
    chains, at budgets 0 to 2, with and without the 5k-1 prune, the walk
    yields the exhaustive stream, and at budget 0 that is the one forest of
    a single block, found under the first chain guess."""
    kinds = set()  # whether each chain is a cherry
    for text in IDENTICAL_WITH_CHAINS:
        t = parse_newick(text)
        ts = (t, t, t)
        memo = WalkMemo(ts)
        assert memo.chains
        kinds |= {m in memo.cuts for m in memo.chains.values()}
        for k in range(3):
            for prune in (True, False):
                got = [c.describe() for c in enumerate_aafs(ts, k, prune=prune)]
                want = [c.describe() for c in reference_aaf_stream(ts, k, prune=prune)]
                assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
                if k == 0:
                    assert [c["forest"] for c in got] == [[sorted(t.leaf_labels())]]
                    assert set(got[0]["chain_guess"].values()) == {"one_side"}
    assert kinds == {True, False}


def test_a_raising_clock_stops_budget_0():
    """Budget 0 reads the clock at the empty prefix of each walk, so a
    clock that raises stops it, on equal trees and on different ones."""
    class Stop(Exception):
        pass

    def stop():
        raise Stop

    t = parse_newick(IDENTICAL_WITH_CHAINS[0])
    for ts in ((t, t, t), gen_random(8, 2, 1).reduced):
        with pytest.raises(Stop):
            list(enumerate_aafs(ts, 0, clock=stop))


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
    assert is_chain_of(t, chain)
    label = "__chain_" + "_".join(chain)
    nodes = [t.node(x) for x in chain]
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
        parents = [t1.parent[t1.node(x)] for x in c]
        cherries.append(parents[0] == parents[1])
        t1, label = ref_collapse_chain(t1, c)
        taxa_of[label] = c

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
        memo = WalkMemo(ts)
        spaces = list(collapsed_cut_lists(memo, 1, prune=False))
        chains = [c for c in common_chains(ts) if len(c) >= 2]
        assert [guess for guess, _, _ in spaces] == list(chain_guesses(chains))
        for guess, _, cuts in spaces:
            t1, cl, expand, cherries = ref_collapsed_cuts(ts, guess)
            edges = [v for v in range(t1.n_nodes) if t1.parent[v] is not None]
            assert memo.whole == cl[t1.root]
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


def test_walk_yields_the_exhaustive_stream_on_a_wider_corpus():
    """The skip rules keep the candidate stream of the exhaustive subset loop,
    in order, at every budget up to 4 with and without the 5k-1 prune, on
    instances whose one-side chains collapse as cherries and along paths,
    several at once."""
    kinds = {"several": 0, "cherry": 0, "path": 0}
    for n, moves, seed in WIDE_CORPUS:
        ts = gen_random(n, moves, seed).reduced
        memo = WalkMemo(ts)
        kinds["several"] += len(memo.chains) >= 2
        for m in memo.chains.values():
            kinds["cherry" if m in memo.cuts else "path"] += 1
        for k in range(5):
            for prune in (True, False):
                got = [c.describe() for c in enumerate_aafs(ts, k, prune=prune)]
                want = [c.describe() for c in reference_aaf_stream(ts, k, prune=prune)]
                assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert all(kinds.values()), kinds


def spread_chains(guess):
    """The chains that the guess spreads, as bits in chain order."""
    return sum(1 << i for i, (_, case) in enumerate(guess.cases) if case == "spread")


def walked_cut_sets(k=4):
    """Per instance of the wide corpus and chain guess: the reduced trees,
    the guess, its root cluster and cut list, and the cut sets of at most k
    cuts that the cut walk yields, as index tuples into that list."""
    for n, moves, seed in WIDE_CORPUS:
        ts = gen_random(n, moves, seed).reduced
        memo = WalkMemo(ts)
        for guess, present, cuts in collapsed_cut_lists(memo, k, prune=False):
            position = {c: i for i, c in enumerate(cuts)}
            walked = [tuple(position[memo.index[j]] for j in picks)
                      for picks in _cut_walk(present, spread_chains(guess), k, memo,
                                             lambda: None)]
            yield ts, guess, memo.whole, cuts, walked


def test_each_cut_set_is_walked_under_its_most_one_sided_guess_only():
    """A guess walks a cut set only when the set holds, for each chain the
    guess spreads, one of the cuts that meet the chain without covering it
    (the cuts that putting the chain on one side drops).  Any other cut set
    of the guess is kept by the guess that puts that chain on one side as
    well, which comes earlier, keeps fewer taxa and walks it.  Over the wide
    corpus and identical trees with chains, at budgets up to 4, with and
    without the 5k-1 prune, the walks of a budget still find every partition
    of the exhaustive stream, and only those."""
    spread_walked = 0
    identical = [(t, t, t) for t in map(parse_newick, IDENTICAL_WITH_CHAINS)]
    for ts in [gen_random(*instance).reduced for instance in WIDE_CORPUS] + identical:
        memo = WalkMemo(ts)
        for k in range(5):
            for prune in (True, False):
                found = set()
                for guess, present, _ in collapsed_cut_lists(memo, k, prune):
                    spread = [memo.chains[c] for c, case in guess.cases if case == "spread"]
                    for picks in _cut_walk(present, spread_chains(guess), k, memo,
                                           lambda: None):
                        held = [memo.index[j] for j in picks]
                        for m in spread:
                            assert any(c & m not in (0, m) for c in held), (guess, picks)
                        spread_walked += bool(spread)
                        blocks = _partition_after_deletion([memo.whole, *held])
                        forest = Forest(ts[0].labels_of(b) for b in blocks)
                        if is_acyclic_agreement_forest(forest, ts):
                            found.add(forest.blocks)
                want = {c.forest.blocks for c in reference_aaf_stream(ts, k, prune=prune)}
                assert found == want, (ts, k, prune)
    assert spread_walked


def test_walk_never_picks_a_younger_child_with_its_elder_sibling_or_its_parent():
    """For the children a (elder) and b (younger) of a node v, the cut sets
    {a, b} and {v, b} give the partition of {v, a}, which comes first in
    combinations order, and {v, a, b} repeats {a, b}.  No yielded cut set
    holds b with a or with v's edge, in the tree that the reference
    collapse of the guess's chains builds."""
    with_elder = 0
    for ts, guess, whole, cuts, walked in walked_cut_sets():
        t1 = ref_collapsed_cuts(ts, guess)[0]
        edges = [v for v in range(t1.n_nodes) if t1.parent[v] is not None]
        for picks in walked:
            nodes = {edges[j] for j in picks}
            for u in nodes:
                v = t1.parent[u]
                elder = min(t1.children[v])  # nodes are numbered in preorder
                if u != elder:
                    assert elder not in nodes and v not in nodes, (guess, picks)
                elif v in nodes:
                    with_elder += 1
    assert with_elder  # sets {v, a} were yielded, so {a, b} and {v, b} were ruled out


def test_walk_yields_only_agreement_forests_of_the_three_trees():
    """Bad blocks and meeting spans are caught in the walk: every partition
    it yields has node-disjoint spans in each of the three trees and
    agreeing restrictions, so only acyclicity is left to the final check."""
    yielded = 0
    for ts, guess, whole, cuts, walked in walked_cut_sets():
        for picks in walked:
            blocks = _partition_after_deletion([whole, *(cuts[j] for j in picks)])
            forest = Forest(ts[0].labels_of(m) for m in blocks)
            assert all(is_forest_for(forest, t) for t in ts), (guess, picks)
            assert is_agreement_forest(forest, ts), (guess, picks)
            yielded += len(picks) > 0
    assert yielded


def ref_is_bad(ts, m):
    """Restrictions that differ, by set equality of the intersections."""
    return len({frozenset(m & x for x in t.masks()) for t in ts}) > 1


def ref_splitters(cuts, b):
    """The cut-list scan: the indices of the cuts that meet b without
    covering it."""
    return [j for j, c in enumerate(cuts) if b & c not in (0, b)]


def ref_fixers(ts, cuts, b):
    """The splitters of b that leave both of its pieces good."""
    return [j for j in ref_splitters(cuts, b)
            if not ref_is_bad(ts, b & cuts[j]) and not ref_is_bad(ts, b & ~cuts[j])]


def ref_repairs(ts, cuts, b):
    """The splitters of b that leave at most one bad piece, fixed by a later
    cut."""
    out = []
    for j in ref_splitters(cuts, b):
        bad = [p for p in (b & cuts[j], b & ~cuts[j]) if ref_is_bad(ts, p)]
        if not bad or len(bad) == 1 and any(i > j for i in ref_fixers(ts, cuts, bad[0])):
            out.append(j)
    return out


def test_bitmask_block_memos_equal_the_cut_list_scans():
    """The block memos are ints over the per-solve cut index, shared by every
    chain guess.  ANDed with a guess's present mask, the shared splitters
    and fixers, and the guess's own repairs, equal the scans of its cut
    list, on random blocks and on unions of two clusters."""
    rng = random.Random(16)
    fixed = repaired = 0

    for n, moves, seed in WIDE_CORPUS[:12]:
        ts = gen_random(n, moves, seed).reduced
        memo = WalkMemo(ts)
        whole = memo.whole
        for guess, present, cuts in collapsed_cut_lists(memo, 2, prune=False):
            repairs = memo.guess_memos(present)[-1]
            at = [memo.index.index(c) for c in cuts]

            def as_bits(indices):
                return sum(1 << at[i] for i in indices)

            blocks = [rng.randrange(1, whole + 1) & whole for _ in range(20)]
            blocks += [rng.choice(cuts) | rng.choice(cuts) for _ in range(20)]
            for b in filter(None, blocks):
                assert memo.splitters(b) & present == as_bits(ref_splitters(cuts, b))
                want = ref_fixers(ts, cuts, b)
                assert memo.fixers(b) & present == as_bits(want)
                assert repairs(b) == as_bits(ref_repairs(ts, cuts, b))
                fixed += bool(want)
                repaired += repairs(b) != memo.fixers(b) & present
    assert fixed and repaired


def test_each_cut_list_is_the_cut_index_restricted_to_its_present_mask():
    """Every chain guess's cut list, as ``collapse_chain`` edits it, is the
    per-solve cut index restricted to the guess's present mask, in order;
    so a walk on the index picks the cut sets of the guess's own list, and
    in the same combinations order.  The walk itself builds no cut list, so
    this is the one check of that order.  On the wide corpus and a
    ``gen_random`` sweep, whose one-side chains collapse as cherries and
    along paths, several at once."""
    kinds = {"several": 0, "cherry": 0, "path": 0}
    sweep = [(8 + seed % 9, 1 + seed % 3, seed) for seed in range(40)]
    for n, moves, seed in WIDE_CORPUS + sweep:
        ts = gen_random(n, moves, seed).reduced
        memo = WalkMemo(ts)
        kinds["several"] += len(memo.chains) >= 2
        for m in memo.chains.values():
            kinds["cherry" if m in memo.cuts else "path"] += 1
        assert len(set(memo.index)) == len(memo.index)
        for guess, present, cuts in collapsed_cut_lists(memo, 1, prune=False):
            assert tuple(memo.index[j] for j in aaf_search._bits(present)) == cuts, guess
    assert all(kinds.values()), kinds


def test_a_memo_built_for_other_trees_is_bad_input():
    """A walk memo serves only the trees it was built for: with other trees
    it would walk their cut lists against the wrong block memos."""
    ts = gen_random(8, 2, 1).reduced
    memo = WalkMemo(gen_random(9, 2, 3).reduced)
    with pytest.raises(InputError, match="^the walk memo was built for other trees"):
        list(enumerate_aafs(ts, 3, memo=memo))
    # equal trees in other objects are the same trees
    same = WalkMemo(gen_random(8, 2, 1).reduced)
    assert [c.describe() for c in enumerate_aafs(ts, 3, memo=same)] == \
        [c.describe() for c in enumerate_aafs(ts, 3)]


def test_walk_skips_most_cut_sets_of_a_budget_without_candidates():
    """On a budget that yields no candidate, the walk reads the clock at far
    fewer prefixes than there are edge subsets to try; trying every subset
    would read it once per subset."""
    ts = gen_random(12, 3, 5).reduced  # hybridization number 6
    k = 5
    reads = []
    assert list(enumerate_aafs(ts, k, clock=lambda: reads.append(None))) == []
    subsets = sum(math.comb(len(cuts), size)
                  for _, _, cuts in collapsed_cut_lists(WalkMemo(ts), k)
                  for size in range(k + 1))
    assert 0 < 4 * len(reads) < subsets


def test_walk_on_the_cut_index_visits_the_prefixes_of_the_per_list_walk():
    """The shared memos are ANDed with each guess's present mask, so the walk
    on the cut index reads the clock at exactly the prefixes that the walk on
    each guess's own cut list reads: 32,239 over the wide corpus at budgets
    up to 4, with and without the 5k-1 prune.  Of these, budget 0 reads once
    per chain guess and prune setting, at its empty prefix: 132 in all, for
    66 guesses, although only a guess that spreads no chain can yield the
    empty cut set.  Masks that let a cut outside the guess count as a later
    splitter or fixer keep the stream but visit more prefixes.  A change to
    the skip rules changes this figure: walking each cut set under every
    guess that keeps its cuts, not only its most one-sided one, read it at
    38,710 prefixes."""
    reads = []
    for n, moves, seed in WIDE_CORPUS:
        ts = gen_random(n, moves, seed).reduced
        for k in range(5):
            for prune in (True, False):
                list(enumerate_aafs(ts, k, prune=prune, clock=lambda: reads.append(None)))
    assert len(reads) == 32_239


def test_walk_memo_shared_across_budgets_keeps_every_stream():
    """One memo serves every budget of a solve: each budget yields what a
    fresh memo yields, and once every guess of every budget is walked,
    walking them all again computes no new badness, splitters or fixers."""
    for seed in (0, 3, 8, 12):
        ts = gen_random(9, 2, seed).reduced
        memo = WalkMemo(ts)
        for k in range(4):
            shared = [c.describe() for c in enumerate_aafs(ts, k, memo=memo)]
            assert shared == [c.describe() for c in enumerate_aafs(ts, k)], (seed, k)
        shared = (memo.is_bad, memo.splitters, memo.fixers)
        computed = [f.cache_info().misses for f in shared]
        for k in range(4):
            list(enumerate_aafs(ts, k, memo=memo))
        assert [f.cache_info().misses for f in shared] == computed


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


def test_solving_builds_no_collapsed_cut_list(monkeypatch):
    """A chain guess is only a mask over the cut index: ``solve`` and
    ``enumerate_aafs`` never collapse a cut list, and yield the reference
    stream without it, on an instance whose solution collapses a cherry
    chain and a path chain."""
    inst = gen_random(12, 2, 1)
    ts = inst.reduced
    memo = WalkMemo(ts)
    assert {m in memo.cuts for m in memo.chains.values()} == {True, False}
    want = [[c.describe() for c in reference_aaf_stream(ts, k)] for k in range(6)]

    def refuse(cuts, chain):
        raise AssertionError("a cut list was collapsed")

    monkeypatch.setattr(aaf_search, "collapse_chain", refuse)
    assert [[c.describe() for c in enumerate_aafs(ts, k)] for k in range(6)] == want
    sol = solve(inst)
    assert sol.k == 5
    assert set(sol.certificate["chain_guess"].values()) == {"one_side"}


def test_negative_budget_is_bad_input():
    """A budget below 0 is bad input, and so is a bool, which Python would
    otherwise take as the budget 0 or 1."""
    ts = gen_random(6, 1, 0).reduced
    with pytest.raises(InputError, match="^--k must be at least 0"):
        list(enumerate_aafs(ts, -1))
    for flag in (True, False):
        with pytest.raises(InputError, match="^--k must be"):
            list(enumerate_aafs(ts, flag))


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
