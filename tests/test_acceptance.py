"""Acceptance suite: exact combinatorial checkpoints and batch properties.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Batch sizes follow the stated minimums; everything is seeded.
"""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

from hybnet.aaf_search import _partition_after_deletion, enumerate_aafs
from hybnet.extended_aaf import (
    RHO_GUESS,
    Description,
    ExtendedAAF,
    enumerate_wiring_guesses,
)
from hybnet.forests import Forest, is_acyclic_agreement_forest
from hybnet.networks import deletion_forest, displays, hybridization_number
from hybnet.reconstruct import _Builder, search_cnet
from hybnet.oracles import (
    build_signature,
    enumerate_descriptions,
    oracle_exhaustive_networks,
    oracle_two_tree_maaf,
    reconstruct_cnet,
    signature_key,
    synthetic_extended_aaf,
)
from hybnet.solver import Instance, gen_random, rspr, solve
from hybnet.trees import RHO, parse_newick, random_tree, serialize

DATA = Path(__file__).parent / "data"


def _report(num, name, started):
    print(f"\n[ACCEPTANCE {num}] PASS ({time.time() - started:.1f}s) - {name}", flush=True)


# ---------------------------------------------------------------------------
# shared batches
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def soundness_batch():
    """100 random instances, n <= 8, at most 2 moves per derived tree."""
    out = []
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.choice((5, 6, 7, 8))
        moves = rng.choice((0, 1, 2))
        inst = gen_random(n, moves, seed=seed * 7 + 1)
        out.append((inst, solve(inst)))
    return out


@pytest.fixture(scope="module")
def small_oracle_batch():
    """At least 30 instances with n <= 5 and true k <= 2: generated plus
    hand-built, each paired with the exhaustive-oracle answer."""
    hand = [
        ["((a,b),c);"] * 3,
        ["((a,b),c);", "((a,c),b);", "((a,c),b);"],
        ["((a,b),(c,d));", "((a,c),(b,d));", "((a,c),(b,d));"],
        ["(t4,((t1,t3),(t2,t5)));", "((t1,t4),(t3,(t2,t5)));", "(t4,(t3,(t2,(t1,t5))));"],
        ["(((a,b),c),d);", "(((b,a),d),c);", "((c,d),(a,b));"],
    ]
    batch = [Instance.from_newicks(texts) for texts in hand]
    seed = 0
    while len(batch) < 34 and seed < 400:
        inst = gen_random(random.Random(seed).choice((4, 5)), 1, seed=seed)
        batch.append(inst)
        seed += 1
    out = []
    for inst in batch:
        k_oracle = oracle_exhaustive_networks(inst, max_k=2)
        if k_oracle is None:
            continue  # true k above 2: outside this criterion's range
        out.append((inst, k_oracle))
    assert len(out) >= 30
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_wiring_guess_counts():
    t0 = time.time()
    for tree in range(3):
        guesses = enumerate_wiring_guesses(tree)
        assert len(guesses) == 17
        sizes = {}
        for g in guesses:
            sizes[tuple(sorted(g.colour_union()))] = sizes.get(tuple(sorted(g.colour_union())), 0) + 1
        singles = [s for u, s in sizes.items() if len(u) == 1]
        doubles = sorted(s for u, s in sizes.items() if len(u) == 2)
        triples = [s for u, s in sizes.items() if len(u) == 3]
        assert singles == [1] and doubles == [3, 3] and triples == [10]
    assert len(enumerate_wiring_guesses(None)) == 10
    assert RHO_GUESS.edges == ()  # the rho block's one guess
    assert time.time() - t0 < 1.0
    _report(1, "wiring guess counts 17/10/1 with 1+3+3+10 decomposition", t0)


def test_criterion_2_description_count_formula():
    t0 = time.time()
    for f, i in ((1, 0), (2, 1), (2, 2), (3, 2)):
        fstar = synthetic_extended_aaf(f, tuple(t % 3 for t in range(i)))
        expected = 10 ** (f - 1) * 17 ** i
        assert sum(1 for _ in enumerate_descriptions(fstar)) == expected
    assert time.time() - t0 < 10.0
    _report(2, "description counts match 10^(f-1) * 17^i", t0)


def test_criterion_3_optimality_vs_exhaustive_oracle(small_oracle_batch):
    t0 = time.time()
    assert len(small_oracle_batch) >= 30
    for idx, (inst, k_oracle) in enumerate(small_oracle_batch):
        s = solve(inst)
        assert s.k == k_oracle, f"instance {idx}: solve={s.k} oracle={k_oracle}"
    _report(3, f"solve == exhaustive-network oracle on {len(small_oracle_batch)} instances", t0)


def test_criterion_4_optimality_vs_two_tree_oracle():
    t0 = time.time()
    checked = 0
    for seed in range(50):
        rng = random.Random(seed + 1000)
        n = rng.choice((5, 6, 7, 8))
        moves = rng.choice((1, 2, 3))
        t1 = random_tree([f"t{i + 1}" for i in range(n)], rng)
        t2 = t1
        for _ in range(moves):
            t2 = rspr(t2, rng)
        inst = Instance.from_trees(t1, t2, t2)
        s = solve(inst)
        k_oracle = oracle_two_tree_maaf(t1, t2)
        assert s.k == k_oracle, f"seed {seed}: solve={s.k} oracle={k_oracle}"
        checked += 1
    assert checked == 50
    _report(4, "solve == two-tree MAAF oracle on 50 (T1,T2,T2) triples", t0)


def test_criterion_5_soundness_suite(soundness_batch):
    t0 = time.time()
    assert len(soundness_batch) >= 100
    for idx, (inst, s) in enumerate(soundness_batch):
        assert s.network.is_binary(), f"instance {idx}"
        assert len(s.network.roots()) == 1
        assert all(displays(s.network, t) for t in inst.trees), f"instance {idx}"
        assert hybridization_number(s.network) == s.k
        f = deletion_forest(s.network)
        assert len(f) <= s.k + 1, f"instance {idx}"
        assert is_acyclic_agreement_forest(f, inst.trees), f"instance {idx}"
    _report(5, f"{len(soundness_batch)} solutions display all trees; deletion forests are AAFs with <= k+1 blocks", t0)


def test_criterion_6_invisible_node_bound(soundness_batch):
    t0 = time.time()
    for idx, (inst, s) in enumerate(soundness_batch):
        if s.k < 1:
            continue
        counts = s.certificate["invisible_counts"]
        assert all(c <= s.k - 1 for c in counts), f"instance {idx}: {counts} vs k={s.k}"
    _report(6, "per-tree invisible node counts stay within k-1 on every solution", t0)


def test_criterion_7_signature_determinism(soundness_batch):
    t0 = time.time()
    descriptions = []
    for inst, s in soundness_batch:
        if len(descriptions) >= 20:
            break
        forest = Forest(s.certificate["forest"])
        fstar = ExtendedAAF(forest, inst.reduced)
        found = search_cnet(fstar, max_hyb=s.k)
        assert found is not None
        descriptions.append(found[1])
    assert len(descriptions) >= 20
    for d in descriptions:
        base = build_signature(d)
        assert isinstance(base, _Builder)
        for seed in range(10):
            sig = build_signature(d, seed=seed)
            assert isinstance(sig, _Builder)
            assert signature_key(sig) == signature_key(base)
    _report(7, "20 accepted descriptions x 10 random processing orders give identical signatures", t0)


def test_criterion_8_worked_reconstruction_regression():
    t0 = time.time()
    from test_reconstruct import fixture_description

    fstar, d = fixture_description()
    assert len(fstar.forest) == 4 and sum(fstar.n_invisible()) == 4
    runs = []
    for _ in range(2):
        trace = []
        cnet = reconstruct_cnet(d, trace=trace)
        runs.append("\n".join(json.dumps(ev, ensure_ascii=False, sort_keys=True)
                              for ev in trace) + "\n")
        assert hybridization_number(cnet) == 4
    assert runs[0] == runs[1]
    golden = (DATA / "reconstruction_fixture_trace.jsonl").read_text()
    assert runs[0] == golden
    # the buddy pair and the top-down attachment orders are in the trace
    events = [json.loads(line) for line in golden.splitlines()]
    buddy = next(ev for ev in events if ev.get("buddies"))
    assert buddy["buddies"] == ["I(T2:{b,c,d})"]
    expand = next(ev for ev in events
                  if ev["event"] == "expand" and ev["component"] == "{a,e,ρ}")
    assert expand["attach_order"] == {"a": ["e7", "e0"], "e": ["e8", "e9"]}
    _report(8, "worked reconstruction fixture reproduces its trace byte for byte", t0)


def test_criterion_9_aaf_search_completeness():
    t0 = time.time()
    for seed in (0, 3, 8, 12):
        inst = gen_random(8, 2, seed=seed)
        t1 = inst.reduced[0]
        masks = t1.masks()
        edge_nodes = [v for v in range(t1.n_nodes) if t1.parent[v] is not None]
        for k in (1, 2, 3):
            brute = set()
            for size in range(k + 1):
                for subset in itertools.combinations(edge_nodes, size):
                    cut = [masks[v] for v in (t1.root, *subset)]
                    blocks = frozenset(t1.labels_of(m) for m in _partition_after_deletion(cut))
                    if len(blocks) <= k + 1 and is_acyclic_agreement_forest(
                            Forest(blocks), inst.reduced):
                        brute.add(blocks)
            unpruned = {c.forest.blocks
                        for c in enumerate_aafs(inst.reduced, k, prune=False)}
            assert unpruned >= brute, f"seed {seed} k={k}"
    # pruning stays lossless end to end: criteria 3 and 4 run with pruning on
    _report(9, "unpruned AAF stream covers the brute-force deletion AAFs (n=8, k<=3)", t0)


def test_criterion_10_k0_path_under_a_second():
    rng = random.Random(42)
    t = random_tree([f"t{i}" for i in range(200)], rng)
    text = serialize(t)
    t0 = time.time()
    tree = parse_newick(text)
    inst = Instance.from_trees(tree, tree, tree)
    s = solve(inst)
    elapsed = time.time() - t0
    assert s.k == 0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    from hybnet.trees import isomorphic

    assert len(s.network.edges) == tree.n_nodes - 1
    _report(10, f"identical 200-taxon triple solved in {elapsed * 1000:.0f} ms", t0)
