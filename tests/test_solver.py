import itertools
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hybnet.solver as solver

from hybnet.errors import BudgetExceeded, InputError, NoSolutionWithin
from hybnet.extended_aaf import ExtendedAAF
from hybnet.forests import is_acyclic_agreement_forest
from hybnet.networks import (
    deletion_forest,
    displays,
    expand_map,
    hybridization_number,
    network_from_tree,
)
from hybnet.oracles import (
    add_reticulation,
    all_optimal_networks,
    oracle_exhaustive_networks,
    oracle_two_tree_maaf,
)
from hybnet.solver import Instance, gen_random, rspr, solve
from hybnet.trees import (RHO, PhyloTree, is_synthetic, isomorphic, parse_newick, random_tree,
                          serialize)


def has_invisible_component(net):
    """True when deleting all reticulation edges leaves a component with
    neither taxa nor the root."""
    comp = list(range(net.n_nodes))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for u, v in net.edges:
        if net.indeg(v) < 2:
            comp[find(u)] = find(v)
    anchored = {find(v) for v in range(net.n_nodes)
                if net.label.get(v) is not None or net.indeg(v) == 0}
    return any(find(v) not in anchored for v in range(net.n_nodes))


# ---------------------------------------------------------------------------
# Instance plumbing
# ---------------------------------------------------------------------------


def test_instance_requires_shared_labels():
    with pytest.raises(InputError):
        Instance.from_newicks(["((a,b),c);", "((a,b),d);", "((a,b),c);"])
    with pytest.raises(InputError):
        Instance.from_newicks(["((a,b),c);", "((a,b),c);"])


@pytest.mark.parametrize("taxon", ["__sub_0", "__sub_7"])
def test_instance_rejects_reserved_taxa(taxon):
    """The reductions name their synthetic taxa with these prefixes; a user
    taxon __sub_0 used to make the solve re-expand it forever."""
    with pytest.raises(InputError, match=repr(taxon)):
        Instance.from_newicks([f"((a,b),(c,{taxon}));", f"((a,b),({taxon},c));",
                               f"((a,b),(c,{taxon}));"])


def test_a_taxon_named_like_a_chain_is_an_ordinary_taxon():
    """No reduction makes up chain taxa, so a name beginning with __chain_
    is a taxon like any other: the triple solves, and the network names it
    and displays the three input trees."""
    inst = Instance.from_newicks(["((((a,b),c),__chain_x),d);", "((((a,__chain_x),c),b),d);",
                                  "((((a,b),__chain_x),d),c);"])
    s = solve(inst)
    assert s.k >= 1 and hybridization_number(s.network) == s.k
    assert "__chain_x" in s.network.label.values()
    assert all(displays(s.network, t) for t in inst.trees)


def test_instance_reduces_common_pendants():
    inst = Instance.from_newicks(["(((a,b),c),d);", "(((a,b),d),c);", "((c,d),(a,b));"])
    assert "a" not in inst.reduced[0].leaf_labels()
    assert inst.taxa == {"a", "b", "c", "d"}


def test_recorded_subtrees_hold_no_synthetic_label():
    """networks.expand_map grafts the recorded subtrees in one pass, which
    is complete because no recorded subtree holds a synthetic label: the
    reduction records maximal common subtrees of an input tree, and input
    taxa never use a reserved prefix."""
    recorded = 0
    for n, moves in ((8, 1), (12, 2), (20, 3)):
        for seed in range(10):
            inst = gen_random(n, moves, seed)
            for sub in inst.reduction.values():
                recorded += 1
                assert not any(map(is_synthetic, sub.leaf_labels()))
            net = expand_map(network_from_tree(inst.reduced[0]), inst.reduction)
            assert set(net.label.values()) == inst.taxa
    assert recorded >= 10


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_identical_triple_k0():
    t = parse_newick("((a,b),(c,d));")
    s = solve(Instance.from_trees(t, t, t))
    assert s.k == 0
    assert hybridization_number(s.network) == 0
    assert displays(s.network, t)


def test_solve_one_rspr_triple_k1():
    t1 = parse_newick("((a,b),c);")
    t2 = parse_newick("((a,c),b);")
    inst = Instance.from_trees(t1, t2, t2)
    s = solve(inst)
    assert s.k == 1 == oracle_two_tree_maaf(t1, t2)
    assert all(displays(s.network, t) for t in inst.trees)


def test_solve_no_solution_within_budget():
    t1 = parse_newick("((a,b),c);")
    t2 = parse_newick("((a,c),b);")
    with pytest.raises(NoSolutionWithin):
        solve(Instance.from_trees(t1, t2, t2), max_k=0)


def test_solve_monotone_budget():
    inst = gen_random(6, 1, seed=4)
    s1 = solve(inst, max_k=4)
    s2 = solve(inst, max_k=7)
    assert s1.k == s2.k


def test_solve_three_way_incompatible_quartet():
    t1 = parse_newick("((a,b),(c,d));")
    t2 = parse_newick("((a,c),(b,d));")
    t3 = parse_newick("((a,d),(b,c));")
    inst = Instance.from_trees(t1, t2, t3)
    # exhaustively, no network with two reticulations displays all three
    assert oracle_exhaustive_networks(inst, max_k=2) is None
    s = solve(inst)
    assert s.k == 3
    assert all(displays(s.network, t) for t in inst.trees)


def test_solve_agrees_with_exhaustive_oracle_small():
    for seed in range(8):
        inst = gen_random(5, 1, seed=seed)
        s = solve(inst)
        assert s.k == oracle_exhaustive_networks(inst, max_k=2), f"seed {seed}"


def test_solve_agrees_with_two_tree_oracle():
    rng = random.Random(99)
    for trial in range(10):
        labels = [f"t{i + 1}" for i in range(7)]
        t1 = random_tree(labels, rng)
        t2 = t1
        for _ in range(2):
            t2 = rspr(t2, rng)
        inst = Instance.from_trees(t1, t2, t2)
        s = solve(inst)
        assert s.k == oracle_two_tree_maaf(t1, t2), f"trial {trial}"


def test_solution_soundness_and_structure_bounds():
    for seed in (3, 14, 15):
        inst = gen_random(7, 2, seed=seed)
        s = solve(inst)
        assert s.network.is_binary()
        assert all(displays(s.network, t) for t in inst.trees)
        f = deletion_forest(s.network)
        assert len(f) <= s.k + 1
        assert is_acyclic_agreement_forest(f, inst.trees)
        if s.k >= 1:
            assert all(x <= s.k - 1 for x in s.certificate["invisible_counts"])


def expand_labels(mapping, labels):
    """The taxa that labels stand for, with each synthetic label replaced by
    the taxa of its pendant subtree (the reduction makes them in one pass)."""
    return frozenset().union(*(mapping[x].leaf_labels() if x in mapping else {x} for x in labels))


def test_certificate_forest_matches_network_deletion_forest():
    """The certificate's forest is exactly the deletion forest of the
    returned network, modulo undoing the pendant-subtree reduction."""
    for seed in (2, 9, 21):
        inst = gen_random(6, 2, seed=seed)
        s = solve(inst)
        expanded = {expand_labels(inst.reduction, b) for b in s.certificate["forest"]}
        assert deletion_forest(s.network).blocks == frozenset(expanded)


def test_invisible_component_instance():
    """Every optimal network for this instance keeps a component that loses
    all taxa once the reticulation edges are deleted (found by exhaustive
    search over all k=2 networks displaying the first tree)."""
    inst = Instance.from_newicks([
        "(t4,((t1,t3),(t2,t5)));",
        "((t1,t4),(t3,(t2,t5)));",
        "(t4,(t3,(t2,(t1,t5))));",
    ])
    s = solve(inst)
    assert s.k == 2 == oracle_exhaustive_networks(inst, max_k=2)
    assert has_invisible_component(s.network)
    optimal = list(all_optimal_networks(inst, 2))
    assert optimal
    assert all(has_invisible_component(n) for n in optimal)


def test_solve_pulls_candidates_only_up_to_the_hit(monkeypatch):
    """The solving budget's candidate stream is consumed lazily and left at
    the first verified hit."""
    inst = gen_random(5, 1, seed=0)
    original = solver.enumerate_aafs
    pulled = {}

    def counting(ts, k, **kwargs):
        pulled[k] = 0
        for cand in original(ts, k, **kwargs):
            pulled[k] += 1
            yield cand

    monkeypatch.setattr(solver, "enumerate_aafs", counting)
    s = solve(inst)
    total = sum(1 for _ in original(inst.reduced, s.k))
    assert pulled[s.k] < total


def relabelled(t, rename):
    return PhyloTree(t.parent, t.children, [rename.get(x, x) for x in t.label], t.root)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 8), st.integers(1, 2))
def test_relabelling_taxa_keeps_k(seed, n, moves):
    """A random bijection on the taxa permutes the mask bits (they follow
    sorted label order) and leaves the hybridization number alone."""
    inst = gen_random(n, moves, seed)
    rng = random.Random(seed)
    taxa = sorted(inst.taxa)
    fresh = [f"r{i}" for i in range(n)]
    rng.shuffle(fresh)
    rename = dict(zip(taxa, fresh))
    other = Instance.from_trees(*(relabelled(t, rename) for t in inst.trees))
    assert solve(other).k == solve(inst).k


def test_trace_has_one_budget_event_per_budget(monkeypatch):
    """The lower bound L comes first, then budgets L..k each log one event,
    counting the candidates searched; no budget below L is searched."""
    original = solver.search_cnet
    searched = {}

    def counting(fstar, max_hyb, **kwargs):
        searched[max_hyb] = searched.get(max_hyb, 0) + 1
        return original(fstar, max_hyb=max_hyb, **kwargs)

    monkeypatch.setattr(solver, "search_cnet", counting)
    trace = []
    s = solve(gen_random(6, 2, seed=1), trace=trace)
    assert trace[0]["event"] == "lower_bound"
    low = trace[0]["k"]
    assert s.certificate["lower_bound"] == low <= s.k
    assert trace[0]["pair"] == s.certificate["lower_bound_pair"]
    assert min(searched) >= low
    budgets = [ev for ev in trace if ev["event"] == "budget"]
    assert [ev["k"] for ev in budgets] == list(range(low, s.k + 1))
    assert [ev["candidates"] for ev in budgets] == [searched.get(k, 0)
                                                    for k in range(low, s.k + 1)]
    assert budgets[-1]["candidates"] >= 1


def test_solve_fails_fast_when_a_pair_needs_more_than_max_k(monkeypatch):
    """A pair of trees that needs more than max_k cuts settles the solve
    before the enumeration's memo is built or any budget is walked."""

    def never(*args, **kwargs):
        raise AssertionError("no budget may be walked")

    monkeypatch.setattr(solver, "WalkMemo", never)
    monkeypatch.setattr(solver, "enumerate_aafs", never)
    trace = []
    with pytest.raises(NoSolutionWithin):
        solve(gen_random(12, 3, 5), max_k=2, trace=trace)
    # the first pair already needs more than 2 cuts, so the bound reads 3
    assert trace == [{"event": "lower_bound", "k": 3, "pair": [0, 1]}]


def test_a_time_limit_holds_inside_the_lower_bound(monkeypatch):
    """The clock is read at each branch of the bound: a clock that moves on
    one second per reading trips a 2.5 s limit before any budget."""
    ticks = itertools.count()
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
    trace = []
    with pytest.raises(BudgetExceeded, match="lower bound"):
        solve(gen_random(12, 3, 5), trace=trace, time_limit=2.5)
    assert trace == []


def test_solve_time_limit():
    inst = gen_random(8, 2, seed=12)
    with pytest.raises(BudgetExceeded):
        solve(inst, time_limit=1e-9)


@pytest.mark.parametrize("options", [
    {"time_limit": float("nan")},
    {"time_limit": -1},
    {"time_limit": float("inf")},
    {"max_k": -1},
    {"max_k": True},
    {"max_k": False},
    {"time_limit": True},
    {"time_limit": False},
])
def test_solve_rejects_out_of_range_arguments(options):
    """Called directly, not only through the CLI, solve rejects a budget
    that is negative or not an int, and a time limit that is not a finite
    number >= 0; a bool is neither, though Python counts it as an int."""
    (name,) = options
    prefix = {"max_k": "--max-k must be", "time_limit": "--time-limit must be"}[name]
    with pytest.raises(InputError, match=f"^{prefix}"):
        solve(gen_random(6, 2, 0), **options)


def test_solve_time_limit_is_read_inside_the_enumeration(monkeypatch):
    """A clock that advances one second per reading trips a 30 s limit after
    about 30 clock reads of the enumeration's cut walk, not at the end of a
    budget's enumeration.  The lower bound is given a clock of its own, so
    that its reads do not count."""
    ticks = itertools.count()
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
    bound = solver.pairwise_lower_bound
    monkeypatch.setattr(solver, "pairwise_lower_bound",
                        lambda trees, cap, clock: bound(trees, cap, lambda: None))
    original = solver.enumerate_aafs
    reads = []

    def counting(*args, clock, **kwargs):
        def counted():
            reads.append(None)
            clock()
        return original(*args, clock=counted, **kwargs)

    monkeypatch.setattr(solver, "enumerate_aafs", counting)
    with pytest.raises(BudgetExceeded):
        solve(gen_random(12, 3, 5), time_limit=30)
    assert 0 < len(reads) <= 40


def test_solve_time_limit_overshoot_is_bounded():
    """A limit of 1 s on an instance that takes far longer raises within
    10% of the limit.  Its lower bound is 7, and budget 7 alone takes over
    two minutes."""
    inst = gen_random(50, 4, 3)
    started = time.monotonic()
    with pytest.raises(BudgetExceeded):
        solve(inst, time_limit=1.0)
    assert time.monotonic() - started < 1.1


def test_identical_5000_taxon_caterpillars_solve_at_k0():
    taxa = [f"t{i}" for i in range(5000)]
    left, right = taxa[0], taxa[0]
    for t in taxa[1:]:
        left, right = f"({left},{t})", f"({t},{right})"
    inst = Instance.from_newicks([left + ";", left + ";", right + ";"])
    s = solve(inst)
    assert s.k == 0
    assert all(displays(s.network, t) for t in inst.trees)
    assert hybridization_number(s.network) == 0


# ---------------------------------------------------------------------------
# oracles and generator
# ---------------------------------------------------------------------------


def test_two_tree_oracle_examples():
    t = parse_newick("(((a,b),c),d);")
    assert oracle_two_tree_maaf(t, t) == 0
    rng = random.Random(1)
    moved = rspr(t, rng)
    assert oracle_two_tree_maaf(t, moved) <= 1
    assert oracle_two_tree_maaf(t, moved) == solve(Instance.from_trees(t, moved, moved)).k


def test_two_tree_oracle_budget():
    t1 = parse_newick("((a,b),(c,d));")
    t2 = parse_newick("((a,c),(b,d));")
    with pytest.raises(BudgetExceeded):
        oracle_two_tree_maaf(t1, t2, max_k=0)


def test_exhaustive_oracle_identical_zero():
    t = parse_newick("((a,b),c);")
    assert oracle_exhaustive_networks(Instance.from_trees(t, t, t)) == 0


def test_exhaustive_oracle_guard():
    inst = gen_random(7, 1, seed=0)
    with pytest.raises(BudgetExceeded):
        oracle_exhaustive_networks(inst)


def test_add_reticulation_keeps_structure():
    net = network_from_tree(parse_newick("((a,b),c);"))
    m = len(net.edges)
    seen = 0
    for i in range(m):
        for j in range(m):
            out = add_reticulation(net, i, j)
            if out is not None:
                seen += 1
                assert hybridization_number(out) == 1
                assert out.is_binary()
    assert seen > 0


def test_gen_random_seed_stable_and_moves_zero():
    a = gen_random(6, 2, seed=7)
    b = gen_random(6, 2, seed=7)
    for x, y in zip(a.trees, b.trees):
        assert isomorphic(x, y)
    ident = gen_random(5, 0, seed=1)
    assert isomorphic(ident.trees[0], ident.trees[1])
    assert solve(ident).k == 0


def test_one_move_bounds_k_by_two():
    for seed in range(5):
        inst = gen_random(6, 1, seed=seed)
        assert solve(inst).k <= 2


def test_rspr_produces_valid_instance_trees():
    rng = random.Random(2)
    t = random_tree([f"x{i}" for i in range(6)], rng)
    for _ in range(10):
        t = rspr(t, rng)
        t.check_instance_tree()
        assert t.leaf_labels() == {RHO} | {f"x{i}" for i in range(6)}
