import functools
import json
import math
import sys
from pathlib import Path
from typing import List

import pytest

from hybnet import reconstruct, solver
from hybnet.aaf_search import enumerate_aafs
from hybnet.errors import BudgetExceeded, InternalInconsistency
from hybnet.extended_aaf import (
    Component,
    Description,
    ExtendedAAF,
    WiringGuess,
    guesses_for,
)
from hybnet.forests import Forest
from hybnet.networks import (
    deletion_forest,
    displays,
    emit,
    hybridization_number,
    induce_network,
    validate_cnet,
)
from hybnet.reconstruct import (
    PartialSignature,
    Rejection,
    SigEdge,
    _Builder,
    edge_verdicts,
    expand_components,
    locks_stuck_inode,
    search_cnet,
)
from hybnet.oracles import (
    build_signature,
    enumerate_descriptions,
    free_under,
    guess_kind,
    reconstruct_cnet,
)
from hybnet.solver import gen_random, solve
from hybnet.trees import RHO, parse_newick

SEARCH_FIXTURE = Path(__file__).parent / "data" / "search_fixture.jsonl"
# (n, moves, seed) of the instances whose solves the search fixture records
SEARCH_FIXTURE_INSTANCES = ((6, 2, 1), (6, 2, 5), (6, 3, 3), (7, 2, 0),
                            (7, 3, 2), (8, 2, 4), (8, 3, 1))

RED = parse_newick("(((c,d),(b,a)),e);")
GREEN = parse_newick("(a,(((b,c),d),e));")
BLUE = parse_newick("(a,(b,((c,d),e)));")
TREES = (RED, GREEN, BLUE)
FOREST = Forest([{"b"}, {"c"}, {"d"}, {"a", "e", RHO}])

R, G, B = 0, 1, 2


def fixture_description():
    fstar = ExtendedAAF(FOREST, TREES)

    def comp(name):
        return next(c for c in fstar.components if c.name() == name)

    v1 = comp("I(T1:{c,d})")
    v2 = comp("I(T2:{b,c,d})")
    v3 = comp("I(T2:{b,c})")
    v4 = comp("I(T3:{c,d})")
    guesses = {
        comp("{b}"): WiringGuess(((frozenset({R}), R), (frozenset({G, B}), G))),
        comp("{c}"): WiringGuess(((frozenset({R, G}), G), (frozenset({B}), B))),
        comp("{d}"): WiringGuess(((frozenset({R, G}), R), (frozenset({B}), B))),
        v1: WiringGuess(((frozenset({R}), R), (frozenset({G, B}), G))),
        v2: WiringGuess(((frozenset({R}), R), (frozenset({G, B}), G))),
        v3: WiringGuess(((frozenset({R, G, B}), R),)),
        v4: WiringGuess(((frozenset({B}), B),)),
        comp("{a,e,ρ}"): WiringGuess(()),
    }
    return fstar, Description(fstar, tuple(sorted(guesses.items(), key=lambda kv: fstar.index[kv[0]])))


def test_single_rho_component_description():
    t = parse_newick("((a,b),c);")
    fstar = ExtendedAAF(Forest([t.leaf_labels()]), (t, t, t))
    (d,) = enumerate_descriptions(fstar)
    sig = build_signature(d)
    assert isinstance(sig, PartialSignature)
    assert len(sig.nodes) == 1
    cnet = reconstruct_cnet(d)
    assert not isinstance(cnet, Rejection)
    assert hybridization_number(cnet) == 0
    assert validate_cnet(cnet, (t, t, t)).ok


def test_fixture_signature_builds_and_buddies_identified():
    fstar, d = fixture_description()
    trace = []
    sig = build_signature(d, trace=trace)
    assert isinstance(sig, PartialSignature)
    buddy_nodes = [comps for _, comps in sig.nodes if len(comps) > 1]
    assert len(buddy_nodes) == 1
    names = {c.name() for c in buddy_nodes[0]}
    assert names == {"I(T1:{c,d})", "I(T2:{b,c,d})"}
    merges = [e for e in trace if e["event"] == "merge"]
    assert [m["component"] for m in merges] == [
        "{b}", "{c}", "{d}", "I(T2:{b,c})", "I(T1:{c,d})", "I(T3:{c,d})", "{a,e,ρ}",
    ]


def test_fixture_expansion_attachment_orders():
    fstar, d = fixture_description()
    trace = []
    cnet = reconstruct_cnet(d, trace=trace)
    assert not isinstance(cnet, Rejection)
    expands = [e for e in trace if e["event"] == "expand" and e["component"] == "{a,e,ρ}"]
    assert len(expands) == 1
    orders = expands[0]["attach_order"]
    # E_{f_a}: the pendant above b's red edge attaches above the red edge of b
    assert orders["a"] == ["e7", "e0"]
    assert orders["e"] == ["e8", "e9"]


def test_fixture_cnet_validates_and_has_k4():
    fstar, d = fixture_description()
    cnet = reconstruct_cnet(d)
    assert validate_cnet(cnet, TREES).ok
    assert hybridization_number(cnet) == 4
    net = induce_network(cnet)
    assert net.is_binary()
    assert hybridization_number(net) == 4
    for t in TREES:
        assert displays(net, t)
    assert deletion_forest(net).blocks == FOREST.blocks


def test_fixture_signature_deterministic_under_random_orders():
    fstar, d = fixture_description()
    base = build_signature(d)
    for seed in range(10):
        sig = build_signature(d, seed=seed)
        assert isinstance(sig, PartialSignature)
        assert sig.canonical() == base.canonical()


def test_buddy_guess_mismatch_rejected():
    fstar, d = fixture_description()
    v1 = next(c for c in fstar.components if c.name() == "I(T1:{c,d})")
    other = WiringGuess(((frozenset({R}), R), (frozenset({G}), G), (frozenset({B}), B)))
    guesses = tuple((c, other if c == v1 else g) for c, g in d.guesses)
    bad = Description(fstar, guesses)
    result = build_signature(bad)
    assert isinstance(result, Rejection)
    # the altered guess changes the colour union, so the node is never free;
    # alter only the split colours to hit the buddy check itself
    v2 = next(c for c in fstar.components if c.name() == "I(T2:{b,c,d})")
    tweaked = WiringGuess(((frozenset({R}), R), (frozenset({G, B}), B)))
    guesses2 = tuple((c, tweaked if c == v2 else g) for c, g in d.guesses)
    result2 = build_signature(Description(fstar, guesses2))
    assert isinstance(result2, Rejection)
    assert result2.reason == "BuddyGuessMismatch"


def test_most_descriptions_reject_but_search_finds_fixture():
    fstar, _ = fixture_description()
    found = search_cnet(fstar)
    assert found is not None
    cnet, d, sig = found
    assert validate_cnet(cnet, TREES).ok
    assert deletion_forest(induce_network(cnet)).blocks == FOREST.blocks


def test_search_equals_enumeration_on_small_case():
    # identical trees, one block: exactly one description, search agrees
    t = parse_newick("((a,b),c);")
    fstar = ExtendedAAF(Forest([t.leaf_labels()]), (t, t, t))
    found = search_cnet(fstar)
    assert found is not None
    cnet, d, sig = found
    results = [reconstruct_cnet(desc) for desc in enumerate_descriptions(fstar)]
    ok = [c for c in results if not isinstance(c, Rejection)]
    assert len(ok) == 1


def test_roundtrip_description_extraction():
    """Rebuild the description from the reconstructed CNET and check the
    signature comes out identical."""
    fstar, d = fixture_description()
    sig1 = build_signature(d)
    cnet = reconstruct_cnet(d)
    net = induce_network(cnet)
    aaf = deletion_forest(net)
    fstar2 = ExtendedAAF(aaf, TREES)
    assert [c.name() for c in fstar2.components] == [c.name() for c in fstar.components]
    sig2 = build_signature(Description(fstar2, tuple(
        (next(c2 for c2 in fstar2.components if c2.name() == c.name()), g)
        for c, g in d.guesses)))
    assert isinstance(sig2, PartialSignature)
    assert sig2.canonical() == sig1.canonical()


def test_rejections_are_sound_for_tiny_instance():
    """Every description either reconstructs to a valid CNET whose deletion
    forest is the described one, or is rejected; both outcomes occur."""
    t1 = parse_newick("((a,b),c);")
    t2 = parse_newick("((a,c),b);")
    f = Forest([{"b"}, {"a", "c", RHO}])
    fstar = ExtendedAAF(f, (t1, t2, t2))
    good = 0
    reasons = set()
    for d in enumerate_descriptions(fstar):
        out = reconstruct_cnet(d)
        if isinstance(out, Rejection):
            reasons.add(out.reason)
        else:
            assert validate_cnet(out, (t1, t2, t2)).ok
            assert deletion_forest(induce_network(out)).blocks == f.blocks
            good += 1
    assert good >= 1
    # the {b} pendant hangs in different places per tree, so every guess
    # sharing an edge between two colours must conflict
    assert "BranchConflict" in reasons


def test_branch_conflict_rejection():
    """Guesses that force one child edge onto two different component edges
    are rejected with BranchConflict; only the all-singleton wiring works."""
    t1 = parse_newick("((a,b),c);")   # b branches off the a edge
    t2 = parse_newick("((a,c),b);")   # b branches off the root edge
    t3 = parse_newick("(a,(b,c));")   # b branches off the c edge
    f = Forest([{"b"}, {"a", "c", RHO}])
    fstar = ExtendedAAF(f, (t1, t2, t3))
    reasons = {}
    for d in enumerate_descriptions(fstar):
        out = reconstruct_cnet(d)
        key = out.reason if isinstance(out, Rejection) else "OK"
        reasons[key] = reasons.get(key, 0) + 1
    assert reasons == {"OK": 1, "BranchConflict": 9}


def test_cyclic_attach_order_rejection():
    """Two pendants forced onto the same component edge in opposite orders in
    different trees give CyclicAttachOrder for joint-colour guesses."""
    t1 = parse_newick("(((a,y),x),c);")
    t2 = parse_newick("(((a,x),y),c);")
    t3 = parse_newick("(((a,y),x),c);")
    f = Forest([{"a", "c", RHO}, {"x"}, {"y"}])
    fstar = ExtendedAAF(f, (t1, t2, t3))
    reasons = {}
    for d in enumerate_descriptions(fstar):
        out = reconstruct_cnet(d)
        key = out.reason if isinstance(out, Rejection) else "OK"
        reasons[key] = reasons.get(key, 0) + 1
        if key == "OK":
            assert deletion_forest(induce_network(out)).blocks == f.blocks
    assert reasons.get("CyclicAttachOrder", 0) >= 1
    assert reasons.get("OK", 0) >= 1
    # single-parent guesses keep x or y glued to the root component
    assert reasons.get("DeletionForestMismatch", 0) >= 1


def _snapshot(b):
    return (
        {eid: (e.bottom, e.colours, e.top_colour, dict(e.reps)) for eid, e in b.edges.items()},
        dict(b.top), dict(b.live), dict(b.nodes), dict(b.assigned), b.assigned_mask,
        b.export().canonical(),
    )


def test_clone_then_apply_leaves_parent_builder_unchanged():
    """Replaying the fixture one merge at a time on clones never touches the
    builder cloned from, and the clone shares its edge objects."""
    fstar, d = fixture_description()
    guesses = {fstar.index[c]: g for c, g in d.guesses}
    b = _Builder(fstar)
    while not b.done():
        x, plan = next(free_under(b, guesses))
        before = _snapshot(b)
        nxt = b.clone()
        nxt.apply(x, guesses[x], plan)
        assert _snapshot(b) == before
        assert all(nxt.edges[eid] is e for eid, e in b.edges.items())
        assert len(nxt.assigned) > len(b.assigned)
        b = nxt
    assert b.export().canonical() == build_signature(d).canonical()


def test_export_lists_edges_in_id_order_with_tops():
    fstar, d = fixture_description()
    guesses = {fstar.index[c]: g for c, g in d.guesses}
    b = _Builder(fstar)
    while not b.done():
        x, plan = next(free_under(b, guesses))
        b.apply(x, guesses[x], plan)
        sig = b.export()
        assert [e.eid for e in sig.edges] == list(range(len(b.edges)))
        assert sig.top == b.top
        assert all(sig.top[eid] in dict(sig.nodes) for eid in b.top)
    assert set(sig.top) == {e.eid for e in sig.edges}


def test_sig_edge_reps_are_left_out_of_comparison():
    a = SigEdge(0, 1, frozenset({R, G}), R, {R: 3, G: 4})
    b = SigEdge(0, 1, frozenset({R, G}), R, {R: 5, G: 6})
    assert a == b and hash(a) == hash(b)
    assert a != SigEdge(0, 1, frozenset({R, G}), G, {R: 3, G: 4})


def test_search_stops_when_the_clock_raises():
    fstar, _ = fixture_description()
    calls = []

    def clock():
        calls.append(None)
        if len(calls) == 5:
            raise BudgetExceeded("time limit")

    with pytest.raises(BudgetExceeded):
        search_cnet(fstar, clock=clock)
    assert len(calls) == 5


def _counted_search(fstar, max_hyb):
    """search_cnet's result and its node count (calls of the clock)."""
    nodes = []
    return search_cnet(fstar, max_hyb=max_hyb, clock=lambda: nodes.append(None)), len(nodes)


def _search_line(instance, k, fstar, found, nodes) -> str:
    row = {"instance": list(instance), "k": k, "forest": fstar.forest.sorted_blocks(),
           "nodes": nodes, "description": None, "enewick": None}
    if found is not None:
        cnet, d, _ = found
        row["description"] = json.loads(d.to_json())
        row["enewick"] = emit(induce_network(cnet), "enewick")
    return json.dumps(row, ensure_ascii=False, sort_keys=True) + "\n"


def fixture_changes(old: str, new: str) -> List[str]:
    """What a regenerated search fixture changes against the one it
    replaces, matching lines by instance, k and forest: found/not-found
    flips, lines whose description or eNewick changed, the node total, and
    how many lines went up and down."""
    def rows(text):
        return {json.dumps([row["instance"], row["k"], row["forest"]], ensure_ascii=False): row
                for row in map(json.loads, text.splitlines())}

    before, after = rows(old), rows(new)
    both = [key for key in after if key in before]
    flips = [key for key in both
             if (before[key]["description"] is None) != (after[key]["description"] is None)]
    changed = [key for key in both if key not in flips and any(
        before[key][f] != after[key][f] for f in ("description", "enewick"))]
    up = sum(after[key]["nodes"] > before[key]["nodes"] for key in both)
    down = sum(after[key]["nodes"] < before[key]["nodes"] for key in both)
    total_before = sum(row["nodes"] for row in before.values())
    total_after = sum(row["nodes"] for row in after.values())
    return [
        f"lines: {len(before)} -> {len(after)}, {len(both)} matched",
        f"found/not-found flips: {len(flips)}",
        f"description or eNewick changed: {len(changed)}",
        f"nodes: {total_before:,} -> {total_after:,}",
        f"matched lines with more nodes: {up}, fewer: {down}",
        *(f"  flip: {key}" for key in flips),
        *(f"  changed: {key}" for key in changed),
        *(f"  only before: {key}" for key in before if key not in after),
        *(f"  only after: {key}" for key in after if key not in before),
    ]


def write_search_fixture(path=SEARCH_FIXTURE):
    """One line per search_cnet call that solve makes on the fixture
    instances: the candidate forest, the number of search nodes, and the
    description and eNewick of the network found, or nulls.  Prints what
    the new file changes against the one it replaces."""
    lines = []
    original = solver.search_cnet
    for instance in SEARCH_FIXTURE_INSTANCES:
        def recording(fstar, max_hyb=None, clock=None):
            found, nodes = _counted_search(fstar, max_hyb)
            lines.append(_search_line(instance, max_hyb, fstar, found, nodes))
            return found

        solver.search_cnet = recording
        try:
            solve(gen_random(*instance))
        finally:
            solver.search_cnet = original
    text = "".join(lines)
    if path.exists():
        print("\n".join(fixture_changes(path.read_text(encoding="utf-8"), text)))
    path.write_text(text, encoding="utf-8")


def _fixture_searches():
    """(instance, k, fstar) of every search the search fixture records."""
    instances = {}
    for line in SEARCH_FIXTURE.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        key = tuple(row["instance"])
        if key not in instances:
            instances[key] = gen_random(*key)
        yield key, row["k"], ExtendedAAF(Forest(row["forest"]), instances[key].reduced)


def test_search_replays_the_search_fixture_byte_for_byte():
    """Every recorded search visits the same number of nodes and returns the
    same description and network."""
    instances = set()
    lines = []
    for key, k, fstar in _fixture_searches():
        instances.add(key)
        found, nodes = _counted_search(fstar, k)
        lines.append(_search_line(key, k, fstar, found, nodes))
    assert instances == set(SEARCH_FIXTURE_INSTANCES)
    assert "".join(lines) == SEARCH_FIXTURE.read_text(encoding="utf-8")


def test_fixture_changes_reports_flips_changed_networks_and_node_moves():
    def line(forest, nodes, description=None, enewick=None):
        return json.dumps({"instance": [6, 2, 1], "k": 3, "forest": forest, "nodes": nodes,
                           "description": description, "enewick": enewick}) + "\n"

    old = line([["a"]], 10) + line([["b"]], 20, {"d": 1}, "n1;") + line([["c"]], 5, {"d": 2}, "n2;")
    new = line([["a"]], 12, {"d": 3}, "n3;") + line([["b"]], 8, {"d": 1}, "n4;") + line([["e"]], 1)
    report = fixture_changes(old, new)
    assert report[:5] == [
        "lines: 3 -> 3, 2 matched",
        "found/not-found flips: 1",
        "description or eNewick changed: 1",
        "nodes: 35 -> 21",
        "matched lines with more nodes: 1, fewer: 1",
    ]
    assert [r.split(":")[0] for r in report[5:]] == ["  flip", "  changed", "  only before",
                                                     "  only after"]


def test_search_applies_only_guesses_it_descends_into(monkeypatch):
    """Every apply leads to a search node: a guess with a doomed new edge is
    rejected before the branch is copied.  On the fixture and on every
    search of a seeded solve, applies == search nodes - searches."""
    applies, nodes, searches = [], [], []
    original_apply = _Builder.apply

    def counting_apply(self, *args, **kwargs):
        applies.append(None)
        return original_apply(self, *args, **kwargs)

    def tick():
        nodes.append(None)

    monkeypatch.setattr(_Builder, "apply", counting_apply)
    fstar, _ = fixture_description()
    search_cnet(fstar, clock=tick)
    assert len(nodes) > 1
    assert len(applies) == len(nodes) - 1

    applies.clear()
    nodes.clear()
    original_search = solver.search_cnet

    def counting_search(fstar, max_hyb=None, clock=None):
        searches.append(None)
        return original_search(fstar, max_hyb=max_hyb, clock=tick)

    monkeypatch.setattr(solver, "search_cnet", counting_search)
    solve(gen_random(7, 3, 2))
    assert len(searches) > 1
    assert len(applies) == len(nodes) - len(searches)


def _cnet_rows(cnet):
    return (cnet.n_nodes, [(e.eid, e.tail, e.head, e.colours) for e in cnet.edges], cnet.label)


def _split_variant(d):
    """The description d with the split of every new edge whose top colour
    edge_verdicts says nothing reads moved to another colour of the edge, and
    the number of splits moved.  Replayed merge by merge, so that each edge's
    pendants are known and buddies take the changed guess too."""
    fstar = d.fstar
    guesses = {fstar.index[c]: g for c, g in d.guesses}
    b = _Builder(fstar)
    moved = 0
    while not b.done():
        x, plan = next(free_under(b, guesses), (None, None))
        assert x is not None, "a moved split left no component free"
        edges = []
        for colours, split in guesses[x].edges:
            reps = {s: plan[2][s] for s in colours}
            if len(colours) > 1 and edge_verdicts(fstar, split, reps)[1]:
                split = min(colours - {split})
                moved += 1
            edges.append((colours, split))
        b.apply(x, WiringGuess(tuple(edges)), plan)
    comps = fstar.components
    return Description(fstar, tuple((comps[x], g) for x, g in sorted(b.assigned.items()))), moved


def test_guesses_differing_in_unread_splits_give_the_same_cnet():
    """The search branches once per class of guesses whose new edges differ
    only in splits nothing reads.  Moving every such split, in the fixture
    description and in each description the fixture searches return, leaves
    the CNET unchanged."""
    descriptions = [fixture_description()[1]]
    for _, k, fstar in _fixture_searches():
        found = search_cnet(fstar, max_hyb=k)
        if found is not None:
            descriptions.append(found[1])
    assert len(descriptions) > 1
    total = 0
    for d in descriptions:
        variant, moved = _split_variant(d)
        total += moved
        want = expand_components(build_signature(d), d)
        got = expand_components(build_signature(variant), variant)
        assert _cnet_rows(got) == _cnet_rows(want)
    assert total > 0


# (instance, largest k) whose candidate forests the search is checked
# against enumerate_descriptions on; both have forests where it skips guesses
ORACLE_INSTANCES = (((5, 2, 3), 3), ((4, 2, 1), 3))


def _oracle_forests():
    """The extended AAFs that the search-against-enumeration test checks."""
    for args, top_k in ORACLE_INSTANCES:
        reduced = gen_random(*args).reduced
        seen = set()
        for k in range(top_k + 1):
            for cand in enumerate_aafs(reduced, k):
                blocks = tuple(map(tuple, cand.forest.sorted_blocks()))
                if blocks in seen:
                    continue
                seen.add(blocks)
                fstar = ExtendedAAF(cand.forest, reduced)
                if math.prod(len(guesses_for(guess_kind(c))) for c in fstar.components) <= 20_000:
                    yield fstar


def _stuck_inodes(b):
    """The unassigned invisible nodes of builder b that are locked, both
    child pendants holding root edges of their tree's top colour, and whose
    plan fails."""
    out = set()
    for y, c in enumerate(b.fstar.components):
        if c.kind != "inode" or y in b.assigned:
            continue
        eids = [b.live.get(p) for p in b.attached[y]]
        if (None not in eids and all(b.edges[e].top_colour == c.tree for e in eids)
                and b._inode_plan(y) is None):
            out.add(y)
    return out


class _LockWatch:
    """Watches the merges of one replay, called with the arguments of
    _Builder.apply right before each merge.  Each new edge that
    locks_stuck_inode fires on must leave its invisible node locked without
    a plan in the state after the merge; the nodes that do not are kept in
    missed.  Counts the edges fired on, and whether some state had a locked
    invisible node without a plan."""

    def __init__(self):
        self.fired, self.reached, self.missed = 0, False, set()
        self.builder = self.locked = None

    def __call__(self, b, x, guess, plan):
        self.settle()
        fstar = b.fstar
        assigned = b.assigned_mask | 1 << x | sum(1 << y for y in plan[1])
        self.locked = [fstar.owner[split][fstar.trees[split].parent[plan[2][split]]]
                       for colours, split in guess.edges
                       if locks_stuck_inode(b, plan[0], assigned, split, colours, plan[2])]
        self.fired += len(self.locked)
        self.builder = b

    def settle(self):
        """Check the state after the last merge seen."""
        if self.builder is not None:
            now = _stuck_inodes(self.builder)
            self.missed |= set(self.locked) - now
            self.reached = self.reached or bool(now)
            self.builder = None


@functools.lru_cache(maxsize=None)
def _description_walk():
    """One replay of every description of the oracle forests, shared by the
    two tests below.  Returns, per forest, the forest and the hybridization
    numbers of its descriptions that reconstruct; the number of new edges
    locks_stuck_inode fired on; the invisible nodes it fired on that were not
    left locked without a plan, per description; and the descriptions whose
    replay reached a locked invisible node without a plan."""
    forests, fired, missed, stuck = [], 0, [], []
    watch = None
    original = _Builder.apply

    def watched(self, x, guess, plan):
        watch(self, x, guess, plan)
        return original(self, x, guess, plan)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Builder, "apply", watched)
        for fstar in _oracle_forests():
            costs = set()
            for d in enumerate_descriptions(fstar):
                watch = _LockWatch()
                out = reconstruct_cnet(d)
                watch.settle()
                if not isinstance(out, Rejection):
                    costs.add(hybridization_number(out))
                fired += watch.fired
                if watch.missed:
                    missed.append((d, watch.missed))
                if watch.reached:
                    stuck.append(d)
            forests.append((fstar, costs))
    return forests, fired, missed, stuck


def test_search_finds_a_network_exactly_when_some_description_does():
    """On every candidate forest of small instances with at most 20k
    descriptions, search_cnet at each budget k finds a network iff some
    description reconstructs with hybridization number <= k."""
    forests = _description_walk()[0]
    for fstar, costs in forests:
        for budget in range(7):
            found = search_cnet(fstar, max_hyb=budget)
            assert (found is not None) == any(h <= budget for h in costs), (
                fstar.forest.sorted_blocks(), budget)
            if found is not None:
                assert hybridization_number(found[0]) <= budget
    assert len(forests) >= 10


def test_a_locked_invisible_node_without_a_plan_ends_the_replay_in_a_rejection():
    """The search drops a guess whose new edge locks an invisible node that
    can never be merged (locks_stuck_inode).  The replay does not prune, so
    on every description of the oracle forests: each new edge the rule fires
    on leaves its invisible node locked without a plan, and a replay that
    reaches such a node ends in a Rejection."""
    _, fired, missed, stuck = _description_walk()
    assert not missed
    for d in stuck:
        assert isinstance(build_signature(d), Rejection)
    assert fired and stuck


def test_new_edges_never_overwrite_a_live_pendant(monkeypatch):
    """A new root edge never represents a pendant that a live root edge
    already represents, so a search state is fixed by its live edges."""
    made = []
    original = _Builder._new_edge

    def checked(self, colours, top_colour, reps, bottom):
        clash = [(s, node) for s, node in reps.items() if (s, node) in self.live]
        assert not clash, clash
        made.append(None)
        return original(self, colours, top_colour, reps, bottom)

    monkeypatch.setattr(_Builder, "_new_edge", checked)
    for _, k, fstar in _fixture_searches():
        search_cnet(fstar, max_hyb=k)
    solve(gen_random(7, 3, 2))
    assert made


def test_a_free_component_stays_free_with_the_same_plan_until_processed():
    """The search may branch on any free component (criterion 7) because
    freeness is stable: across every merge of the searches the search
    fixture records and of a seeded solve, each component free before the
    merge, other than the one merged and its buddies, is free after it with
    an identical plan."""
    checks = []
    original = _Builder.apply

    def watched(self, x, guess, plan):
        everyone = range(len(self.fstar.components))
        before = dict(self.free_components(everyone))
        new = original(self, x, guess, plan)
        after = dict(self.free_components(everyone))
        for y, was in before.items():
            if y != x and y not in plan[1]:
                assert after.get(y) == was, (self.fstar.components[y].name(), was, after.get(y))
                checks.append(None)
        return new

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Builder, "apply", watched)
        for _, k, fstar in _fixture_searches():
            search_cnet(fstar, max_hyb=k)
        solve(gen_random(7, 3, 2))
    assert len(checks) > 1000


def _merger(fstar, e):
    """The only component that can merge root edge e: the block all its
    colours hang from, or else the component its top-colour pendant hangs
    from."""
    def hangs_from(s):
        return fstar.owner[s][fstar.trees[s].parent[e.reps[s]]]

    owners = {hangs_from(s) for s in e.colours}
    if len(owners) == 1 and fstar.components[min(owners)].kind == "block":
        return owners.pop()
    return hangs_from(e.top_colour)


def _searched_merges(watch):
    """Calls watch(builder, x, guess, plan) right before every merge of the
    searches the search fixture records and of a seeded solve."""
    original = _Builder.apply

    def watched(self, x, guess, plan):
        watch(self, x, guess, plan)
        return original(self, x, guess, plan)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Builder, "apply", watched)
        for _, k, fstar in _fixture_searches():
            search_cnet(fstar, max_hyb=k)
        solve(gen_random(7, 3, 2))


def test_every_edge_a_merge_consumes_has_the_processed_component_as_its_merger():
    """strands_inode rests on this: only an edge's merger can consume it, so
    a live edge waits for that one component."""
    consumed = []

    def watch(b, x, guess, plan):
        for eid in plan[0]:
            assert _merger(b.fstar, b.edges[eid]) == x, (b.fstar.components[x].name(), eid)
            consumed.append(eid)

    _searched_merges(watch)
    assert len(consumed) > 1000


def test_a_pendant_is_first_filled_by_the_merge_that_assigns_its_supplier(monkeypatch):
    """strands_inode rests on this too: a new edge that fills a pendant
    (s, w) no earlier edge of its branch held comes from the merge that
    assigns owner[s][w], the component whose root w is."""
    assigning: List[set] = []
    first_fills = []
    original_new_edge = _Builder._new_edge

    def checked(self, colours, top_colour, reps, bottom):
        for s, w in reps.items():
            if not any(s in e.colours and e.reps[s] == w for e in self.edges.values()):
                assert self.fstar.owner[s][w] in assigning[-1], (s, w)
                first_fills.append(None)
        return original_new_edge(self, colours, top_colour, reps, bottom)

    monkeypatch.setattr(_Builder, "_new_edge", checked)
    _searched_merges(lambda b, x, guess, plan: assigning.append({x, *plan[1]}))
    assert len(first_fills) > 1000


def test_no_signature_completes_below_a_guess_that_strands_an_inode_by_waiting():
    """With the "crossed" and "unsupplied" cases of strands_inode switched
    off, the fixture searches descend into the guesses those cases drop.
    No state below such a guess completes a signature, and both cases fire
    (the searches over the oracle forests never reach either)."""
    original = reconstruct.strands_inode
    fired = {"crossed": 0, "unsupplied": 0}
    completed = []
    original_apply, original_clone = _Builder.apply, _Builder.clone

    def locked_only(*args):
        case = original(*args)
        return case if case == "locked" else None

    def apply(self, x, guess, plan):
        assigned = self.assigned_mask | 1 << x | sum(1 << y for y in plan[1])
        for colours, split in guess.edges:
            case = original(self, plan[0], assigned, split, colours, plan[2])
            if case in fired:
                fired[case] += 1
                self.stranded = True
        return original_apply(self, x, guess, plan)

    def clone(self):
        out = original_clone(self)
        out.stranded = getattr(self, "stranded", False)
        return out

    def export(self):
        completed.append(getattr(self, "stranded", False))
        return original_export(self)

    original_export = _Builder.export
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reconstruct, "strands_inode", locked_only)
        mp.setattr(_Builder, "apply", apply)
        mp.setattr(_Builder, "clone", clone)
        mp.setattr(_Builder, "export", export)
        for _, k, fstar in _fixture_searches():
            search_cnet(fstar, max_hyb=k)
    assert fired["crossed"] and fired["unsupplied"], fired
    assert completed and not any(completed)


def test_strands_inode_finds_no_component_above_a_tree_root():
    """edge_verdicts passes an edge whose pendant in some colour is a tree
    root, so strands_inode may meet one.  In the fixture, the green pendant
    {b} of I(T2:{b,c}) with its sibling {c} still unsupplied, and the red
    pendant at the red root: nothing hangs the edge below {c}."""
    fstar, _ = fixture_description()
    x = next(i for i, c in enumerate(fstar.components) if c.name() == "I(T2:{b,c})")
    b_pendant, c_pendant = (w for s, w in reconstruct.attached_pendants(fstar)[x])
    assert fstar.components[fstar.owner[G][c_pendant]].name() == "{c}"
    rep_of = {G: b_pendant, R: fstar.trees[R].root}
    assert reconstruct.strands_inode(_Builder(fstar), (), 0, G, frozenset({R, G}), rep_of) is None


def _scan_order_forests():
    """The extended AAFs of the fixture searches and the oracle forests."""
    return [fstar for _, _, fstar in _fixture_searches()] + list(_oracle_forests())


def test_the_scan_order_takes_invisible_nodes_then_blocks_after_their_suppliers():
    """_scan_order is a permutation of the components: the invisible nodes
    in component order, then each block after every block that supplies
    one of its pendants, directly or through invisible nodes."""
    forests = _scan_order_forests()
    blocked = 0
    for fstar in forests:
        order = reconstruct._scan_order(fstar)
        comps = fstar.components
        assert sorted(order) == list(range(len(comps)))
        inodes = [x for x, c in enumerate(comps) if c.kind == "inode"]
        assert list(order[:len(inodes)]) == inodes
        attached = reconstruct.attached_pendants(fstar)

        def supplying_blocks(x, seen):
            out = set()
            for s, w in attached[x]:
                y = fstar.owner[s][w]
                if comps[y].kind == "block":
                    out.add(y)
                elif y not in seen:
                    seen.add(y)
                    out |= supplying_blocks(y, seen)
            return out

        place = {x: i for i, x in enumerate(order)}
        for x in order[len(inodes):]:
            below = supplying_blocks(x, set())
            assert all(place[y] < place[x] for y in below), (comps[x].name(), below)
            blocked += bool(below)
    assert blocked > len(forests)


def test_the_scan_order_does_not_depend_on_the_order_of_calls():
    """_scan_order keeps no state between searches: computed again in the
    reverse order, every forest gets the same order.  Some forest's blocks
    leave component order."""
    forests = _scan_order_forests()
    first = [reconstruct._scan_order(fstar) for fstar in forests]
    again = [reconstruct._scan_order(fstar) for fstar in reversed(forests)]
    assert first == again[::-1]
    blocks = [[x for x in order if fstar.components[x].kind == "block"]
              for fstar, order in zip(forests, first)]
    assert any(b != sorted(b) for b in blocks)


def test_the_scan_order_does_not_change_whether_a_search_finds_a_network(monkeypatch):
    """search_cnet branches on the first free component with invisible
    nodes scanned before blocks.  Under plain component order every search
    the search fixture records finds a network exactly when it does under
    the search's own order."""
    searches = list(_fixture_searches())
    found = [search_cnet(fstar, max_hyb=k) is not None for _, k, fstar in searches]
    monkeypatch.setattr(reconstruct, "_scan_order",
                        lambda fstar: tuple(range(len(fstar.components))))
    assert [search_cnet(fstar, max_hyb=k) is not None for _, k, fstar in searches] == found
    assert any(found) and not all(found)


if __name__ == "__main__":
    # regenerate the search fixture and print what it changes:
    # PYTHONPATH=src python tests/test_reconstruct.py --write
    if sys.argv[1:] == ["--write"]:
        write_search_fixture()
