"""Tests of the benchmark's own code.

    python3 -m pytest hybbench -q
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from run import in_units  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import build_inputs, import_hybnet, run_rounds  # noqa: E402

hybnet, _ = import_hybnet()

README_TREES = ["((a,b),c);", "((a,c),b);", "((a,c),b);"]


@pytest.fixture(scope="module")
def readme_network():
    sol = hybnet.solve(hybnet.Instance.from_newicks(README_TREES))
    return sol.k, json.loads(hybnet.emit(sol.network, "json"))


def test_checker_accepts_readme_example(readme_network):
    k, net = readme_network
    assert k == 1
    assert check.check_network(json.dumps(net), k, README_TREES) == []
    assert all(check.pair_hybridization(x, y, k) is not None
               for x, y in itertools.combinations(README_TREES, 2))


def test_checker_rejects_dropped_reticulation_edge(readme_network):
    k, net = readme_network
    heads = [e["to"] for e in net["edges"]]
    retic = next(v for v in heads if heads.count(v) == 2)
    drop = next(i for i, e in enumerate(net["edges"]) if e["to"] == retic)
    broken = dict(net, edges=net["edges"][:drop] + net["edges"][drop + 1:])
    assert check.check_network(json.dumps(broken), k, README_TREES)


def test_checker_rejects_relabelled_leaf(readme_network):
    k, net = readme_network
    nodes = [dict(x, label="z") if x.get("label") == "a" else x for x in net["nodes"]]
    assert check.check_network(json.dumps(dict(net, nodes=nodes)), k, README_TREES)


def test_checker_rejects_tree_not_displayed():
    tree_net = {"nodes": [{"id": 0}, {"id": 1}, {"id": 2}, {"id": 3, "label": "a"},
                          {"id": 4, "label": "b"}, {"id": 5, "label": "c"}],
                "edges": [{"from": 0, "to": 1}, {"from": 1, "to": 2}, {"from": 1, "to": 5},
                          {"from": 2, "to": 3}, {"from": 2, "to": 4}]}
    assert check.check_network(json.dumps(tree_net), 0, ["((a,b),c);"] * 3) == []
    assert check.check_network(json.dumps(tree_net), 0, README_TREES) == [
        "tree 2 is not displayed", "tree 3 is not displayed"]


def _plain_brute_force(a: str, b: str) -> int:
    bit = check.taxon_bits(a)
    c1, c2 = check.tree_clusters(a, bit), check.tree_clusters(b, bit)
    return check._brute_force(c1, c2, sum(bit.values()), 8)


def test_pair_reductions_keep_the_brute_force_value():
    for seed in range(40):
        rng = random.Random(seed)
        labels = [f"t{i}" for i in range(rng.randint(4, 8))]
        t = gen.random_tree(labels, rng) if seed % 3 else gen.caterpillar(labels, rng)
        u = t
        for _ in range(rng.randint(0, 3)):
            u = gen.rspr(u, rng)
        a, b = gen.newick(t, rng), gen.newick(u, rng)
        assert check.pair_hybridization(a, b, 8) == _plain_brute_force(a, b)


def test_display_verdicts_by_construction():
    net, shown, other = workloads.display_case(workloads.DisplayShape(8, 3, 0))
    text = gen.network_json(net)
    rng = random.Random(0)
    assert check.display_verdict(text, gen.newick(shown, rng))
    assert not check.display_verdict(text, gen.newick(other, rng))
    got = hybnet.displays(hybnet.network_from_json(text), hybnet.parse_newick(gen.newick(shown, rng)))
    assert got is True


def test_yardstick_unit_keeps_its_fixed_answers():
    yardstick.unit()  # raises if the fixed inputs lost their known answers
    assert yardstick.measure() > 0


def test_samples_are_scaled_by_their_nearest_units():
    far = [9.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 9.0]
    assert in_units(1.0, 4, far) == pytest.approx(10.0)  # three on each side, no more
    assert in_units(1.0, 1, far) == pytest.approx(1 / 2.325)  # fewer at the start
    assert in_units(1.0, 1, [0.1, 0.3]) == pytest.approx(5.0)  # a set-up process


def test_inputs_follow_the_seed():
    assert workloads.build("wide-lowk", 3) == workloads.build("wide-lowk", 3)
    assert workloads.build("wide-lowk", 3) != workloads.build("wide-lowk", 4)


def test_traced_run_matches_untraced_run():
    shapes = [workloads.SolveShape("random", 6, 2, 0), workloads.SolveShape("random", 7, 3, 2)]
    rng = random.Random(5)
    ops = [{"kind": "solve", "entry": i,
            "newicks": [gen.newick(t, rng) for t in workloads.solve_trees(s)]}
           for i, s in enumerate(shapes)]
    ops.append({"kind": "solve", "entry": 2, "newicks": README_TREES})
    plain = run_rounds(hybnet, ops, build_inputs(hybnet, ops), 0)
    tracer = Tracer()
    layers.install(tracer)
    try:
        with tracer.span("setup"):
            built = build_inputs(hybnet, ops)
        traced = run_rounds(hybnet, ops, built, 0, tracer)
    finally:
        tracer.uninstall()
    assert plain["failed"] == traced["failed"] == 0
    assert plain["outputs"] == traced["outputs"]
    assert len(plain["yards"]) == plain["attempted"] + 1 and traced["yards"] == []
    assert plain["op_yards"] == [[i + 1] for i in range(len(ops))]
    metrics = layers.layer_metrics(tracer, len(traced["rounds"]), 1, traced["events"])
    assert set(metrics) == {name for name, _ in layers.PER_LAYER}
    assert metrics["reconstruct.search_hits"] == len(ops)
    assert metrics["solver.budgets"] > 0 and metrics["aaf_search.subsets"] > 0


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.CATALOGUE)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"work_s", "setup_s", "peak_rss_mb"}
