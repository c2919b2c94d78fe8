"""Where the spans go, and the per-layer metrics computed from them.

Every wrapped attribute is named as its caller looks it up: ``solver.X`` is
what ``solve`` calls, ``aaf_search.X`` what the enumeration calls, and so on.
Layer metrics of the set-up (``trees.parse_s``, ``trees.reduce_s``) are per
build of all inputs; every other one is per round of operations.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from spans import Tracer, self_times

# (metric, unit)
PER_LAYER: List[Tuple[str, str]] = [
    ("trees.parse_s", "s"),
    ("trees.reduce_s", "s"),
    ("trees.chains_s", "s"),
    ("trees.expand_s", "s"),
    ("trees.restrict_s", "s"),
    ("trees.restrict_calls", "count"),
    ("trees.canonical_s", "s"),
    ("trees.canonical_calls", "count"),
    ("aaf_search.enumerate_self_s", "s"),
    ("aaf_search.chain_guesses", "count"),
    ("aaf_search.subsets", "count"),
    ("aaf_search.partition_s", "s"),
    ("aaf_search.candidates", "count"),
    ("aaf_search.yield_ratio", "ratio"),
    ("forests.check_s", "s"),
    ("forests.checks", "count"),
    ("forests.accept_ratio", "ratio"),
    ("forests.spanning_nodes_s", "s"),
    ("forests.spanning_nodes_calls", "count"),
    ("forests.inheritance_s", "s"),
    ("extended_aaf.build_s", "s"),
    ("extended_aaf.builds", "count"),
    ("extended_aaf.invisible_pruned", "count"),
    ("reconstruct.search_s", "s"),
    ("reconstruct.searches", "count"),
    ("reconstruct.search_hits", "count"),
    ("reconstruct.merges", "count"),
    ("reconstruct.clones", "count"),
    ("reconstruct.expand_s", "s"),
    ("reconstruct.expand_rejects", "count"),
    ("networks.display_s", "s"),
    ("networks.display_calls", "count"),
    ("networks.switchings", "count"),
    ("networks.induce_s", "s"),
    ("solver.self_s", "s"),
    ("solver.budgets", "count"),
]

# span name -> the layer-time metric its self time adds to
LAYER_OF = {
    "trees.parse": "trees.parse_s",
    "trees.reduce": "trees.reduce_s",
    "trees.chains": "trees.chains_s",
    "trees.expand": "trees.expand_s",
    "trees.restrict": "trees.restrict_s",
    "trees.canonical": "trees.canonical_s",
    "aaf_search.enumerate": "aaf_search.enumerate_self_s",
    "aaf_search.chain_guess": "aaf_search.enumerate_self_s",
    "aaf_search.partition": "aaf_search.partition_s",
    "forests.check": "forests.check_s",
    "forests.spanning_nodes": "forests.spanning_nodes_s",
    "forests.inheritance": "forests.inheritance_s",
    "extended_aaf.build": "extended_aaf.build_s",
    "reconstruct.search": "reconstruct.search_s",
    "reconstruct.merge": "reconstruct.search_s",
    "reconstruct.clone": "reconstruct.search_s",
    "reconstruct.expand": "reconstruct.expand_s",
    "networks.display": "networks.display_s",
    "networks.switch": "networks.display_s",
    "networks.induce": "networks.induce_s",
    "solver.solve": "solver.self_s",
}
SETUP_LAYERS = ("trees.parse", "trees.reduce")


def install(tracer: Tracer) -> None:
    import hybnet
    import hybnet.aaf_search as aaf_search
    import hybnet.extended_aaf as extended_aaf
    import hybnet.forests as forests
    import hybnet.networks as networks
    import hybnet.reconstruct as reconstruct
    import hybnet.solver as solver
    import hybnet.trees as trees

    wrap, patch = tracer.wrap, tracer.patch
    targets = [
        (hybnet, "solve", "solver.solve", None),
        (solver, "parse_newick", "trees.parse", None),
        (hybnet, "parse_newick", "trees.parse", None),
        (solver, "common_pendant_subtree_reduction", "trees.reduce", None),
        (aaf_search, "common_chains", "trees.chains", None),
        (aaf_search, "collapse_chain", "trees.chains", None),
        (solver, "expand_map", "trees.expand", None),
        (forests, "restrict", "trees.restrict", None),
        (trees, "restrict", "trees.restrict", None),  # ExtendedAAF.shape_of imports it late
        (trees.PhyloTree, "canonical", "trees.canonical", None),
        (aaf_search, "_partition_after_deletion", "aaf_search.partition", None),
        (aaf_search, "is_acyclic_agreement_forest", "forests.check",
         lambda ok: "forests.accepted" if ok else None),
        (forests, "spanning_nodes", "forests.spanning_nodes", None),
        (extended_aaf, "spanning_nodes", "forests.spanning_nodes", None),
        (forests, "inheritance_graph", "forests.inheritance", None),
        (forests.InheritanceGraph, "has_cycle", "forests.inheritance", None),
        (extended_aaf.ExtendedAAF, "__init__", "extended_aaf.build", None),
        (solver, "search_cnet", "reconstruct.search",
         lambda found: "reconstruct.search_hits" if found is not None else None),
        (reconstruct._Builder, "apply", "reconstruct.merge", None),
        (reconstruct._Builder, "clone", "reconstruct.clone", None),
        (reconstruct, "expand_components", "reconstruct.expand",
         lambda out: "reconstruct.expand_rejects"
         if isinstance(out, reconstruct.Rejection) else None),
        (solver, "displays", "networks.display", None),
        (hybnet, "displays", "networks.display", None),
        (networks, "_switch_to_tree", "networks.switch", None),
        (solver, "induce_network", "networks.induce", None),
    ]
    for owner, attr, name, count in targets:
        patch(owner, attr, wrap(name, getattr(owner, attr), count))
    patch(solver, "enumerate_aafs",
          tracer.wrap_gen("aaf_search.enumerate", solver.enumerate_aafs, "aaf_search.candidates"))
    patch(aaf_search, "chain_guesses",
          tracer.wrap_gen("aaf_search.chain_guess", aaf_search.chain_guesses,
                          "aaf_search.chain_guesses"))


def layer_metrics(tracer: Tracer, rounds: int, builds: int, events: Dict[str, int]) -> Dict[str, float]:
    """Per-layer metrics: set-up layers per build, the rest per round.
    `events` counts the solve trace events by kind."""
    work = self_times(tracer, "round")
    setup = self_times(tracer, "setup")
    out = {name: 0.0 for name, _ in PER_LAYER}
    for span, metric in LAYER_OF.items():
        if span in SETUP_LAYERS:
            out[metric] += setup.get(span, [0.0, 0])[0] / builds
        else:
            out[metric] += work.get(span, [0.0, 0])[0] / rounds

    def calls(span):
        return work.get(span, [0.0, 0])[1] / rounds

    items = {key: value / rounds for key, value in tracer.items.items()}
    out["trees.restrict_calls"] = calls("trees.restrict")
    out["trees.canonical_calls"] = calls("trees.canonical")
    out["aaf_search.chain_guesses"] = items.get("aaf_search.chain_guesses", 0.0)
    out["aaf_search.subsets"] = calls("aaf_search.partition")
    out["aaf_search.candidates"] = items.get("aaf_search.candidates", 0.0)
    out["forests.checks"] = calls("forests.check")
    out["forests.spanning_nodes_calls"] = calls("forests.spanning_nodes")
    out["extended_aaf.builds"] = calls("extended_aaf.build")
    out["extended_aaf.invisible_pruned"] = events.get("invisible_prune", 0) / rounds
    out["reconstruct.searches"] = calls("reconstruct.search")
    out["reconstruct.search_hits"] = items.get("reconstruct.search_hits", 0.0)
    out["reconstruct.merges"] = calls("reconstruct.merge")
    out["reconstruct.clones"] = calls("reconstruct.clone")
    out["reconstruct.expand_rejects"] = items.get("reconstruct.expand_rejects", 0.0)
    out["networks.display_calls"] = calls("networks.display")
    out["networks.switchings"] = calls("networks.switch")
    out["solver.budgets"] = events.get("budget", 0) / rounds
    subsets, checks = out["aaf_search.subsets"], out["forests.checks"]
    out["aaf_search.yield_ratio"] = out["aaf_search.candidates"] / subsets if subsets else 0.0
    out["forests.accept_ratio"] = items.get("forests.accepted", 0.0) / checks if checks else 0.0
    return out
