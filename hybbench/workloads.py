"""The four workloads: fixed instance shapes, presented anew for each seed.

Each workload is a catalogue of shapes.  A shape is drawn by the generator in
``gen.py`` from its own shape seed, so the hybridization numbers, the search
space and the reference k stay fixed.  The run seed draws everything the
program sees beyond the shape: the taxon names, the child order at every
Newick node, and the order of the operations in a round.  Every round runs
all operations of the workload once.
"""

from __future__ import annotations

import random
import string
from typing import Dict, List, NamedTuple

import check
import gen


class SolveShape(NamedTuple):
    kind: str  # "random", "caterpillar" or "identical" (three copies of a random tree)
    n: int
    moves: int  # rSPR moves from the base tree to each derived tree
    seed: int


class DisplayShape(NamedTuple):
    n: int
    reticulations: int
    seed: int


# Shapes were picked in shape-seed order among those whose solve fits the
# run length; see README.md for the make-up and the selection.
CATALOGUE: Dict[str, list] = {
    "aaf-mid": [
        SolveShape("random", 12, 2, 1),
        SolveShape("random", 14, 2, 0),
        SolveShape("random", 16, 2, 0),
        SolveShape("random", 16, 2, 3),
    ],
    "wiring-small": [
        SolveShape("random", 6, 3, 1),
        SolveShape("random", 6, 3, 6),
        SolveShape("random", 6, 4, 20),
        SolveShape("random", 7, 3, 5),
        SolveShape("random", 7, 4, 18),
    ],
    "wide-lowk": [
        SolveShape("random", 200, 1, 0),
        SolveShape("random", 300, 1, 1),
        SolveShape("random", 400, 1, 2),
        SolveShape("caterpillar", 200, 1, 2),
        SolveShape("caterpillar", 300, 1, 0),
        SolveShape("identical", 400, 0, 0),
    ],
    "display-dense": [
        DisplayShape(20, 10, 0),
        DisplayShape(24, 11, 0),
        DisplayShape(27, 12, 0),
        DisplayShape(30, 13, 0),
    ],
}

def base_labels(n: int) -> List[str]:
    return [f"x{i}" for i in range(n)]


def solve_trees(shape: SolveShape):
    rng = random.Random(f"solve:{shape.kind}:{shape.n}:{shape.moves}:{shape.seed}")
    labels = base_labels(shape.n)
    make = gen.caterpillar if shape.kind == "caterpillar" else gen.random_tree
    base = make(labels, rng)
    if shape.kind == "identical":
        return [base, base, base]
    out = [base]
    for _ in range(2):
        t = base
        for _ in range(shape.moves):
            t = gen.rspr(t, rng)
        out.append(t)
    return out


def display_case(shape: DisplayShape):
    """A network with the given reticulation count, a tree it displays by
    construction and a tree it does not display (checked by enumeration)."""
    rng = random.Random(f"display:{shape.n}:{shape.reticulations}:{shape.seed}")
    labels = base_labels(shape.n)
    net = gen.network_from_tree(gen.random_tree(labels, rng))
    for _ in range(shape.reticulations):
        net = gen.add_reticulation(net, rng)
    parents = {r: sorted(a for a, b in net["edges"] if b == r) for r in gen.reticulations(net)}

    def switching():
        return {r: rng.choice(ps) for r, ps in parents.items()}

    shown = gen.displayed_tree(net, switching())
    while True:
        other = gen.rspr(gen.rspr(gen.displayed_tree(net, switching()), rng), rng)
        text = gen.newick(other, random.Random(0))
        if not check.display_verdict(gen.network_json(net), text):
            return net, shown, other


def _names(n: int, rng: random.Random) -> List[str]:
    out: List[str] = []
    seen = set()
    while len(out) < n:
        name = "".join(rng.choices(string.ascii_lowercase, k=6))
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def build(workload: str, seed: int) -> List[dict]:
    """The operations of one round, as the text the program receives."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for entry, shape in enumerate(CATALOGUE[workload]):
        names = dict(zip(sorted(base_labels(shape.n)), sorted(_names(shape.n, rng))))
        if isinstance(shape, SolveShape):
            trees = [gen.relabel(t, names) for t in solve_trees(shape)]
            ops.append({"kind": "solve", "entry": entry,
                        "newicks": [gen.newick(t, rng) for t in trees]})
        else:
            net, shown, other = display_case(shape)
            net = dict(net, label={v: names[x] for v, x in net["label"].items()})
            text = gen.network_json(net)
            for tree, expected in ((shown, True), (other, False)):
                ops.append({"kind": "displays", "entry": entry, "network": text,
                            "tree": gen.newick(gen.relabel(tree, names), rng),
                            "expected": expected})
    rng.shuffle(ops)
    return ops
