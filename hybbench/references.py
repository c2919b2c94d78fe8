"""Rebuild ``references.json``: the reference k of every solve shape.

    python3 hybbench/references.py

Each shape is solved once by ``hybnet`` and its network is checked by
``check.py`` before its k is kept.  A run fails an output whose k is above
the reference, and reports one below it (its network must pass the checks).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402
from run import REFERENCES, shape_key  # noqa: E402
from worker import import_hybnet  # noqa: E402


def main() -> int:
    hybnet, _ = import_hybnet()
    refs = {}
    for name, shapes in workloads.CATALOGUE.items():
        for shape in shapes:
            if not isinstance(shape, workloads.SolveShape):
                continue
            texts = [gen.newick(t, random.Random(0)) for t in workloads.solve_trees(shape)]
            sol = hybnet.solve(hybnet.Instance.from_newicks(texts))
            problems = check.check_network(hybnet.emit(sol.network, "json"), sol.k, texts)
            if problems:
                print(f"{name} {shape_key(shape)}: {problems}", file=sys.stderr)
                return 1
            refs.setdefault(name, {})[shape_key(shape)] = sol.k
            print(f"{name} {shape_key(shape)}: k={sol.k}")
    REFERENCES.write_text(json.dumps(refs, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
