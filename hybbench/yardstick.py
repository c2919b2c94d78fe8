"""A fixed unit of pure-Python work that measures the machine's speed now.

The host this benchmark runs on is shared: it slows a process by up to 1.5x
for stretches of seconds, and its speed drifts by a quarter over half an
hour.  Wall times of the same code then differ more between two sets of runs
than any bound a benchmark can defend.  So the worker times one unit of this
work right before and after each operation, and reports the operation's time
as a multiple of the unit's, converted back to seconds at the unit's
reference time ``REFERENCE_S``.

The unit is the benchmark's own checker (``check.py``) on fixed inputs: the
brute-force two-tree hybridization number and the switching enumeration of a
display verdict.  Like ``hybnet`` it is pure Python over sets, tuples and
dicts, and it shares no code with ``hybnet``, so a change to the program
cannot move the yardstick.  Its inputs do not depend on the run seed.
"""

from __future__ import annotations

import gc
import random
import time

import check
import gen

# Median time of one unit on the reference machine (a 2-core virtual
# machine, Python 3.11.7).  A change to the unit or to check.py must measure
# this again; a change to hybnet must not touch it.
REFERENCE_S = 0.08


def _inputs():
    pairs = []
    for n, moves, seed, k in ((12, 4, 4, 4), (13, 3, 6, 3)):
        rng = random.Random(seed)
        first = gen.random_tree([f"t{i}" for i in range(n)], rng)
        second = first
        for _ in range(moves):
            second = gen.rspr(second, rng)
        pairs.append((gen.newick(first, rng), gen.newick(second, rng), k))
    rng = random.Random(0)
    labels = [f"t{i}" for i in range(16)]
    net = gen.network_from_tree(gen.random_tree(labels, rng))
    for _ in range(8):
        net = gen.add_reticulation(net, rng)
    other = gen.rspr(gen.rspr(gen.random_tree(labels, rng), rng), rng)
    return pairs, gen.network_json(net), gen.newick(other, random.Random(0))


_PAIRS, _NETWORK, _TREE = _inputs()


def unit() -> None:
    for a, b, k in _PAIRS:
        if check.pair_hybridization(a, b, k) is None:
            raise AssertionError("yardstick: the fixed pair lost its number")
    for _ in range(4):
        if check.display_verdict(_NETWORK, _TREE):
            raise AssertionError("yardstick: the fixed tree became displayed")


def measure() -> float:
    """Seconds one unit takes now, from a collected heap."""
    gc.collect()
    started = time.perf_counter()
    unit()
    return time.perf_counter() - started
