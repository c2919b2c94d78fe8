"""The pairwise lower bound never exceeds a pair's hybridization number.

``solve`` skips every budget below the bound, so a bound that is too high
raises k, and no display check would catch it.  These tests are its gate:
the rooted SPR distance the bound computes for a pair is checked against the
brute-force two-tree answers of ``hybnet.oracles``, the agreement forest
(which it must equal) and the acyclic agreement forest (which it must not
exceed).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybnet.bounds import pairwise_lower_bound
from hybnet.oracles import oracle_two_tree_maaf, oracle_two_tree_maf
from hybnet.solver import gen_random
from hybnet.trees import parse_newick, random_tree


def no_clock():
    pass


def distance(t1, t2, cap=8):
    """The bound of the triple (t1, t2, t2) is the distance of t1 and t2."""
    return pairwise_lower_bound((t1, t2, t2), cap, no_clock)[0]


def test_the_bound_is_the_distance_and_at_most_h_on_a_seeded_batch():
    checked = 0
    for n in range(5, 9):
        for moves in range(1, 4):
            for seed in range(6):
                reduced = gen_random(n, moves, seed).reduced
                for i, j in ((0, 1), (0, 2), (1, 2)):
                    d = distance(reduced[i], reduced[j])
                    assert d == oracle_two_tree_maf(reduced[i], reduced[j]), (n, moves, seed, i, j)
                    assert d <= oracle_two_tree_maaf(reduced[i], reduced[j])
                    checked += 1
    assert checked == 216


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_the_bound_is_the_distance_and_at_most_h_on_random_pairs(n, seed):
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(n)]
    t1, t2 = random_tree(labels, rng), random_tree(labels, rng)
    d = distance(t1, t2)
    assert d == oracle_two_tree_maf(t1, t2) <= oracle_two_tree_maaf(t1, t2)


def test_the_root_leaf_counts_as_a_taxon():
    """Moving a below b and c costs one cut in either tree, that of a or of
    the (b, c) pair beside the root leaf."""
    t1, t2 = parse_newick("(a,(b,c));"), parse_newick("((a,b),c);")
    assert distance(t1, t2) == 1
    assert distance(t1, t1) == 0


def test_the_bound_is_the_largest_pair_and_names_it():
    inst = gen_random(8, 2, seed=3)
    pairs = ((0, 1), (0, 2), (1, 2))
    ds = [distance(inst.reduced[i], inst.reduced[j]) for i, j in pairs]
    low, pair = pairwise_lower_bound(inst.reduced, 8, no_clock)
    assert low == max(ds)
    assert pair == pairs[ds.index(low)]


@pytest.mark.parametrize("cap", [0, 1, 2])
def test_a_pair_above_the_cap_reads_cap_plus_one(cap):
    """A caterpillar and its reverse, on six taxa, are three cuts apart."""
    t1, t2 = parse_newick("(a,(b,(c,(d,(e,f)))));"), parse_newick("(f,(e,(d,(c,(b,a)))));")
    assert distance(t1, t2) == 3
    assert distance(t1, t2, cap) == cap + 1


def test_the_clock_is_called_at_every_branch():
    """The identical pair needs no branch; the moved one does."""
    t1, t2 = parse_newick("((a,b),(c,d));"), parse_newick("((a,c),(b,d));")
    calls = []
    pairwise_lower_bound((t1, t1, t1), 8, lambda: calls.append(None))
    assert calls == []
    pairwise_lower_bound((t1, t2, t2), 8, lambda: calls.append(None))
    assert calls
