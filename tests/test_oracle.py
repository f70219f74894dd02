import hashlib
from fractions import Fraction

import pytest

from treepack.graph import (
    build_graph,
    complete_graph,
    cycle_graph,
    make_partition,
    path_graph,
)
from treepack.oracle import (
    _crossing_counts,
    _growth_strings,
    brute_eta,
    brute_has_k,
    brute_sigma,
    nw_check,
    worst_partition,
)
from treepack.randgraph import sample_gnp
from treepack.rng import derive_seed

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140}


@pytest.mark.parametrize("n,count", sorted(BELL.items()))
def test_partition_counts_match_bell_numbers(n, count):
    assert sum(1 for _ in _growth_strings(n)) == count


def test_partition_enumeration_distinct_and_valid():
    seen = set()
    for rgs in _growth_strings(4):
        assert len(rgs) == 4
        blocks = [frozenset(v for v in range(4) if rgs[v] == b) for b in range(max(rgs) + 1)]
        assert all(blocks)
        assert sum(len(b) for b in blocks) == 4
        key = frozenset(blocks)
        assert key not in seen
        seen.add(key)
    assert len(seen) == 15


def test_min_blocks_filter():
    # Partitions of 4 elements into >= 2 blocks: 15 - 1, none crossed by an edge.
    walk = list(_crossing_counts(build_graph(4, [])))
    assert len(walk) == 14
    assert all(cross == 0 and blocks >= 2 for cross, blocks, _ in walk)


def test_enumeration_refuses_large_n():
    g = build_graph(13, [])
    for ask in (brute_eta, brute_sigma, lambda g: worst_partition(g, 0),
                lambda g: brute_has_k(g, 1), lambda g: brute_has_k(g, 0)):
        with pytest.raises(ValueError, match="n <= 12"):
            ask(g)


def test_nw_check_c4():
    g = cycle_graph(4)
    singletons = make_partition([{v} for v in range(4)])
    assert nw_check(g, 1, singletons)       # 4 >= 1*3
    assert not nw_check(g, 2, singletons)   # 4 < 2*3


def test_brute_sigma_cycles_and_paths():
    assert brute_sigma(cycle_graph(4)) == 1
    assert brute_sigma(cycle_graph(5)) == 1
    assert brute_sigma(path_graph(4)) == 1


def test_brute_sigma_disconnected_is_zero():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert brute_sigma(g) == 0
    assert brute_eta(g) == 0


def test_brute_sigma_complete_graphs():
    # K_n packs floor(n/2) spanning trees.
    for n in range(2, 9):
        assert brute_sigma(complete_graph(n)) == n // 2


def test_brute_sigma_single_vertex():
    assert brute_sigma(build_graph(1, [])) == 0


def test_brute_eta_examples():
    assert brute_eta(cycle_graph(5)) == Fraction(5, 4)
    assert brute_eta(complete_graph(4)) == Fraction(2, 1)
    assert brute_eta(path_graph(5)) == Fraction(1, 1)
    # Any tree has strength exactly 1.
    star = build_graph(5, [(0, v) for v in range(1, 5)])
    assert brute_eta(star) == 1


def test_eta_floor_is_sigma_on_k5():
    g = complete_graph(5)
    assert brute_eta(g) == Fraction(10, 4)
    assert brute_sigma(g) == 2


def test_brute_has_k_matches_sigma():
    for g in (cycle_graph(4), complete_graph(4), complete_graph(5), path_graph(3)):
        s = brute_sigma(g)
        assert brute_has_k(g, s)
        assert not brute_has_k(g, s + 1)
        assert brute_has_k(g, 0)


def test_worst_partition_is_a_real_violation():
    g = cycle_graph(4)
    p = worst_partition(g, 2)
    assert p is not None
    assert not nw_check(g, 2, p)
    assert worst_partition(g, 1) is None


# SHA-256 of worst_partition's answers on 308 seeded G(n, p) draws
# (n = 2..8) for k = 1..4: the partitions `treepack verify` prints.
WORST_SWEEP_SHA256 = "ba8ad2a9610cb7650ac7c03bfbc86ae7bfee8d733468aac6b3848a5c8adab299"


def test_worst_partition_sweep_unchanged():
    digest = hashlib.sha256()
    violations = 0
    for n in range(2, 9):
        for i, p in enumerate((0.3, 0.5, 0.7, 0.9)):
            for t in range(11):
                g = sample_gnp(n, p, derive_seed(2026, "worst", n, i, t))
                for k in range(1, 5):
                    w = worst_partition(g, k)
                    blocks = None if w is None else [sorted(b) for b in w.blocks]
                    violations += w is not None
                    digest.update(repr((n, i, t, k, blocks)).encode())
    assert 0 < violations < 308 * 4
    assert digest.hexdigest() == WORST_SWEEP_SHA256
