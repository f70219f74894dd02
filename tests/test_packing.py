import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from treepack.graph import (
    build_graph,
    complete_graph,
    connected_components,
    crossing_edges,
    cycle_graph,
    make_partition,
    min_degree,
    normalize_edge,
    path_graph,
    singleton_partition,
)
from treepack.oracle import brute_has_k, brute_sigma, nw_check
from treepack.randgraph import sample_gnp
from treepack.rng import derive_seed
from treepack.packing import (
    Forest,
    extract_certificate,
    first_packing_prefix,
    has_k_spanning_trees,
    max_packing,
    packing_number,
    verify_packing,
)


def random_graph(rng, n, p):
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return build_graph(n, edges)


def two_cliques_bridged(size):
    """Two complete graphs joined by a single edge: a bridge bottleneck."""
    edges = [(u, v) for u in range(size) for v in range(u + 1, size)]
    edges += [
        (size + u, size + v) for u in range(size) for v in range(u + 1, size)
    ]
    edges.append((0, size))
    return build_graph(2 * size, edges)


def complete_bipartite(a, b):
    return build_graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def circulant(n, offsets):
    """Vertex v joined to v +- d (mod n) for each offset d <= n/2."""
    return build_graph(n, {normalize_edge(v, (v + d) % n) for v in range(n) for d in offsets})


STRUCTURED = (
    [(f"bridged-K{s}", two_cliques_bridged(s)) for s in range(2, 7)]
    + [(f"K{a},{b}", complete_bipartite(a, b))
       for a, b in ((1, 1), (1, 5), (2, 2), (2, 5), (3, 3), (3, 4), (4, 4), (3, 6), (5, 6))]
    + [(f"C{n}{offsets}", circulant(n, offsets))
       for n, offsets in ((6, (1, 2)), (7, (1, 2)), (8, (1, 3)), (8, (1, 2, 4)),
                          (9, (1, 2, 3)), (10, (1, 2)), (11, (1, 3)), (12, (1, 2, 3)),
                          (12, (1, 5)))]
    + [(f"K{n}", complete_graph(n)) for n in range(2, 13)]
)


def check_result(g, result):
    """Full consistency audit of one max_packing output."""
    assert result.sigma >= 0
    assert len(result.trees) == result.sigma
    assert verify_packing(g, result.trees)
    if g.n >= 2:
        cert = result.certificate
        assert cert is not None
        assert not nw_check(g, result.sigma + 1, cert)
        assert crossing_edges(g, cert) < (result.sigma + 1) * (cert.block_count - 1)


# -- fixed small cases ------------------------------------------------------

def test_k4_packs_two():
    g = complete_graph(4)
    ok, trees = has_k_spanning_trees(g, 2)
    assert ok
    assert verify_packing(g, trees)
    ok3, trees3 = has_k_spanning_trees(g, 3)
    assert not ok3 and trees3 is None


def test_path_packs_itself():
    g = path_graph(4)
    ok, trees = has_k_spanning_trees(g, 1)
    assert ok
    assert trees[0].edges == g.edge_list


def test_max_packing_k4():
    result = max_packing(complete_graph(4))
    assert result.sigma == 2
    check_result(complete_graph(4), result)
    # 6 edges < 3*3 makes the singleton partition the natural certificate.
    assert result.certificate == singleton_partition(4)


def test_max_packing_c5():
    result = max_packing(cycle_graph(5))
    assert result.sigma == 1
    assert result.certificate == singleton_partition(5)
    check_result(cycle_graph(5), result)


def test_max_packing_k6():
    g = complete_graph(6)
    result = max_packing(g)
    assert result.sigma == 3
    check_result(g, result)


def test_disconnected_sigma_zero_with_component_certificate():
    g = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    result = max_packing(g)
    assert result.sigma == 0
    assert result.trees == ()
    assert result.certificate == make_partition([{0, 1, 2}, {3, 4, 5}])


def test_single_vertex():
    g = build_graph(1, [])
    result = max_packing(g)
    assert result.sigma == 0
    assert result.certificate is None
    ok, trees = has_k_spanning_trees(g, 3)
    assert ok and len(trees) == 3 and all(t.edges == () for t in trees)


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        max_packing(build_graph(0, []))
    with pytest.raises(ValueError):
        has_k_spanning_trees(build_graph(0, []), 1)


def test_nonpositive_k_rejected():
    with pytest.raises(ValueError):
        has_k_spanning_trees(complete_graph(3), 0)
    with pytest.raises(ValueError):
        extract_certificate(complete_graph(3), 0)


def test_k2():
    result = max_packing(complete_graph(2))
    assert result.sigma == 1
    check_result(complete_graph(2), result)


def test_bridge_bottleneck_forces_drop_below_density():
    # Two K5 blocks and one bridge: min degree 4, m/(n-1) = 21//9 = 2, but
    # the two-block split has 1 < 2 crossing edges, so sigma = 1.
    g = two_cliques_bridged(5)
    result = max_packing(g)
    assert result.sigma == 1
    check_result(g, result)
    assert brute_sigma(g) == 1
    # The failing level-2 run must discover a genuinely violating partition.
    cert = result.certificate
    assert crossing_edges(g, cert) < 2 * (cert.block_count - 1)


def test_extract_certificate_examples():
    assert extract_certificate(cycle_graph(4), 2) == singleton_partition(4)
    assert extract_certificate(complete_graph(4), 3) == singleton_partition(4)
    two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert extract_certificate(two_triangles, 1) == make_partition(
        [{0, 1, 2}, {3, 4, 5}]
    )


def test_extract_certificate_rich_path():
    g = two_cliques_bridged(6)  # m = 31 >= 2*11, delta = 5 >= 2: no shortcut
    cert = extract_certificate(g, 2)
    assert not nw_check(g, 2, cert)


def test_extract_certificate_refuses_when_packing_exists():
    with pytest.raises(ValueError, match="exist"):
        extract_certificate(complete_graph(4), 2)


def test_verify_packing_rejects_bad_inputs():
    g = complete_graph(4)
    shared = [Forest(((0, 1), (1, 2), (2, 3))), Forest(((0, 1), (1, 3), (0, 2)))]
    res = verify_packing(g, shared)
    assert not res and "reused" in res.reason
    short = verify_packing(path_graph(4), [{(0, 1), (1, 2)}])
    assert not short and "expected 3" in short.reason
    cyclic = verify_packing(g, [Forest(((0, 1), (1, 2), (0, 2)))])
    assert not cyclic and "cycle" in cyclic.reason
    foreign = verify_packing(path_graph(4), [Forest(((0, 1), (1, 2), (0, 3)))])
    assert not foreign and "not in graph" in foreign.reason


def test_determinism():
    g = two_cliques_bridged(5)
    a = max_packing(g)
    b = max_packing(g)
    assert a == b


# -- oracle cross-checks ----------------------------------------------------

@pytest.mark.parametrize("g", [g for _, g in STRUCTURED], ids=[name for name, _ in STRUCTURED])
def test_structured_families_agree(g):
    # Verified trees at sigma and a certificate refuting sigma+1 prove sigma
    # on their own; the oracle is an independent check where it is cheap
    # (Bell(10) partitions already take about a second).
    result = max_packing(g)
    check_result(g, result)
    sigma = result.sigma
    assert sigma >= 1
    assert packing_number(g) == sigma
    ok, trees = has_k_spanning_trees(g, sigma)
    assert ok and verify_packing(g, trees)
    assert has_k_spanning_trees(g, sigma + 1) == (False, None)
    if g.n <= 9:
        assert brute_sigma(g) == sigma


def test_sparse_delta_two_draw():
    # A delta = 2 draw near the connectivity threshold: most edges land
    # inside components of every forest, so the second pass does the work.
    n = 1024
    p = (math.log(n) + math.log(math.log(n))) / n
    g = sample_gnp(n, p, derive_seed(2026, "bench-sparse", n, 2, 5))
    assert min_degree(g) == 2
    result = max_packing(g)
    assert result.sigma == 2
    check_result(g, result)
    assert packing_number(g) == 2

def test_complete_graphs_pack_half_n():
    for n in range(2, 13):
        assert packing_number(complete_graph(n)) == n // 2


def test_random_graphs_match_oracle():
    rng = random.Random(20240817)
    for trial in range(160):
        n = rng.randint(2, 8)
        p = rng.choice([0.2, 0.4, 0.6, 0.8, 1.0])
        g = random_graph(rng, n, p)
        expected = brute_sigma(g)
        result = max_packing(g)
        assert result.sigma == expected, f"trial {trial}: {g.edge_list}"
        check_result(g, result)
        assert packing_number(g) == expected
        ok, trees = has_k_spanning_trees(g, expected + 1)
        assert not ok
        if expected >= 1:
            ok, trees = has_k_spanning_trees(g, expected)
            assert ok and verify_packing(g, trees)


def test_first_packing_prefix_against_fresh_runs():
    # Each walk is checked by independent runs: graph + extra[:j] packs and
    # graph + extra[:j-1] does not. Extra edges come in either orientation.
    rng = random.Random(5150)
    already = 0
    for trial in range(80):
        n = rng.randint(2, 14)
        k = rng.randint(1, max(1, n // 2))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        start = rng.randint(0, len(pairs))
        g = build_graph(n, pairs[:start])
        extra = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs[start:]]

        def packs(j):
            return has_k_spanning_trees(build_graph(n, pairs[:start] + extra[:j]), k)[0]

        # With every pair in, K_n packs k <= n/2 trees.
        j = first_packing_prefix(g, extra, k)
        assert j is not None and packs(j), trial
        if j > 0:
            assert not packs(j - 1), trial
        already += j == 0
    assert 0 < already < 80


def test_first_packing_prefix_returns_zero_when_graph_packs():
    assert first_packing_prefix(complete_graph(4), [], 2) == 0
    assert first_packing_prefix(path_graph(5), [(0, 2), (1, 3)], 1) == 0


def test_first_packing_prefix_none_when_extra_runs_out():
    assert first_packing_prefix(build_graph(4, [(0, 1)]), [(2, 3)], 1) is None
    assert first_packing_prefix(build_graph(4, [(0, 1)]), [(1, 2), (0, 3)], 2) is None
    # K_4 has 6 edges; 3 spanning trees need 9.
    assert first_packing_prefix(build_graph(4, []), complete_graph(4).edge_list, 3) is None


def test_first_packing_prefix_rejects_bad_extra_edges():
    # The same checks and messages as build_graph, against the graph's edges
    # and the edges offered before; (0, 1) alone does not pack, so the walk
    # reaches every bad edge.
    g = build_graph(4, [(0, 1)])
    for extra in ([(1, 0)], [(2, 2)], [(0, 4)], [(-1, 2)], [(2, 3), (3, 2)]):
        with pytest.raises(ValueError) as expected:
            build_graph(4, [(0, 1)] + extra)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            first_packing_prefix(g, extra, 1)
    with pytest.raises(ValueError):
        first_packing_prefix(build_graph(0, []), [], 1)
    with pytest.raises(ValueError):
        first_packing_prefix(g, [], 0)


def test_certificates_against_brute_force_n_le_10():
    rng = random.Random(7011)
    for _ in range(40):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, rng.choice([0.5, 0.7, 0.9]))
        result = max_packing(g)
        k = result.sigma + 1
        assert not brute_has_k(g, k)
        assert not nw_check(g, k, result.certificate)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packing_invariants(data):
    n = data.draw(st.integers(min_value=2, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = build_graph(n, [e for e, k in zip(pairs, keep) if k])
    result = max_packing(g)
    # Universal bounds: minimum degree and global density.
    assert result.sigma <= min_degree(g)
    assert result.sigma <= g.m // (n - 1)
    if len(connected_components(g)) > 1:
        assert result.sigma == 0
    check_result(g, result)
    assert result.sigma == brute_sigma(g)


def test_moderately_dense_random_consistency():
    # Denser and slightly larger than the oracle range: internal consistency
    # checks only (trees verify, certificate violates).
    rng = random.Random(99)
    for _ in range(12):
        n = rng.randint(12, 30)
        g = random_graph(rng, n, 0.6)
        result = max_packing(g)
        check_result(g, result)
