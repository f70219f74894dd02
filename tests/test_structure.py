import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from treepack.graph import build_graph, complete_graph, cycle_graph, min_degree
from treepack.oracle import brute_sigma
from treepack.randgraph import sample_gnp
from treepack.structure import (
    catlin_check,
    check_small_separation,
    chernoff_lower,
    classify_small_large,
    degree_window_check,
    min_expansion_ratio,
    small_count_check,
    small_large_threshold,
)


def brute_min_ratio(graph, min_size, max_size, pool):
    """Independent minimum-ratio computation via direct edge scans."""
    best = math.inf
    for s in range(min_size, max_size + 1):
        for sel in combinations(pool, s):
            inside = set(sel)
            boundary = sum(
                1 for u, v in graph.edge_list if (u in inside) != (v in inside)
            )
            best = min(best, boundary / s)
    return best


class TestClassify:
    def test_threshold_value(self):
        assert small_large_threshold(10) == math.log(10) / 6

    def test_k4_has_no_small_vertices(self):
        split = classify_small_large(complete_graph(4))
        assert split.small == frozenset()
        assert split.large == frozenset(range(4))

    def test_empty_graph_all_small(self):
        split = classify_small_large(build_graph(10, []))
        assert split.small == frozenset(range(10))
        assert split.large == frozenset()

    def test_star_leaves_are_large(self):
        # Degree 1 exceeds log(10)/6, so even the leaves count as large.
        star = build_graph(10, [(0, i) for i in range(1, 10)])
        split = classify_small_large(star)
        assert split.small == frozenset()
        assert split.threshold == pytest.approx(0.3838, abs=1e-4)

    def test_rejects_tiny_graphs(self):
        with pytest.raises(ValueError):
            classify_small_large(build_graph(1, []))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=10**6))
    def test_split_partitions_vertices(self, n, seed):
        rng = random.Random(seed)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
        ]
        graph = build_graph(n, edges)
        split = classify_small_large(graph)
        assert split.small | split.large == frozenset(range(n))
        assert split.small & split.large == frozenset()
        for v in split.small:
            assert len(graph.adjacency[v]) <= split.threshold
        for v in split.large:
            assert len(graph.adjacency[v]) > split.threshold


class TestSeparation:
    def test_no_small_vertices_passes(self):
        assert check_small_separation(complete_graph(4))

    def test_single_vertex_passes(self):
        assert check_small_separation(build_graph(1, []))

    def test_isolated_smalls_pass(self):
        # Isolated vertices are small but share no edges or neighbors.
        clique = [(u, v) for u in range(7) for v in range(u + 1, 7)]
        result = check_small_separation(build_graph(420, clique))
        assert result.ok
        assert result.pair is None

    def test_smalls_with_disjoint_neighborhoods_pass(self):
        # n large enough that degree 1 is small: log(420)/6 > 1.
        edges = [(0, 2), (1, 3)]
        edges += [(u, v) for u in range(2, 10) for v in range(u + 1, 10)]
        assert check_small_separation(build_graph(420, edges))

    def test_adjacent_smalls_detected(self):
        result = check_small_separation(build_graph(420, [(0, 1)]))
        assert not result.ok
        assert result.kind == "adjacent"
        assert result.pair == (0, 1)
        assert result.via is None

    def test_common_neighbor_detected(self):
        result = check_small_separation(build_graph(420, [(0, 2), (1, 2)]))
        assert not result.ok
        assert result.kind == "common-neighbor"
        assert result.pair == (0, 1)
        assert result.via == 2


class TestSmallCount:
    def test_empty_graph_on_nine_fails(self):
        assert small_count_check(build_graph(9, [])) == (False, 9)

    def test_k4_passes_with_zero(self):
        assert small_count_check(complete_graph(4)) == (True, 0)

    def test_boundary_count_passes(self):
        # Exactly sqrt(n) small vertices: 3 isolated plus a K6, n = 9.
        clique = [(u + 3, v + 3) for u in range(6) for v in range(u + 1, 6)]
        assert small_count_check(build_graph(9, clique)) == (True, 3)


class TestExpansion:
    def test_c6_minimum_is_two_thirds(self):
        report = min_expansion_ratio(cycle_graph(6), max_size=3)
        assert report.mode == "exhaustive"
        assert report.min_ratio == pytest.approx(2 / 3)
        # Any three consecutive cycle vertices realize it.
        assert report.sets_examined == 6 + 15 + 20

    def test_k4_pairs(self):
        report = min_expansion_ratio(complete_graph(4), max_size=2)
        assert report.min_ratio == pytest.approx(2.0)
        assert len(report.argmin) == 2

    def test_argmin_ratio_is_consistent(self):
        graph = sample_gnp(14, 0.4, seed=3)
        report = min_expansion_ratio(graph, max_size=4)
        inside = set(report.argmin)
        boundary = sum(
            1 for u, v in graph.edge_list if (u in inside) != (v in inside)
        )
        assert report.min_ratio == pytest.approx(boundary / len(inside))

    def test_exhaustive_matches_brute_force(self):
        for n, p, seed, cap in [(12, 0.5, 1, 6), (11, 0.35, 2, 5), (10, 0.7, 3, 4)]:
            graph = sample_gnp(n, p, seed=seed)
            report = min_expansion_ratio(graph, max_size=cap)
            expected = brute_min_ratio(graph, 1, cap, range(n))
            assert report.min_ratio == pytest.approx(expected), (n, p, seed)

    def test_min_size_restricts_family(self):
        graph = sample_gnp(12, 0.5, seed=9)
        report = min_expansion_ratio(graph, max_size=5, min_size=3)
        expected = brute_min_ratio(graph, 3, 5, range(12))
        assert report.min_ratio == pytest.approx(expected)
        assert len(report.argmin) >= 3

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=25), st.integers(min_value=0, max_value=10**6))
    def test_singleton_minimum_is_min_degree(self, n, seed):
        rng = random.Random(seed)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4
        ]
        graph = build_graph(n, edges)
        report = min_expansion_ratio(graph, max_size=1)
        assert report.min_ratio == min_degree(graph)

    def test_large_only_restricts_pool(self):
        edges = [(0, 2), (1, 2)]
        edges += [(u, v) for u in range(2, 8) for v in range(u + 1, 8)]
        graph = build_graph(420, edges)
        split = classify_small_large(graph)
        report = min_expansion_ratio(graph, max_size=3, large_only=True)
        assert set(report.argmin) <= split.large

    def test_large_only_empty_family(self):
        report = min_expansion_ratio(build_graph(10, []), max_size=2, large_only=True)
        assert report.min_ratio == math.inf
        assert report.argmin == ()
        assert report.sets_examined == 0

    def test_sampled_mode_engages_beyond_limit(self):
        graph = sample_gnp(60, 0.3, seed=7)
        report = min_expansion_ratio(graph, max_size=30, budget=20, seed=11)
        assert report.mode == "sampled"
        assert report.sets_examined == 30 * 20

    def test_sampled_mode_is_deterministic(self):
        graph = sample_gnp(60, 0.3, seed=7)
        first = min_expansion_ratio(graph, max_size=30, budget=15, seed=5)
        second = min_expansion_ratio(graph, max_size=30, budget=15, seed=5)
        assert first == second

    def test_sampled_never_beats_true_minimum(self):
        # Small pool, forced sampling budget: the sampled minimum can only
        # overshoot the exhaustive one.
        graph = sample_gnp(24, 0.4, seed=13)
        exact = min_expansion_ratio(graph, max_size=12)
        if exact.mode == "exhaustive":
            sampled = min_expansion_ratio(graph, max_size=12, budget=10, seed=1)
            if sampled.mode == "sampled":
                assert sampled.min_ratio >= exact.min_ratio

    def test_validation(self):
        graph = complete_graph(8)
        with pytest.raises(ValueError):
            min_expansion_ratio(graph, max_size=0)
        with pytest.raises(ValueError):
            min_expansion_ratio(graph, max_size=5)
        with pytest.raises(ValueError):
            min_expansion_ratio(graph, max_size=3, min_size=4)
        with pytest.raises(ValueError):
            min_expansion_ratio(sample_gnp(60, 0.3, seed=1), max_size=30, budget=0)


class TestDegreeWindow:
    def test_complete_graph_inside_window(self):
        window = degree_window_check(complete_graph(8), 1.0)
        assert window.max_degree_ok
        assert window.min_degree_ok
        assert window.edges_ok
        assert window.max_degree == window.min_degree == 7
        assert window.edge_count == 28

    def test_empty_graph_fails_min_degree(self):
        window = degree_window_check(build_graph(10, []), 0.5)
        assert not window.min_degree_ok
        assert window.max_degree_ok
        assert window.edges_ok

    def test_dense_graph_with_tiny_p_fails(self):
        window = degree_window_check(complete_graph(10), 0.1)
        assert not window.max_degree_ok
        assert not window.edges_ok
        assert window.min_degree_ok

    def test_p_validation(self):
        with pytest.raises(ValueError):
            degree_window_check(complete_graph(4), 0.0)
        with pytest.raises(ValueError):
            degree_window_check(complete_graph(4), 1.5)


class TestCatlin:
    def test_complete_graph(self):
        # sigma(K4) = 2 = floor(6 / 3).
        assert catlin_check(complete_graph(4))

    def test_cycle(self):
        assert catlin_check(cycle_graph(5))

    def test_disconnected_fails(self):
        two_triangles = build_graph(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        )
        assert not catlin_check(two_triangles)

    def test_bridged_cliques_fail(self):
        # A bridge forces sigma = 1 while the density bound is far higher.
        size = 9
        clique = [(u, v) for u in range(size) for v in range(u + 1, size)]
        edges = clique + [(u + size, v + size) for u, v in clique]
        edges.append((size - 1, size))
        graph = build_graph(2 * size, edges)
        assert not catlin_check(graph)

    def test_matches_oracle_on_small_graphs(self):
        rng = random.Random(77)
        for _ in range(30):
            n = rng.randint(2, 8)
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ]
            graph = build_graph(n, edges)
            expected = brute_sigma(graph) == graph.m // (graph.n - 1)
            assert catlin_check(graph) == expected

    def test_rejects_single_vertex(self):
        with pytest.raises(ValueError):
            catlin_check(build_graph(1, []))


class TestChernoff:
    def test_lower_exact_value(self):
        assert chernoff_lower(100, 0.5, 50) == pytest.approx(math.exp(-25))

    def test_lower_monotone_in_deviation(self):
        values = [chernoff_lower(200, 0.3, a) for a in (1, 5, 10, 20, 40)]
        assert values == sorted(values, reverse=True)

    def test_bounds_stay_in_unit_interval(self):
        for a in (0.001, 1, 10, 60):
            assert 0 < chernoff_lower(50, 0.5, a) <= 1

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            chernoff_lower(0, 0.5, 1)
        with pytest.raises(ValueError):
            chernoff_lower(10, 0.0, 1)
        with pytest.raises(ValueError):
            chernoff_lower(10, 1.5, 1)
        with pytest.raises(ValueError):
            chernoff_lower(10, 0.5, 0)
