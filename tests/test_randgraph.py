"""Random-graph sampling and hitting-time contracts."""

import math
from itertools import permutations

import numpy as np
import pytest

from treepack import packing, randgraph
from treepack.experiments import p_grid
from treepack.graph import connected_components, min_degree
from treepack.oracle import brute_sigma
from treepack.packing import has_k_spanning_trees
from treepack.randgraph import (
    EdgePermutation,
    all_pairs,
    hitting_time_min_degree,
    hitting_time_packing,
    prefix_graph,
    sample_gnp,
    sample_process,
)
from treepack.rng import u64_array, u64_at

TWO64 = 1 << 64


class TestSampleGnp:
    def test_p_zero_is_empty(self):
        assert sample_gnp(30, 0.0, 7).m == 0

    def test_p_one_is_complete(self):
        g = sample_gnp(9, 1.0, 7)
        assert g.m == 36

    def test_single_vertex(self):
        g = sample_gnp(1, 0.5, 0)
        assert g.n == 1 and g.m == 0

    def test_deterministic(self):
        a = sample_gnp(40, 0.3, 123456)
        b = sample_gnp(40, 0.3, 123456)
        assert a.edge_list == b.edge_list

    def test_seed_changes_sample(self):
        a = sample_gnp(40, 0.3, 1)
        b = sample_gnp(40, 0.3, 2)
        assert a.edge_list != b.edge_list

    def test_matches_scalar_bernoulli_stream(self):
        # Pair number t is included iff stream value t < round(p * 2^64).
        n, p, seed = 8, 0.37, 2026
        threshold = round(p * TWO64)
        expected = [
            pair
            for t, pair in enumerate(all_pairs(n))
            if u64_at(seed, t) < threshold
        ]
        assert list(sample_gnp(n, p, seed).edge_list) == expected

    def test_matches_full_array_reference(self):
        # The unchunked sampler: one draw per pair over the whole stream,
        # masked over the upper-triangle index arrays. C(400,2) = 79800
        # words are one full chunk and one partial chunk.
        n = 400
        count = n * (n - 1) // 2
        assert randgraph._CHUNK_WORDS < count < 2 * randgraph._CHUNK_WORDS
        us, vs = np.triu_indices(n, 1)
        chunk_empty = False
        for p in [1e-9, 4e-5, 1e-3, 0.5] + p_grid("th1", n):
            for seed in range(4):
                keep = u64_array(seed, 0, count) < np.uint64(round(p * TWO64))
                expected = list(zip(us[keep].tolist(), vs[keep].tolist()))
                assert list(sample_gnp(n, p, seed).edge_list) == expected, (p, seed)
                kept = np.flatnonzero(keep)
                per_chunk = np.bincount(kept // randgraph._CHUNK_WORDS, minlength=2)
                chunk_empty |= bool(kept.size and per_chunk.min() == 0)
        # Some draw keeps pairs in one chunk and none in the other.
        assert chunk_empty

    def test_draws_in_bounded_chunks(self, monkeypatch):
        # Memory stays bounded: no call draws more than one chunk, and the
        # calls walk the stream once, in order, C(n,2) words in all.
        calls = []

        def recording(seed, start, count):
            calls.append((start, count))
            return u64_array(seed, start, count)

        monkeypatch.setattr(randgraph, "u64_array", recording)
        n = 4096
        g = sample_gnp(n, 1.1 * math.log(n) / n, 2026)
        assert g.m > 0
        position = 0
        for start, count in calls:
            assert start == position
            assert count <= randgraph._CHUNK_WORDS
            position += count
        assert position == n * (n - 1) // 2

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            sample_gnp(5, -0.1, 0)
        with pytest.raises(ValueError):
            sample_gnp(5, 1.1, 0)
        with pytest.raises(ValueError):
            sample_gnp(0, 0.5, 0)

    def test_mean_edge_count_near_binomial_mean(self):
        # 200 samples of G(100, 1/2): per-sample sd is sqrt(4950)/2 ~ 35.2,
        # so the mean over 200 lies within 3 sd / sqrt(200) ~ 7.5 of 2475.
        total = sum(sample_gnp(100, 0.5, seed).m for seed in range(200))
        mean = total / 200
        assert abs(mean - 2475) < 7.5


class TestSampleProcess:
    def test_is_permutation_of_all_pairs(self):
        perm = sample_process(6, 99)
        assert len(perm.order) == 15
        assert sorted(perm.order) == all_pairs(6)

    def test_deterministic(self):
        assert sample_process(7, 5).order == sample_process(7, 5).order

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            sample_process(1, 0)

    def test_n3_orderings_uniform(self):
        # 6000 seeded processes over the 6 orderings of 3 pairs: each
        # expects 1000 with sd ~ 28.9; allow 4 sd.
        orderings = {order: 0 for order in permutations(all_pairs(3))}
        for seed in range(6000):
            orderings[sample_process(3, seed).order] += 1
        assert all(abs(c - 1000) < 4 * 28.9 for c in orderings.values())


class TestPrefixGraph:
    def test_prefix_sizes(self):
        perm = sample_process(5, 3)
        for m in range(len(perm.order) + 1):
            g = prefix_graph(perm, m)
            assert g.m == m and g.n == 5

    def test_prefix_out_of_range(self):
        perm = sample_process(4, 0)
        with pytest.raises(ValueError):
            prefix_graph(perm, 7)


def gallop_hitting_time_packing(perm, k):
    """Reference search: independent packing probes on prefix graphs.

    Starts at the min-degree hitting time, gallops upward to bracket the
    first packing prefix, then bisects; each probe packs from scratch.
    """
    if k > perm.n // 2:
        return None
    total = len(perm.order)

    def packs(m):
        return has_k_spanning_trees(prefix_graph(perm, m), k)[0]

    low = hitting_time_min_degree(perm, k)
    if packs(low):
        return low
    step = 1
    high = low + step
    while not packs(min(high, total)):
        assert high < total, "the complete graph packs k <= n/2"
        low = high
        step *= 2
        high = low + step
    high = min(high, total)
    while high - low > 1:
        mid = (low + high) // 2
        if packs(mid):
            high = mid
        else:
            low = mid
    return high


class TestHittingTimes:
    def test_min_degree_worked_example(self):
        perm = EdgePermutation(n=3, order=((0, 1), (0, 2), (1, 2)))
        assert hitting_time_min_degree(perm, 1) == 2

    def test_min_degree_full_graph_needed(self):
        # delta = n-1 appears only when the last pair arrives.
        for seed in range(5):
            perm = sample_process(6, seed)
            assert hitting_time_min_degree(perm, 5) == 15

    def test_min_degree_never(self):
        perm = sample_process(5, 1)
        assert hitting_time_min_degree(perm, 5) is None

    def test_min_degree_matches_direct_simulation(self):
        for seed in range(20):
            perm = sample_process(7, seed)
            for k in (1, 2, 3):
                expected = next(
                    m
                    for m in range(len(perm.order) + 1)
                    if min_degree(prefix_graph(perm, m)) >= k
                )
                assert hitting_time_min_degree(perm, k) == expected

    def test_packing_worked_example(self):
        perm = EdgePermutation(n=3, order=((0, 1), (0, 2), (1, 2)))
        assert hitting_time_packing(perm, 1) == 2

    def test_packing_k1_is_connectivity_time(self):
        for seed in range(15):
            perm = sample_process(8, seed)
            expected = next(
                m
                for m in range(len(perm.order) + 1)
                if len(connected_components(prefix_graph(perm, m))) == 1
            )
            assert hitting_time_packing(perm, 1) == expected

    def test_packing_never_above_half_n(self):
        perm = sample_process(4, 9)
        assert hitting_time_packing(perm, 3) is None

    def test_packing_matches_linear_oracle_scan(self):
        # Independent path: scan prefixes in order, deciding each with the
        # brute-force partition oracle.
        for seed in range(8):
            perm = sample_process(6, 1000 + seed)
            for k in (1, 2, 3):
                expected = next(
                    (
                        m
                        for m in range(len(perm.order) + 1)
                        if brute_sigma(prefix_graph(perm, m)) >= k
                    ),
                    None,
                )
                assert hitting_time_packing(perm, k) == expected

    def test_packing_at_least_min_degree_time(self):
        for seed in range(12):
            perm = sample_process(10, seed)
            for k in (1, 2, 3):
                t_sigma = hitting_time_packing(perm, k)
                t_delta = hitting_time_min_degree(perm, k)
                assert t_sigma is not None and t_delta is not None
                assert t_sigma >= t_delta

    def test_both_monotone_in_k(self):
        for seed in range(6):
            perm = sample_process(9, 50 + seed)
            deltas = [hitting_time_min_degree(perm, k) for k in (1, 2, 3, 4)]
            sigmas = [hitting_time_packing(perm, k) for k in (1, 2, 3, 4)]
            assert deltas == sorted(deltas)
            assert sigmas == sorted(sigmas)

    def test_k_validation(self):
        perm = sample_process(4, 0)
        with pytest.raises(ValueError):
            hitting_time_min_degree(perm, 0)
        with pytest.raises(ValueError):
            hitting_time_packing(perm, 0)

    def test_packing_matches_gallop_reference(self):
        late = 0
        for n in (16, 33, 64, 128):
            for seed in range(8):
                perm = sample_process(n, 2026 + seed)
                for k in (1, 2, 3, 4):
                    expected = gallop_hitting_time_packing(perm, k)
                    assert hitting_time_packing(perm, k) == expected, (n, seed, k)
                    late += expected > hitting_time_min_degree(perm, k)
        # The sample must exercise the walk past tau_delta, not only the
        # first packing run.
        assert late >= 5

    def test_late_search_packs_once(self, monkeypatch):
        # Work bound: a late search starts one packing run and builds no
        # Graph, however far past tau_delta the trees arrive.
        perm = sample_process(128, 2027)
        t_delta = hitting_time_min_degree(perm, 2)
        calls = {"_direct_run": 0, "prefix_graph": 0, "build_graph": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(packing, "_direct_run")
        counting(randgraph, "prefix_graph")
        counting(randgraph, "build_graph")
        t_sigma = hitting_time_packing(perm, 2)
        assert t_sigma - t_delta > 50
        assert calls == {"_direct_run": 1, "prefix_graph": 0, "build_graph": 0}

    def test_partial_permutation_rejected(self):
        perm = EdgePermutation(n=4, order=((0, 1), (2, 3)))
        for k in (1, 2):
            with pytest.raises(ValueError, match="all 6 pairs, got 2"):
                hitting_time_min_degree(perm, k)
            with pytest.raises(ValueError, match="all 6 pairs, got 2"):
                hitting_time_packing(perm, k)
        # The right length, but one pair three times: vertex 2 never joins.
        perm = EdgePermutation(n=3, order=((0, 1), (0, 1), (0, 1)))
        with pytest.raises(ValueError, match="repeats a pair"):
            hitting_time_min_degree(perm, 1)
        with pytest.raises(ValueError, match="repeats a pair"):
            hitting_time_packing(perm, 1)

    def test_out_of_range_endpoint_rejected(self):
        # A negative endpoint must not wrap around to vertex n-1, and one
        # past n-1 must not surface as an IndexError.
        for order in (((0, -1), (1, 2), (0, 1)), ((0, 3), (1, 2), (0, 1))):
            perm = EdgePermutation(n=3, order=order)
            for search in (hitting_time_min_degree, hitting_time_packing):
                with pytest.raises(ValueError, match=r"endpoint outside 0\.\.2"):
                    search(perm, 1)
