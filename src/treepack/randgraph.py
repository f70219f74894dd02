"""Seeded random graphs: G(n,p) samples and the random graph process.

G(n,p) inclusion is one independent Bernoulli(p) draw per vertex pair, taken
in ascending (u, v) order so the stream layout is part of the format: pair
number t consumes stream value t. A pair is included when its 64-bit draw
falls below round(p * 2^64). The words are drawn in chunks of _CHUNK_WORDS,
the same words in the same order, so memory stays O(chunk + edges) rather
than O(n^2); kept pair numbers are decoded to (u, v) by exact integer
arithmetic on the row offsets.

The random graph process is a uniformly random permutation of all C(n,2)
pairs; its prefix graphs G_m are monotone, so hitting times (the first m
where a monotone property appears) are well-defined and binary-searchable.
The permutation is SplitMix64(seed).shuffle over the pairs in ascending
(u, v) order: for i from C(n,2)-1 down to 1, pair i swaps with pair
j = below(i + 1), and a rejected word is followed by the next one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Edge, Graph, build_graph
from .packing import has_k_spanning_trees
from .rng import SplitMix64, check_seed, u64_array

_TWO64 = 1 << 64
# Words per u64_array call in sample_gnp: 512 KiB per uint64 temporary.
_CHUNK_WORDS = 1 << 16


@dataclass(frozen=True)
class EdgePermutation:
    """An ordering of all C(n,2) vertex pairs; the process (G_m)."""

    n: int
    order: tuple[Edge, ...]

    def __len__(self) -> int:
        return len(self.order)


def all_pairs(n: int) -> list[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def sample_gnp(n: int, p: float, seed: int) -> Graph:
    """One G(n,p) draw, deterministic in (n, p, seed)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    check_seed(seed)
    count = n * (n - 1) // 2
    threshold = round(p * _TWO64)
    if count == 0 or threshold == 0:
        return build_graph(n, [])
    if threshold >= _TWO64:
        return build_graph(n, all_pairs(n))
    limit = np.uint64(threshold)
    kept = [
        np.flatnonzero(u64_array(seed, start, min(_CHUNK_WORDS, count - start)) < limit)
        + start
        for start in range(0, count, _CHUNK_WORDS)
    ]
    flat = np.concatenate(kept)
    # Pair (u, v) has number off[u] + (v - u - 1), where row u starts at
    # off[u] = u*n - u*(u+1)/2; off is strictly increasing over the rows
    # that hold pairs, so the row of a number is the last offset <= it.
    rows = np.arange(n, dtype=np.int64)
    off = rows * n - rows * (rows + 1) // 2
    us = np.searchsorted(off, flat, side="right") - 1
    vs = flat - off[us] + us + 1
    return build_graph(n, list(zip(us.tolist(), vs.tolist())))


def sample_process(n: int, seed: int) -> EdgePermutation:
    """Uniform random permutation of all pairs via seeded Fisher-Yates."""
    if n < 2:
        raise ValueError(f"process needs n >= 2, got {n}")
    check_seed(seed)
    pairs = all_pairs(n)
    SplitMix64(seed).shuffle(pairs)
    return EdgePermutation(n=n, order=tuple(pairs))


def prefix_graph(perm: EdgePermutation, m: int) -> Graph:
    """The graph of the first m edges of the process."""
    if not 0 <= m <= len(perm.order):
        raise ValueError(f"prefix length {m} outside [0, {len(perm.order)}]")
    return build_graph(perm.n, perm.order[:m])


def hitting_time_min_degree(perm: EdgePermutation, k: int) -> int | None:
    """Smallest m with delta(G_m) >= k; None means never.

    Tracked incrementally: a counter of vertices still below degree k hits
    zero exactly at the hitting time.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    n = perm.n
    if k > n - 1:
        return None
    degree = [0] * n
    lacking = n
    for m, (u, v) in enumerate(perm.order, start=1):
        degree[u] += 1
        if degree[u] == k:
            lacking -= 1
        degree[v] += 1
        if degree[v] == k:
            lacking -= 1
        if lacking == 0:
            return m
    raise AssertionError("internal error: complete graph has min degree n-1")


def hitting_time_packing(perm: EdgePermutation, k: int) -> int | None:
    """Smallest m with k edge-disjoint spanning trees in G_m; None means never.

    sigma(G_m) is monotone in m, so the answer is found by probing prefixes
    with a full packing computation each: start at the min-degree hitting
    time (sigma <= delta rules out anything earlier), gallop upward to
    bracket, then binary search.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if k > perm.n // 2:
        # Not even the complete graph packs that many: sigma(K_n) = n/2.
        return None
    total = len(perm.order)

    def packs(m: int) -> bool:
        ok, _ = has_k_spanning_trees(prefix_graph(perm, m), k)
        return ok

    low = hitting_time_min_degree(perm, k)
    if packs(low):
        return low
    step = 1
    high = low + step
    while not packs(min(high, total)):
        low = min(high, total)
        step *= 2
        high = low + step
        if low == total:
            raise AssertionError("internal error: complete graph must pack k <= n/2")
    high = min(high, total)
    # Invariant: packs(high) and not packs(low); bisect the open interval.
    while high - low > 1:
        mid = (low + high) // 2
        if packs(mid):
            high = mid
        else:
            low = mid
    return high
