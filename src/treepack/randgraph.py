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
where a monotone property appears) are well-defined. Each hitting time is
one forward walk over the process: a degree count for minimum degree k, and
for k edge-disjoint spanning trees one packer that is fed the process edges
one by one from the min-degree hitting time on.

The permutation is SplitMix64(seed).shuffle over the pairs in ascending
(u, v) order: for i from C(n,2)-1 down to 1, pair i swaps with pair
j = below(i + 1), and a rejected word is followed by the next one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Edge, Graph, build_graph

# has_k_spanning_trees is not called here, but perfbench/tracing.py wraps this
# module's binding of it; it stays bound until the tracer wraps
# first_packing_prefix instead.
from .packing import first_packing_prefix, has_k_spanning_trees  # noqa: F401
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


def _check_complete(perm: EdgePermutation) -> None:
    count = perm.n * (perm.n - 1) // 2
    if len(perm.order) != count:
        raise ValueError(
            f"a process on {perm.n} vertices orders all {count} pairs, got {len(perm.order)}"
        )


def hitting_time_min_degree(perm: EdgePermutation, k: int) -> int | None:
    """Smallest m with delta(G_m) >= k; None means never.

    Tracked incrementally: a counter of vertices still below degree k hits
    zero exactly at the hitting time. An endpoint outside 0..n-1 on the
    walked prefix raises ValueError, as in checked_edges. The walk usually
    stops long before the end of the order, and a check of the whole order
    up front would cost several times the walk, so the check rides in the
    loop: indexing rejects endpoints >= n, and a sign test stops negative
    ones, which would wrap around.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    _check_complete(perm)
    n = perm.n
    if k > n - 1:
        return None
    degree = [0] * n
    lacking = n
    try:
        for m, (u, v) in enumerate(perm.order, start=1):
            if u < 0 or v < 0:
                raise IndexError
            degree[u] += 1
            if degree[u] == k:
                lacking -= 1
            degree[v] += 1
            if degree[v] == k:
                lacking -= 1
            if lacking == 0:
                return m
    except IndexError:
        raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}") from None
    # All C(n,2) distinct pairs make K_n, of minimum degree n-1 >= k.
    raise ValueError("process order repeats a pair, so it misses another")


def hitting_times(perm: EdgePermutation, k: int) -> tuple[int | None, int | None]:
    """(tau_delta, tau_sigma) for k: the smallest m with delta(G_m) >= k, and
    the smallest m with k edge-disjoint spanning trees in G_m; None means
    never.

    sigma <= delta rules out anything before tau_delta, so one packing run
    starts on the first tau_delta process edges and the later ones are
    offered to the same packer one at a time (see
    packing.first_packing_prefix): the whole search is one matroid-union
    computation, however late the trees arrive.
    """
    tau_delta = hitting_time_min_degree(perm, k)
    if k > perm.n // 2:
        # Not even the complete graph packs that many: sigma(K_n) = n/2.
        return tau_delta, None
    tau_sigma = first_packing_prefix(perm.n, perm.order, tau_delta, k)
    if tau_sigma is None:
        raise AssertionError("internal error: complete graph must pack k <= n/2")
    return tau_delta, tau_sigma


def hitting_time_packing(perm: EdgePermutation, k: int) -> int | None:
    """Smallest m with k edge-disjoint spanning trees in G_m; None means
    never. See hitting_times."""
    return hitting_times(perm, k)[1]
