"""Brute-force partition oracle for spanning-tree packing.

It cross-checks the exact packing algorithm: the tree-packing number equals

    floor( min over partitions P with >= 2 blocks of  cross(P) / (|P| - 1) )

by the Nash-Williams/Tutte characterization, where cross(P) counts edges
joining distinct blocks. Every answer here reads one walk, _crossing_counts,
over all partitions of the vertex set. That walk holds the oracle's one size
check: Bell(12) is about 4.2 million partitions, and larger n is refused.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .graph import Graph, Partition, crossing_edges, make_partition

MAX_ORACLE_VERTICES = 12


def _growth_strings(n: int) -> Iterator[list[int]]:
    """Restricted growth strings of length n >= 1 in lexicographic order.

    rgs[v] is the block label of vertex v, so each string is one partition
    of {0..n-1}. The same list is updated in place and yielded again, so a
    caller that keeps a string must copy it.
    """
    rgs = [0] * n
    while True:
        yield rgs
        i = n - 1
        while i > 0:
            if rgs[i] <= max(rgs[:i]):
                break
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        for j in range(i + 1, n):
            rgs[j] = 0


def nw_check(graph: Graph, k: int, partition: Partition) -> bool:
    """Nash-Williams/Tutte condition for one partition: cross >= k(|P|-1)."""
    return crossing_edges(graph, partition) >= k * (partition.block_count - 1)


def _crossing_counts(graph: Graph) -> Iterator[tuple[int, int, list[int]]]:
    """(cross, blocks, rgs) for every partition with >= 2 blocks.

    Partitions come in the lexicographic order of their growth strings rgs
    (shared lists, see _growth_strings). The size check runs at the call,
    before any partition is walked.
    """
    n, edges = graph.n, graph.edge_list
    if n > MAX_ORACLE_VERTICES:
        raise ValueError(
            f"the partition oracle walks all Bell(n) partitions and is capped at "
            f"n <= {MAX_ORACLE_VERTICES}, got n={n}"
        )
    if n < 2:
        return iter(())
    strings = _growth_strings(n)
    next(strings)  # all zeros: the one-block partition
    return ((sum(1 for u, v in edges if rgs[u] != rgs[v]), max(rgs) + 1, rgs) for rgs in strings)


def brute_sigma(graph: Graph) -> int:
    """Tree-packing number by exhaustive partition search (n <= 12).

    A single vertex packs arbitrarily many empty spanning trees; the value
    reported here is 0 so that the packing number never exceeds the minimum
    degree. Otherwise sigma is floor(eta) by Nash-Williams/Tutte.
    """
    if graph.n <= 1:
        return 0
    return int(brute_eta(graph))  # int() floors a nonnegative Fraction


def brute_eta(graph: Graph) -> Fraction:
    """Exact partition strength: min over >=2-block partitions of cross/(|P|-1)."""
    walk = _crossing_counts(graph)
    if graph.n <= 1:
        raise ValueError("partition strength needs at least 2 vertices")
    best = Fraction(graph.m)  # no 2-block partition crosses more than m edges
    for cross, blocks, _ in walk:
        value = Fraction(cross, blocks - 1)
        if value < best:
            best = value
            if best == 0:
                break
    return best


def brute_has_k(graph: Graph, k: int) -> bool:
    """Whether k edge-disjoint spanning trees exist, by exhaustive NW check."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    walk = _crossing_counts(graph)
    return k == 0 or all(cross >= k * (blocks - 1) for cross, blocks, _ in walk)


def worst_partition(graph: Graph, k: int) -> Partition | None:
    """The first partition, in growth-string order, violating the NW
    condition for k, or None if none exists. The violator is confirmed by
    nw_check before it is returned."""
    walk = _crossing_counts(graph)
    if k <= 0:
        return None
    for cross, blocks, rgs in walk:
        if cross < k * (blocks - 1):
            violator = make_partition(
                [v for v, label in enumerate(rgs) if label == b] for b in range(blocks)
            )
            if nw_check(graph, k, violator):
                raise AssertionError("internal error: the walk and nw_check disagree")
            return violator
    return None
