"""Brute-force partition oracle for spanning-tree packing.

Everything here enumerates all partitions of the vertex set, so it is only
usable for tiny graphs. It exists to cross-check the exact packing algorithm:
the tree-packing number equals

    floor( min over partitions P with >= 2 blocks of  cross(P) / (|P| - 1) )

by the Nash-Williams/Tutte characterization, where cross(P) counts edges
joining distinct blocks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .graph import Graph, Partition, crossing_edges, make_partition

MAX_ORACLE_VERTICES = 12


def _growth_strings(n: int) -> Iterator[list[int]]:
    """Restricted growth strings of length n in lexicographic order.

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


def enumerate_partitions(n: int, min_blocks: int = 1) -> Iterator[Partition]:
    """Yield every partition of {0..n-1} with at least ``min_blocks`` blocks.

    Enumeration walks restricted growth strings in lexicographic order, so
    the output order is deterministic. Bell(12) is about 4.2 million, which
    is the practical ceiling; larger n is refused.
    """
    if n < 1:
        raise ValueError("partition enumeration needs at least one vertex")
    if n > MAX_ORACLE_VERTICES:
        raise ValueError(f"refusing to enumerate partitions for n={n} > {MAX_ORACLE_VERTICES}")
    for rgs in _growth_strings(n):
        blocks_needed = max(rgs) + 1
        if blocks_needed >= min_blocks:
            groups: list[list[int]] = [[] for _ in range(blocks_needed)]
            for v, label in enumerate(rgs):
                groups[label].append(v)
            yield make_partition(groups)


def nw_check(graph: Graph, k: int, partition: Partition) -> bool:
    """Nash-Williams/Tutte condition for one partition: cross >= k(|P|-1)."""
    return crossing_edges(graph, partition) >= k * (partition.block_count - 1)


def _crossing_counts(graph: Graph) -> Iterator[tuple[int, int]]:
    """(cross, blocks) over all partitions with >= 2 blocks, no Partition objects."""
    edges = graph.edge_list
    for rgs in _growth_strings(graph.n):
        blocks = max(rgs) + 1
        if blocks >= 2:
            yield sum(1 for u, v in edges if rgs[u] != rgs[v]), blocks


def brute_sigma(graph: Graph) -> int:
    """Tree-packing number by exhaustive partition search (n <= 12).

    A single vertex packs arbitrarily many empty spanning trees; the value
    reported here is 0 so that the packing number never exceeds the minimum
    degree. Otherwise sigma is floor(eta) by Nash-Williams/Tutte.
    """
    if graph.n > MAX_ORACLE_VERTICES:
        raise ValueError(f"brute_sigma is limited to n <= {MAX_ORACLE_VERTICES}")
    if graph.n <= 1:
        return 0
    return int(brute_eta(graph))  # int() floors a nonnegative Fraction


def brute_eta(graph: Graph) -> Fraction:
    """Exact partition strength: min over >=2-block partitions of cross/(|P|-1)."""
    if graph.n > MAX_ORACLE_VERTICES:
        raise ValueError(f"brute_eta is limited to n <= {MAX_ORACLE_VERTICES}")
    if graph.n <= 1:
        raise ValueError("partition strength needs at least 2 vertices")
    best: Fraction | None = None
    for cross, blocks in _crossing_counts(graph):
        value = Fraction(cross, blocks - 1)
        if best is None or value < best:
            best = value
            if best == 0:
                break
    if best is None:
        raise AssertionError("internal error: no partition with two or more blocks")
    return best


def brute_has_k(graph: Graph, k: int) -> bool:
    """Whether k edge-disjoint spanning trees exist, by exhaustive NW check."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0 or graph.n <= 1:
        return True
    return all(cross >= k * (blocks - 1) for cross, blocks in _crossing_counts(graph))


def worst_partition(graph: Graph, k: int) -> Partition | None:
    """A partition violating the NW condition for k, or None if none exists."""
    if graph.n <= 1 or k <= 0:
        return None
    for partition in enumerate_partitions(graph.n, min_blocks=2):
        if not nw_check(graph, k, partition):
            return partition
    return None
