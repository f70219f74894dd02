"""Structural measurements on sampled graphs.

Verifiers for the structural facts that drive the sparse-regime argument
(small/large degree split, separation of small vertices, boundary expansion)
and the dense-regime argument (degree window around (n-1)p, the edge-count
consequence, Catlin's sigma = floor(m/(n-1)) identity), plus the Chernoff
bound on the binomial lower tail.

These facts are asymptotic, so nothing here asserts them on a single
sample; each verifier reports what it saw and the experiment layer turns
the reports into frequencies over trials. Hard guarantees live only in
deterministic identities (a singleton's expansion ratio is its degree).

Throughout, log is the natural logarithm, and degree thresholds are kept as
exact reals compared against integer degrees (no rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .graph import Graph, edge_boundary_size, max_degree, min_degree
from .packing import packing_number
from .rng import SplitMix64


@dataclass(frozen=True)
class SmallLargeSplit:
    """Vertices at or below the degree threshold log(n)/6, and the rest."""

    threshold: float
    small: frozenset[int]
    large: frozenset[int]


@dataclass(frozen=True)
class SeparationResult:
    """Outcome of the small-vertex separation check, with a witness on failure.

    kind is "adjacent" (the pair shares an edge; via is None) or
    "common-neighbor" (both ends of pair are adjacent to via).
    """

    ok: bool
    pair: tuple[int, int] | None = None
    via: int | None = None
    kind: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ExpansionReport:
    """Minimum boundary-to-size ratio over a family of vertex sets.

    mode records whether the family was fully enumerated or sampled; a
    sampled minimum is an upper bound on the true one, never proof of it.
    min_ratio is +inf when the family is empty.
    """

    min_size: int
    max_size: int
    large_only: bool
    mode: str
    min_ratio: float
    argmin: tuple[int, ...]
    sets_examined: int


@dataclass(frozen=True)
class DegreeWindow:
    """Degree and edge-count checks against the G(n,p) expectation window.

    max_degree_ok: Delta <= (3/2)(n-1)p; min_degree_ok: delta >= (4/5)(n-1)p;
    edges_ok is the edge-count consequence of the Delta window,
    m <= n*Delta_bound/2 = (3/4)n(n-1)p.
    """

    n: int
    p: float
    max_degree: int
    min_degree: int
    edge_count: int
    max_degree_ok: bool
    min_degree_ok: bool
    edges_ok: bool


EXHAUSTIVE_SET_LIMIT = 10**6
DEFAULT_SAMPLE_BUDGET = 100


def small_large_threshold(n: int) -> float:
    if n < 2:
        raise ValueError(f"threshold needs n >= 2, got {n}")
    return math.log(n) / 6


def classify_small_large(graph: Graph) -> SmallLargeSplit:
    """Split vertices by the degree threshold log(n)/6."""
    threshold = small_large_threshold(graph.n)
    small = frozenset(
        v for v in range(graph.n) if len(graph.adjacency[v]) <= threshold
    )
    large = frozenset(range(graph.n)) - small
    return SmallLargeSplit(threshold=threshold, small=small, large=large)


def check_small_separation(graph: Graph) -> SeparationResult:
    """No two small vertices may be adjacent or share a common neighbor."""
    if graph.n < 2:
        return SeparationResult(ok=True)
    small = classify_small_large(graph).small
    if len(small) <= 1:
        return SeparationResult(ok=True)
    for v in sorted(small):
        for w in graph.adjacency[v]:
            if w in small and w > v:
                return SeparationResult(ok=False, pair=(v, w), kind="adjacent")
    owner: dict[int, int] = {}
    for v in sorted(small):
        for w in graph.adjacency[v]:
            if w in owner:
                return SeparationResult(
                    ok=False, pair=(owner[w], v), via=w, kind="common-neighbor"
                )
            owner[w] = v
    return SeparationResult(ok=True)


def small_count_check(graph: Graph) -> tuple[bool, int]:
    """Whether the small class stays within sqrt(n), plus its size."""
    count = len(classify_small_large(graph).small)
    return count * count <= graph.n, count


def min_expansion_ratio(
    graph: Graph,
    max_size: int,
    large_only: bool = False,
    budget: int | None = None,
    seed: int = 0,
    min_size: int = 1,
) -> ExpansionReport:
    """Minimum of |edge_boundary(S)|/|S| over sets S in the family.

    The family is all vertex sets (subsets of LARGE when large_only) with
    min_size <= |S| <= max_size. Fully enumerated while the family holds at
    most 10^6 sets; beyond that, `budget` sets per size (default 100) are
    drawn uniformly from the seeded generator. Callers compare the ratio
    against whatever threshold their argument prescribes.
    """
    n = graph.n
    if not 1 <= max_size <= n // 2:
        raise ValueError(f"max_size {max_size} outside [1, {n // 2}]")
    if not 1 <= min_size <= max_size:
        raise ValueError(f"min_size {min_size} outside [1, {max_size}]")
    if large_only:
        pool = sorted(classify_small_large(graph).large)
    else:
        pool = list(range(n))
    sizes = range(min_size, min(max_size, len(pool)) + 1)
    total = sum(math.comb(len(pool), s) for s in sizes)

    best_ratio = math.inf
    best_set: tuple[int, ...] = ()
    examined = 0

    def consider(selected: tuple[int, ...]) -> None:
        nonlocal best_ratio, best_set, examined
        examined += 1
        ratio = edge_boundary_size(graph, set(selected)) / len(selected)
        if ratio < best_ratio:
            best_ratio = ratio
            best_set = tuple(sorted(selected))

    if total <= EXHAUSTIVE_SET_LIMIT:
        for s in sizes:
            for selected in combinations(pool, s):
                consider(selected)
        mode = "exhaustive"
    else:
        per_size = DEFAULT_SAMPLE_BUDGET if budget is None else budget
        if per_size <= 0:
            raise ValueError(f"budget must be positive, got {budget}")
        stream = SplitMix64(seed)
        scratch = list(pool)
        for s in sizes:
            for _ in range(per_size):
                # Partial Fisher-Yates: the first s entries become a
                # uniform s-subset of the pool.
                for i in range(s):
                    j = i + stream.below(len(scratch) - i)
                    scratch[i], scratch[j] = scratch[j], scratch[i]
                consider(tuple(scratch[:s]))
        mode = "sampled"
    return ExpansionReport(
        min_size=min_size,
        max_size=max_size,
        large_only=large_only,
        mode=mode,
        min_ratio=best_ratio,
        argmin=best_set,
        sets_examined=examined,
    )


def degree_window_check(graph: Graph, p: float) -> DegreeWindow:
    """Flags for the degree window and its edge-count consequence."""
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    n = graph.n
    if n < 1:
        raise ValueError("degree window needs at least one vertex")
    delta = min_degree(graph)
    delta_cap = max_degree(graph)
    expected = (n - 1) * p
    return DegreeWindow(
        n=n,
        p=p,
        max_degree=delta_cap,
        min_degree=delta,
        edge_count=graph.m,
        max_degree_ok=delta_cap <= 1.5 * expected,
        min_degree_ok=delta >= 0.8 * expected,
        edges_ok=graph.m <= 0.75 * n * expected,
    )


def catlin_check(graph: Graph) -> bool:
    """Whether sigma equals the global density bound floor(m/(n-1))."""
    if graph.n < 2:
        raise ValueError(f"catlin_check needs n >= 2, got {graph.n}")
    return packing_number(graph) == graph.m // (graph.n - 1)


def chernoff_lower(n: int, p: float, a: float) -> float:
    """Bound on Pr(Bin(n,p) < np - a): exp(-a^2 / 2np), capped at 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 < p <= 1:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if a <= 0:
        raise ValueError(f"a must be positive, got {a}")
    return min(1.0, math.exp(-a * a / (2 * (n * p))))
