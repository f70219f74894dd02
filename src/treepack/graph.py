"""Simple undirected graphs on dense integer vertices, plus vertex partitions.

Vertices are always 0..n-1. Graphs are immutable once built: every mutation
path goes through :func:`build_graph`, which rejects self-loops, duplicate
edges and out-of-range endpoints instead of silently dropping them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: vertex count, sorted edge list, adjacency."""

    n: int
    edge_list: tuple[Edge, ...]
    adjacency: tuple[frozenset[int], ...]

    @property
    def m(self) -> int:
        return len(self.edge_list)

    @property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edge_list)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Partition:
    """Partition of {0..n-1} into nonempty blocks, ordered by smallest member."""

    blocks: tuple[frozenset[int], ...]

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ",".join(map(str, sorted(b))) + "}" for b in self.blocks)
        return f"Partition({inner})"


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def checked_edges(n: int, edges: Iterable[tuple[int, int]], seen: set[Edge]) -> Iterator[Edge]:
    """Yield each pair of edges normalized, after checking it on 0..n-1.

    Rejects an out-of-range endpoint, a self-loop or an edge already in seen,
    and adds each yielded edge to seen. Lazy: a pair is checked only when the
    caller asks for it.
    """
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge ({e[0]},{e[1]})")
        seen.add(e)
        yield e


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph, rejecting self-loops, duplicates and bad endpoints."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    seen: set[Edge] = set()
    adjacency: list[set[int]] = [set() for _ in range(n)]
    for u, v in checked_edges(n, edges, seen):
        adjacency[u].add(v)
        adjacency[v].add(u)
    return Graph(
        n=n,
        edge_list=tuple(sorted(seen)),
        adjacency=tuple(frozenset(a) for a in adjacency),
    )


def min_degree(graph: Graph) -> int:
    if graph.n == 0:
        raise ValueError("minimum degree is undefined on an empty vertex set")
    return min(len(a) for a in graph.adjacency)


def max_degree(graph: Graph) -> int:
    if graph.n == 0:
        raise ValueError("maximum degree is undefined on an empty vertex set")
    return max(len(a) for a in graph.adjacency)


def connected_components(graph: Graph) -> list[frozenset[int]]:
    """Maximal connected vertex sets, ordered by smallest member."""
    seen = [False] * graph.n
    components: list[frozenset[int]] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        members = [start]
        while queue:
            v = queue.popleft()
            for w in graph.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    members.append(w)
                    queue.append(w)
        components.append(frozenset(members))
    return components


def _check_vertex_set(graph: Graph, vertices: Iterable[int]) -> set[int]:
    s = set(vertices)
    for v in s:
        if not (0 <= v < graph.n):
            raise ValueError(f"vertex {v} outside 0..{graph.n - 1}")
    return s


def edge_boundary(graph: Graph, vertices: Iterable[int]) -> frozenset[Edge]:
    """Edges with exactly one endpoint inside the given vertex set."""
    inside = _check_vertex_set(graph, vertices)
    out: list[Edge] = []
    for v in inside:
        for w in graph.adjacency[v]:
            if w not in inside:
                out.append(normalize_edge(v, w))
    return frozenset(out)


def edge_boundary_size(graph: Graph, inside: set[int]) -> int:
    """|edge_boundary| without materializing the edge set (hot path helper)."""
    count = 0
    for v in inside:
        for w in graph.adjacency[v]:
            if w not in inside:
                count += 1
    return count


def make_partition(blocks: Iterable[Iterable[int]]) -> Partition:
    frozen = [frozenset(b) for b in blocks]
    frozen.sort(key=min)
    return Partition(blocks=tuple(frozen))


def singleton_partition(n: int) -> Partition:
    return Partition(blocks=tuple(frozenset((v,)) for v in range(n)))


def validate_partition(graph: Graph, partition: Partition) -> list[int]:
    """Check the blocks tile 0..n-1 exactly; return the vertex->block map."""
    if not partition.blocks:
        raise ValueError("partition has no blocks")
    block_of = [-1] * graph.n
    total = 0
    for i, block in enumerate(partition.blocks):
        if not block:
            raise ValueError("partition contains an empty block")
        for v in block:
            if not (0 <= v < graph.n):
                raise ValueError(f"partition mentions vertex {v} outside 0..{graph.n - 1}")
            if block_of[v] != -1:
                raise ValueError(f"vertex {v} appears in two blocks")
            block_of[v] = i
        total += len(block)
    if total != graph.n:
        missing = [v for v in range(graph.n) if block_of[v] == -1]
        raise ValueError(f"partition misses vertices {missing}")
    return block_of


def crossing_edges(graph: Graph, partition: Partition) -> int:
    """Number of edges whose endpoints lie in different blocks."""
    block_of = validate_partition(graph, partition)
    return sum(1 for u, v in graph.edge_list if block_of[u] != block_of[v])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return build_graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return build_graph(n, [(v, v + 1) for v in range(n - 1)])


def read_edge_list(path: str) -> Graph:
    """Read the text edge-list format: first line ``n m``, then m lines ``u v``."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty edge-list file")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"{path}: header must be 'n m', got {lines[0]!r}")
    n, m = int(header[0]), int(header[1])
    if len(lines) - 1 != m:
        raise ValueError(f"{path}: header promises {m} edges, file has {len(lines) - 1}")
    edges: list[Edge] = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}: bad edge line {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return build_graph(n, edges)


def write_edge_list(graph: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"{graph.n} {graph.m}\n")
        for u, v in graph.edge_list:
            handle.write(f"{u} {v}\n")

