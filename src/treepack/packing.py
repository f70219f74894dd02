"""Exact spanning-tree packing via matroid-union forest augmentation.

The packing number sigma(G) is the largest k such that G contains k
edge-disjoint spanning trees. By the Nash-Williams/Tutte theorem this holds
iff every partition P of the vertices has at least k(|P|-1) crossing edges,
so alongside the trees themselves we can always hand back a short refutation
of level sigma+1: a partition with too few crossing edges.

The engine maintains k edge-disjoint forests and makes two passes over the
graph edges in ascending (u, v) order. The first pass inserts every edge
whose endpoints are separated in some forest, rotating over the forests so
all k fill evenly, and defers the rest. The second pass offers each deferred
edge to a breadth-first search over the exchange structure (Roskind-Tarjan
labeling) for an augmenting chain of swaps. Matroid-union augmentation
reaches a maximum whatever order the edges arrive in, so deferring is exact.
Once an edge fails it fails forever: the edge lies in the span of the placed
set and spans only grow, so each edge is attempted once. _Packer.offer is
that one attempt for a single edge: a direct insert when some forest
separates its endpoints, else the saturation skip, else the exchange search.

When the search fails, the labeled edges close over a vertex set on which
every forest already induces a spanning tree. The packer merges each such
set into its saturation classes, and no later step of the run breaks them
(see _Packer). So the classes a failed run ends with are the blocks of a
partition violating the Nash-Williams/Tutte count: the certificate is read
straight off the run and re-validated through nw_check before it escapes
this module.

max_packing and packing_number share one descent over k. It starts at the
upper bound min(delta, m/(n-1)); a failed run's certificate P bounds sigma
by floor(crossing/(|P|-1)), which becomes the next probe. The last failed
certificate therefore already refutes level sigma+1.

first_packing_prefix answers the same question along a growing edge
sequence, as the hitting-time search of the random graph process asks it:
one direct run packs the first edges of the sequence, and then each later
edge is offered to the same packer until the forests hold k(n-1) edges.
The engine reads only (n, edges), so the search builds no Graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Sequence

from .graph import (
    Edge,
    Graph,
    Partition,
    checked_edges,
    connected_components,
    crossing_edges,
    make_partition,
    min_degree,
    normalize_edge,
    singleton_partition,
)
from .oracle import nw_check


@dataclass(frozen=True)
class Forest:
    """Edge set of an acyclic subgraph of some host graph."""

    edges: tuple[Edge, ...]

    def __len__(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class PackingResult:
    sigma: int
    trees: tuple[Forest, ...]
    certificate: Partition | None


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: str

    def __bool__(self) -> bool:
        return self.ok


class _Packer:
    """Mutable k-forest state for one packing computation.

    Component labels are stored transposed, comp[v][i] = component of vertex
    v in forest i, so "separated in some forest" is a single list comparison.
    Labels are unique across forests, and csize[c] is the size of the
    component labeled c.

    Every forest is kept rooted: parent[i][v] is v's parent in forest i (-1
    at a root) and depth[i][v] its depth plus an offset shared by its whole
    tree, so the exchange search climbs tree paths with nothing to rebuild.
    A link re-roots the smaller side at its own endpoint and hangs it under
    the other endpoint, relabeling it in the same walk. A cut makes the
    child end a root; its subtree keeps its depths, an offset _scan never
    sees because it compares depths only inside one tree.

    A union-find (sat_parent) holds the saturated classes: vertex sets S on
    which every forest is a spanning tree, so no edge inside S can be placed
    and offer skips it without a search. A class stays saturated for good:
    - When a search fails, every forest is a spanning tree on its seen set,
      which is merged into the classes; classes merged through a shared
      vertex stay saturated.
    - No chain edge lies inside a class S. The terminal is split apart in
      some forest, so it is not inside S; and if a trigger edge were inside
      S, the forest path it labels would lie inside S too.
    - forest_add refuses cycles, so no edge inside S is ever added, and S
      keeps its |S|-1 edges in each forest.
    When a run fails, every unplaced edge lies inside a class and every edge
    crossing the classes is placed. Each forest holds at most |P|-1 crossing
    edges, and one short of n-1 edges holds fewer, so the classes form a
    partition P with fewer than k(|P|-1) crossing edges.
    """

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.adj: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(k)]
        self.parent: list[list[int]] = [[-1] * n for _ in range(k)]
        self.depth: list[list[int]] = [[0] * n for _ in range(k)]
        # Forest i starts with the singleton components i*n + v; a cut draws
        # the next unused label, len(csize).
        self.comp: list[list[int]] = [[i * n + v for i in range(k)] for v in range(n)]
        self.csize: list[int] = [1] * (k * n)
        self.total = 0
        self.sat_parent = list(range(n))
        self.sat_size = [1] * n

    # -- forest bookkeeping ------------------------------------------------

    def sat_find(self, v: int) -> int:
        parent = self.sat_parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def _sat_union(self, a: int, b: int) -> None:
        ra, rb = self.sat_find(a), self.sat_find(b)
        if ra == rb:
            return
        if self.sat_size[ra] < self.sat_size[rb]:
            ra, rb = rb, ra
        self.sat_parent[rb] = ra
        self.sat_size[ra] += self.sat_size[rb]

    def forest_add(self, i: int, e: Edge) -> None:
        u, v = e
        comp, csize = self.comp, self.csize
        cu, cv = comp[u][i], comp[v][i]
        if cu == cv:
            raise AssertionError(f"internal error: cycle insert {e} in forest {i}")
        su, sv = csize[cu], csize[cv]
        if su < sv:
            u, v, cu, su, sv = v, u, cv, sv, su
        csize[cu] = su + sv
        # Re-root the smaller side (v's) at v under u, joining component cu.
        adj, parent, depth = self.adj[i], self.parent[i], self.depth[i]
        parent[v] = u
        depth[v] = depth[u] + 1
        comp[v][i] = cu
        stack = [v] if sv > 1 else []  # a singleton has no subtree to walk
        while stack:
            x = stack.pop()
            px, dy = parent[x], depth[x] + 1
            for y in adj[x]:
                if y != px:
                    parent[y] = x
                    depth[y] = dy
                    comp[y][i] = cu
                    stack.append(y)
        adj[u].append(v)
        adj[v].append(u)
        self.total += 1

    def forest_remove(self, i: int, e: Edge) -> None:
        u, v = e
        adj, parent = self.adj[i], self.parent[i]
        adj[u].remove(v)
        adj[v].remove(u)
        self.total -= 1
        if parent[u] == v:
            parent[u] = -1
        else:
            parent[v] = -1
        # The component containing e splits in two; find the smaller side by
        # growing both halves in lockstep, then relabel it. In a tree the one
        # visited neighbour of a vertex is the one it was reached from.
        sides, came, idx = ([u], [v]), ([-1], [-1]), [0, 0]
        s = 0
        while idx[s] < len(sides[s]):
            at = idx[s]
            x, back = sides[s][at], came[s][at]
            idx[s] = at + 1
            for y in adj[x]:
                if y != back:
                    sides[s].append(y)
                    came[s].append(x)
            s ^= 1
        comp, csize = self.comp, self.csize
        moving = sides[s]
        fresh = len(csize)
        csize[comp[u][i]] -= len(moving)
        csize.append(len(moving))
        for x in moving:
            comp[x][i] = fresh

    # -- exchange search -----------------------------------------------------

    def offer(self, e: Edge) -> bool:
        """Try to place edge e; False means e lies in the span of the placed set.

        A direct insert goes to the lowest-index forest that separates e's
        endpoints. An edge inside one saturated class is refused without a
        search; any other edge goes to the exchange search.
        """
        u, v = e
        cu, cv = self.comp[u], self.comp[v]
        if cu != cv:
            i = 0
            while cu[i] == cv[i]:
                i += 1
            self.forest_add(i, e)
            return True
        if self.sat_find(u) == self.sat_find(v):
            return False
        return self._augment(e)

    def _augment(self, e0: Edge) -> bool:
        """Place e0 by an augmenting chain; on failure saturate its closure.

        Breadth-first exchange search: grows the set of labeled edges (and
        the vertex set ``seen`` they touch) by walking, for each newly
        reached vertex, the tree paths to its labeled partner in every
        forest. Stops at the first labeled edge whose endpoints are
        separated in some forest (an augmenting chain terminal) or when the
        closure is exhausted, in which case every forest induces a spanning
        tree on ``seen`` and e0 is unplaceable.
        """
        k = self.k
        label: dict[Edge, tuple[Edge, int] | None] = {e0: None}
        # Per-forest jump maps compress already-labeled path stretches.
        jumps: list[dict[int, int]] = [dict() for _ in range(k)]
        seen = {e0[0], e0[1]}
        work: deque[tuple[int, Edge]] = deque([(e0[0], e0)])
        while work:
            v, bring = work.popleft()
            other = bring[1] if bring[0] == v else bring[0]
            for i in range(k):
                hit = self._scan(i, v, other, bring, label, jumps[i], seen, work)
                if hit is not None:
                    self._apply_chain(hit[0], hit[1], label)
                    return True
        anchor = e0[0]
        for v in seen:
            self._sat_union(anchor, v)
        return False

    def _scan(
        self,
        i: int,
        v: int,
        other: int,
        trigger: Edge,
        label: dict[Edge, tuple[Edge, int] | None],
        jump: dict[int, int],
        seen: set[int],
        work: deque[tuple[int, Edge]],
    ):
        """Label unlabeled forest-i edges on the path between v and other.

        Returns (edge, forest) when a labeled edge crosses components of some
        forest, else None. Both walk pointers climb toward the paths' meeting
        point; jump entries skip stretches labeled earlier in this search.
        """
        parent, depth, comp = self.parent[i], self.depth[i], self.comp
        x = _jump_find(jump, v)
        y = _jump_find(jump, other)
        while x != y:
            if depth[x] < depth[y]:
                x, y = y, x
            p = parent[x]
            if p < 0:
                raise AssertionError("internal error: endpoints not joined in forest")
            g = (x, p) if x < p else (p, x)
            label[g] = (trigger, i)
            jump[x] = p
            a, b = g
            ca, cb = comp[a], comp[b]
            if ca != cb:
                j = 0
                while ca[j] == cb[j]:
                    j += 1
                return g, j
            if a not in seen:
                seen.add(a)
                work.append((a, g))
            if b not in seen:
                seen.add(b)
                work.append((b, g))
            x = _jump_find(jump, p)
        return None

    def _apply_chain(
        self,
        terminal: Edge,
        insert_forest: int,
        label: dict[Edge, tuple[Edge, int] | None],
    ) -> None:
        e = terminal
        target = insert_forest
        while True:
            back = label[e]
            self.forest_add(target, e)
            if back is None:
                return
            prev, j = back
            self.forest_remove(j, e)
            target = j
            e = prev

    # -- results -----------------------------------------------------------

    def snapshot_trees(self) -> tuple[Forest, ...]:
        return tuple(
            Forest(edges=tuple(sorted(
                (v, p) if v < p else (p, v) for v, p in enumerate(parent) if p >= 0
            )))
            for parent in self.parent
        )

    def saturated_partition(self) -> Partition:
        groups: dict[int, list[int]] = {}
        for v in range(self.n):
            groups.setdefault(self.sat_find(v), []).append(v)
        return make_partition(groups.values())


def _jump_find(jump: dict[int, int], v: int) -> int:
    root = v
    while True:
        nxt = jump.get(root)
        if nxt is None:
            break
        root = nxt
    while v != root:
        jump[v], v = root, jump[v]
    return root


def _direct_run(n: int, edges: Iterable[Edge], k: int) -> _Packer:
    """One maximal matroid-union run with k forests built from scratch.

    The edges must be checked, normalized and in ascending (u, v) order, as
    a Graph's edge_list is. Pass 1 offers them to direct inserts, which
    rotate a cursor over the forests so all k fill evenly, and defers every
    edge whose endpoints each forest already joins. Pass 2 offers the
    deferred edges, in the same order, to the exchange search, skipping
    those inside a saturated class. Both passes stop once the forests hold
    k(n-1) edges. When they fall short, the packer's saturated classes are
    a certificate for level k (see _Packer).
    """
    packer = _Packer(n, k)
    target = k * (n - 1)
    deferred: list[Edge] = []
    comp = packer.comp
    cursor = 0
    for e in edges:
        if packer.total == target:
            break
        u, v = e
        cu, cv = comp[u], comp[v]
        if cu == cv:
            deferred.append(e)
            continue
        i = cursor
        while cu[i] == cv[i]:
            i += 1
            if i == k:
                i = 0
        packer.forest_add(i, e)
        cursor = i + 1
        if cursor == k:
            cursor = 0
    # An augmenting chain only coarsens each forest's components (each swap
    # drops an edge from the cycle its partner closes), so every deferred
    # edge is still joined in every forest and offer never inserts directly
    # here: it goes straight to the saturation skip and the exchange search.
    for e in deferred:
        if packer.total == target:
            break
        packer.offer(e)
    return packer


def first_packing_prefix(n: int, order: Sequence[Edge], start: int, k: int) -> int | None:
    """Smallest m >= start such that the first m edges of order hold k
    edge-disjoint spanning trees on 0..n-1, or None if no such m exists.

    One direct run packs order[:start]; each later edge is then offered, in
    order, to the same packer. This is exact. The forests always hold a
    maximum union-independent set of the edges seen so far, and one more
    edge raises that rank by at most one, exactly when it can be inserted
    directly or by an augmenting chain. An edge that fails lies in the span
    of the placed set, and stays there because placed edges are only ever
    moved between forests, never dropped; so a failed edge is never offered
    again. The saturated classes stay saturated as edges arrive (see
    _Packer), so the saturation skip stays sound.

    Every edge is checked as build_graph checks it, with the same messages:
    endpoints in range, no self-loop, no duplicate of an earlier edge. The
    first start edges are checked before the run, each later one just
    before it is offered.
    """
    if n < 1:
        raise ValueError("packing needs at least one vertex")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if not 0 <= start <= len(order):
        raise ValueError(f"prefix length {start} outside [0, {len(order)}]")
    target = k * (n - 1)
    edges = checked_edges(n, order, set())
    packer = _direct_run(n, sorted(islice(edges, start)), k)
    if packer.total == target:
        return start
    for m, e in enumerate(edges, start=start + 1):
        if packer.offer(e) and packer.total == target:
            return m
    return None


def _packing_bound(graph: Graph) -> int:
    if graph.n <= 1:
        return 0
    return min(min_degree(graph), graph.m // (graph.n - 1))


def _cheap_certificate(graph: Graph, k: int) -> Partition | None:
    """A violating partition for level k that needs no packing run, if one
    is immediate: disconnection, then _bound_certificate."""
    comps = connected_components(graph)
    if len(comps) >= 2:
        return make_partition(comps)
    return _bound_certificate(graph, k)


def _bound_certificate(graph: Graph, k: int) -> Partition | None:
    """The singleton partition if m < k(n-1), else a minimum-degree vertex
    split off if its degree is below k, else None."""
    n = graph.n
    if graph.m < k * (n - 1):
        return singleton_partition(n)
    degrees = [len(a) for a in graph.adjacency]
    v = min(range(n), key=lambda x: degrees[x])
    if degrees[v] < k:
        rest = [x for x in range(n) if x != v]
        return make_partition([[v], rest])
    return None


def _checked(graph: Graph, k: int, partition: Partition) -> Partition:
    if nw_check(graph, k, partition):
        raise AssertionError(
            f"internal error: produced certificate does not violate level {k}"
        )
    return partition


def _descend(graph: Graph) -> tuple[int, _Packer | None, Partition | None]:
    """sigma, the packer of the successful probe and a checked certificate
    for level sigma+1 (packer None when sigma = 0, certificate None when
    n = 1).

    Probes start at the upper bound min(delta, m/(n-1)). A failed probe at
    k yields a violating partition P, and the next probe is
    min(k-1, floor(cross(P)/(|P|-1))), so cross(P) < (next+1)(|P|-1) and
    the last failed P refutes sigma+1. When the first probe succeeds, a
    minimum-degree split or the singleton partition refutes bound+1.
    """
    n = graph.n
    if n == 0:
        raise ValueError("packing needs at least one vertex")
    if n == 1:
        return 0, None, None
    k = _packing_bound(graph)
    packer, certificate = None, None
    while k >= 1:
        run = _direct_run(n, graph.edge_list, k)
        if run.total == k * (n - 1):
            packer = run
            break
        certificate = _checked(graph, k, run.saturated_partition())
        k = min(k - 1, crossing_edges(graph, certificate) // (certificate.block_count - 1))
    if certificate is None:
        # The first probe decided at the bound. k >= 1 trees prove G
        # connected, so only bound 0 needs the connectivity check.
        certificate = _bound_certificate(graph, k + 1) if k else _cheap_certificate(graph, 1)
    return k, packer, _checked(graph, k + 1, certificate)


def max_packing(graph: Graph) -> PackingResult:
    """Exact packing number with trees and a level sigma+1 certificate.

    Runs the shared descent (see _descend) and keeps the trees of its
    successful probe; the certificate comes from the last failed probe, or
    from the minimum-degree or density bound when the first probe succeeds.
    """
    sigma, packer, certificate = _descend(graph)
    trees = packer.snapshot_trees() if packer is not None else ()
    return PackingResult(sigma=sigma, trees=trees, certificate=certificate)


def packing_number(graph: Graph) -> int:
    """sigma(G) alone: the shared descent of max_packing without its trees.

    Uniformly dense graphs settle on the first probe at min(delta, m/(n-1)),
    so this is the hot path for Monte Carlo trials; max_packing answers
    identically on every input.
    """
    return _descend(graph)[0]


def has_k_spanning_trees(graph: Graph, k: int) -> tuple[bool, tuple[Forest, ...] | None]:
    """Decide k edge-disjoint spanning trees; on success return them.

    Single direct run with k forests: maximality of the augmented edge set
    means total size k(n-1) is hit exactly when the packing exists.
    """
    if graph.n == 0:
        raise ValueError("packing needs at least one vertex")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if graph.n == 1:
        return True, tuple(Forest(edges=()) for _ in range(k))
    if graph.m < k * (graph.n - 1) or min_degree(graph) < k:
        return False, None
    packer = _direct_run(graph.n, graph.edge_list, k)
    if packer.total == k * (graph.n - 1):
        return True, packer.snapshot_trees()
    return False, None


def extract_certificate(graph: Graph, k: int) -> Partition:
    """A partition with fewer than k(|P|-1) crossing edges.

    Raises when k trees do exist. Every returned partition is re-validated
    through nw_check before leaving this function.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if graph.n < 2:
        raise ValueError("certificates need at least two vertices")
    cheap = _cheap_certificate(graph, k)
    if cheap is not None:
        return _checked(graph, k, cheap)
    packer = _direct_run(graph.n, graph.edge_list, k)
    if packer.total == k * (graph.n - 1):
        raise ValueError(f"{k} edge-disjoint spanning trees exist; no certificate")
    return _checked(graph, k, packer.saturated_partition())


def verify_packing(graph: Graph, trees) -> VerifyResult:
    """Independent validation of a claimed packing, union-find only."""
    n = graph.n
    edge_set = graph.edge_set
    used: set[Edge] = set()
    for idx, tree in enumerate(trees):
        tree_edges = tree.edges if isinstance(tree, Forest) else tuple(tree)
        if len(tree_edges) != n - 1:
            return VerifyResult(False, f"tree {idx}: {len(tree_edges)} edges, expected {n - 1}")
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in tree_edges:
            e = normalize_edge(u, v)
            if e not in edge_set:
                return VerifyResult(False, f"tree {idx}: edge {e} not in graph")
            if e in used:
                return VerifyResult(False, f"tree {idx}: edge {e} reused across trees")
            used.add(e)
            ru, rv = find(u), find(v)
            if ru == rv:
                return VerifyResult(False, f"tree {idx}: edge {e} closes a cycle")
            parent[ru] = rv
    # n-1 acyclic edges imply a single component; nothing left to check.
    return VerifyResult(True, "ok")
