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
every forest already induces a spanning tree. Those closures, re-derived
against the final forests and merged where they overlap, are exactly the
blocks of a partition violating the Nash-Williams/Tutte count; every
certificate is re-validated through nw_check before it escapes this module.

max_packing and packing_number share one descent over k. It starts at the
upper bound min(delta, m/(n-1)); a failed run's certificate P bounds sigma
by floor(crossing/(|P|-1)), which becomes the next probe. The last failed
certificate therefore already refutes level sigma+1.

first_packing_prefix answers the same question along a growing edge
sequence, as the hitting-time search of the random graph process asks it:
one direct run packs the starting graph, and then each arriving edge is
offered to the same packer until the forests hold k(n-1) edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

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
    """

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.adj: list[list[set[int]]] = [[set() for _ in range(n)] for _ in range(k)]
        # Forest i starts with the singleton components i*n + v.
        self.comp: list[list[int]] = [[i * n + v for i in range(k)] for v in range(n)]
        self.members: list[dict[int, set[int]]] = [
            {i * n + v: {v} for v in range(n)} for i in range(k)
        ]
        self.size: list[int] = [0] * k
        self.version: list[int] = [0] * k
        self._arrays: list[tuple[int, list[int], list[int]] | None] = [None] * k
        self._next_comp = k * n
        self.total = 0
        # Union-find over saturated vertex sets; an edge inside one class can
        # never be placed, so repeat failures are skipped cheaply.
        self.reset_saturation()

    # -- forest bookkeeping ------------------------------------------------

    def reset_saturation(self) -> None:
        self.sat_parent = list(range(self.n))
        self.sat_size = [1] * self.n

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
        comp, members = self.comp, self.members[i]
        cu, cv = comp[u][i], comp[v][i]
        if cu == cv:
            raise AssertionError(f"internal error: cycle insert {e} in forest {i}")
        self.adj[i][u].add(v)
        self.adj[i][v].add(u)
        self.size[i] += 1
        self.total += 1
        self.version[i] += 1
        if len(members[cu]) < len(members[cv]):
            cu, cv = cv, cu
        # Absorb the smaller component cv into cu.
        moving = members.pop(cv)
        for x in moving:
            comp[x][i] = cu
        members[cu] |= moving

    def forest_remove(self, i: int, e: Edge) -> None:
        u, v = e
        self.adj[i][u].remove(v)
        self.adj[i][v].remove(u)
        self.size[i] -= 1
        self.total -= 1
        self.version[i] += 1
        # The component containing e splits in two; find the smaller side by
        # growing both halves in lockstep, then relabel it.
        adj = self.adj[i]
        sides = ([u], [v])
        seen = ({u}, {v})
        idx = [0, 0]
        smaller = -1
        while True:
            for s in (0, 1):
                if idx[s] < len(sides[s]):
                    x = sides[s][idx[s]]
                    idx[s] += 1
                    for y in adj[x]:
                        if y not in seen[s]:
                            seen[s].add(y)
                            sides[s].append(y)
                elif idx[s] == len(sides[s]):
                    smaller = s
                    break
            if smaller >= 0:
                break
        members = self.members[i]
        old = self.comp[u][i]
        fresh = self._next_comp
        self._next_comp += 1
        moving = seen[smaller]
        members[old] -= moving
        members[fresh] = moving
        for x in moving:
            self.comp[x][i] = fresh

    def tree_arrays(self, i: int) -> tuple[list[int], list[int]]:
        """Parent and depth arrays for forest i, cached per version."""
        cached = self._arrays[i]
        if cached is not None and cached[0] == self.version[i]:
            return cached[1], cached[2]
        n = self.n
        adj = self.adj[i]
        parent = [-1] * n
        depth = [0] * n
        visited = [False] * n
        for root in range(n):
            if visited[root]:
                continue
            visited[root] = True
            queue = deque([root])
            while queue:
                x = queue.popleft()
                for y in adj[x]:
                    if not visited[y]:
                        visited[y] = True
                        parent[y] = x
                        depth[y] = depth[x] + 1
                        queue.append(y)
        self._arrays[i] = (self.version[i], parent, depth)
        return parent, depth

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
        """Place e0 by an augmenting chain; on failure saturate its closure."""
        terminal, insert_at, label, seen = self._closure(e0)
        if terminal is not None:
            self._apply_chain(terminal, insert_at, label)
            return True
        anchor = e0[0]
        for v in seen:
            self._sat_union(anchor, v)
        return False

    def _closure(self, e0: Edge):
        """Breadth-first exchange search from unplaced edge e0.

        Grows the set of labeled edges (and the vertex set ``seen`` they
        touch) by walking, for each newly reached vertex, the tree paths to
        its labeled partner in every forest. Stops at the first labeled edge
        whose endpoints are separated in some forest (an augmenting chain
        terminal) or when the closure is exhausted, in which case every
        forest induces a spanning tree on ``seen`` and e0 is unplaceable.
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
                    return hit[0], hit[1], label, seen
        return None, -1, label, seen

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
        parent, depth = self.tree_arrays(i)
        comp = self.comp
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

    # -- certificates --------------------------------------------------------

    def close_pending(self, pending: list[Edge]) -> None:
        """Re-derive saturated classes for the final forests.

        Exchange chains can shuffle edges out of a block that was saturated
        mid-run, so the certificate is always rebuilt from closures against
        the finished forests: call reset_saturation first, then this. Every
        pending (unplaced) edge must still be closed, which is guaranteed
        because failed edges lie in the span of the placed set forever.
        """
        for e in pending:
            if self.sat_find(e[0]) == self.sat_find(e[1]):
                continue
            if self._hopeless_by_count(e):
                continue
            terminal, _, _, seen = self._closure(e)
            if terminal is not None:
                raise AssertionError("internal error: pending edge admits a chain")
            anchor = e[0]
            for v in seen:
                self._sat_union(anchor, v)

    def _hopeless_by_count(self, e0: Edge) -> bool:
        """Saturation test without the exchange search.

        Take S = the component of the smallest forest containing e0 (every
        forest connects e0's endpoints here, so S holds both). If the k
        forests hold exactly k(|S|-1) edges inside S, each must induce a
        spanning tree on S, so no edge inside S can ever be placed.
        """
        smallest = min(range(self.k), key=lambda i: self.size[i])
        block = self.members[smallest][self.comp[e0[0]][smallest]]
        inside = 0
        for adj_i in self.adj:
            for v in block:
                for w in adj_i[v]:
                    if w in block:
                        inside += 1
        if inside != self.k * (len(block) - 1) * 2:
            return False
        anchor = e0[0]
        for v in block:
            self._sat_union(anchor, v)
        return True

    # -- results -----------------------------------------------------------

    def snapshot_trees(self) -> tuple[Forest, ...]:
        return tuple(
            Forest(edges=tuple(sorted(
                (u, v) for u in range(self.n) for v in self.adj[i][u] if u < v
            )))
            for i in range(self.k)
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


def _direct_run(graph: Graph, k: int) -> tuple[_Packer, list[Edge]]:
    """One maximal matroid-union run with k forests built from scratch.

    Pass 1 offers the edges in ascending (u, v) order to direct inserts,
    which rotate a cursor over the forests so all k fill evenly, and defers
    every edge whose endpoints each forest already joins. Pass 2 offers the
    deferred edges, in the same order, to the exchange search, skipping
    those inside a saturated class. Both passes stop once the forests hold
    k(n-1) edges. Returns the packer and the edges that could not be placed
    (unfinished on that early exit, which only success triggers).
    """
    packer = _Packer(graph.n, k)
    target = k * (graph.n - 1)
    deferred: list[Edge] = []
    comp = packer.comp
    cursor = 0
    for e in graph.edge_list:
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
    pending: list[Edge] = []
    for e in deferred:
        if packer.total == target:
            break
        if not packer.offer(e):
            pending.append(e)
    return packer, pending


def first_packing_prefix(graph: Graph, extra: Iterable[Edge], k: int) -> int | None:
    """Smallest j such that graph plus extra[:j] holds k edge-disjoint spanning
    trees, or None if no prefix of extra (all of it included) does.

    One direct run packs graph; each extra edge is then offered, in order, to
    the same packer. This is exact. The forests always hold a maximum
    union-independent set of the edges seen so far, and one more edge raises
    that rank by at most one, exactly when it can be inserted directly or by
    an augmenting chain. An edge that fails lies in the span of the placed
    set, and stays there because placed edges are only ever moved between
    forests, never dropped; so a failed edge is never offered again. For the
    same reason a saturated class S keeps its k(|S|-1) placed edges, and so
    stays saturated as edges arrive: the saturation skip stays sound.

    The extra edges are checked as build_graph checks edges (endpoints in
    range, no self-loop, no duplicate of a graph edge or of an edge offered
    before), each just before it is offered.
    """
    n = graph.n
    if n == 0:
        raise ValueError("packing needs at least one vertex")
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    target = k * (n - 1)
    packer, _ = _direct_run(graph, k)
    if packer.total == target:
        return 0
    seen = set(graph.edge_list)
    for j, e in enumerate(checked_edges(n, extra, seen), start=1):
        if packer.offer(e) and packer.total == target:
            return j
    return None


def _failed_partition(graph: Graph, packer: _Packer, pending: list[Edge], k: int) -> Partition:
    packer.reset_saturation()
    packer.close_pending(pending)
    return _checked(graph, k, packer.saturated_partition())


def _packing_bound(graph: Graph) -> int:
    if graph.n <= 1:
        return 0
    return min(min_degree(graph), graph.m // (graph.n - 1))


def _cheap_certificate(graph: Graph, k: int) -> Partition | None:
    """A violating partition for level k that needs no packing run, if one
    is immediate: disconnection, global sparsity, or a low-degree vertex."""
    n = graph.n
    comps = connected_components(graph)
    if len(comps) >= 2:
        return make_partition(comps)
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
        run, pending = _direct_run(graph, k)
        if run.total == k * (n - 1):
            packer = run
            break
        certificate = _failed_partition(graph, run, pending, k)
        k = min(k - 1, crossing_edges(graph, certificate) // (certificate.block_count - 1))
    if certificate is None:
        certificate = _cheap_certificate(graph, k + 1)
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
    packer, _ = _direct_run(graph, k)
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
    packer, pending = _direct_run(graph, k)
    if packer.total == k * (graph.n - 1):
        raise ValueError(f"{k} edge-disjoint spanning trees exist; no certificate")
    return _failed_partition(graph, packer, pending, k)


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
