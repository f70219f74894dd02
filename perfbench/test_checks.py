"""Tests for the benchmark's own checks.

Run with: python3 -m pytest perfbench/test_checks.py

Each checker must accept treepack's outputs on graphs whose packing number
is known, and reject a corrupted tree and a partition that refutes nothing.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from treepack.cli import main as cli_main  # noqa: E402
from treepack.experiments import p_grid  # noqa: E402
from treepack.packing import max_packing, packing_number  # noqa: E402
from treepack.randgraph import hitting_time_min_degree, sample_gnp, sample_process  # noqa: E402
from treepack.rng import derive_seed  # noqa: E402
from treepack.graph import build_graph, complete_graph, cycle_graph  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402


def two_k4_bridged():
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u + 4, v + 4) for u, v in edges]
    return build_graph(8, edges + [(3, 4)])


KNOWN = [
    ("K4", complete_graph(4), 2),
    ("K6", complete_graph(6), 3),
    ("C7", cycle_graph(7), 1),
    ("two K4 and a bridge", two_k4_bridged(), 1),
]


def packed(graph):
    result = max_packing(graph)
    trees = [list(tree.edges) for tree in result.trees]
    blocks = [sorted(block) for block in result.certificate.blocks]
    return result.sigma, trees, blocks


@pytest.mark.parametrize("name,graph,sigma", KNOWN, ids=[k[0] for k in KNOWN])
def test_known_sigma_passes(name, graph, sigma):
    got, trees, blocks = packed(graph)
    assert got == sigma
    checks.check_sigma(graph.n, graph.edge_list, got, packing_number(graph), trees, blocks)


def _corruptions(graph, trees):
    """Packings broken in one place each: a short tree, an edge outside the
    graph, a cycle (where the graph has one besides the tree's own), and an
    edge shared by two trees."""
    n = graph.n
    first = trees[0]
    yield [first[1:]] + trees[1:]
    yield [first[:-1] + [(0, n)]] + trees[1:]
    unused = next(e for e in graph.edge_list if e not in first)
    cyclic = _with_cycle(first, unused)
    if cyclic is not None:
        yield [cyclic] + trees[1:]
    if len(trees) > 1:
        yield [first, [first[0]] + trees[1][1:]] + trees[2:]


def _with_cycle(tree, extra):
    """The tree plus ``extra``, less one edge off the cycle ``extra`` closes."""
    u, v = extra
    adjacency = {}
    for a, b in tree:
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    parent = {u: None}
    stack = [u]
    while stack:
        x = stack.pop()
        for y in adjacency.get(x, ()):
            if y not in parent:
                parent[y] = x
                stack.append(y)
    path = set()
    x = v
    while parent[x] is not None:
        path.add((min(x, parent[x]), max(x, parent[x])))
        x = parent[x]
    off_cycle = [e for e in tree if e not in path]
    if not off_cycle:
        return None
    return [e for e in tree if e != off_cycle[0]] + [extra]


@pytest.mark.parametrize("name,graph,sigma", KNOWN, ids=[k[0] for k in KNOWN])
def test_corrupted_trees_are_rejected(name, graph, sigma):
    _, trees, _ = packed(graph)
    for bad in _corruptions(graph, trees):
        with pytest.raises(CheckError):
            checks.check_trees(graph.n, graph.edge_list, bad, sigma)
    with pytest.raises(CheckError):
        checks.check_trees(graph.n, graph.edge_list, trees[:-1], sigma)


@pytest.mark.parametrize("name,graph,sigma", KNOWN, ids=[k[0] for k in KNOWN])
def test_partitions_that_refute_nothing_are_rejected(name, graph, sigma):
    n, edges = graph.n, graph.edge_list
    _, _, blocks = packed(graph)
    checks.check_certificate(n, edges, blocks, sigma + 1)
    # The same certificate does not refute the level that does pack.
    with pytest.raises(CheckError):
        checks.check_certificate(n, edges, blocks, sigma)
    singletons = [[v] for v in range(n)]
    with pytest.raises(CheckError):
        checks.check_certificate(n, edges, singletons, sigma)
    with pytest.raises(CheckError):
        checks.check_certificate(n, edges, [list(range(n))], sigma + 1)
    overlapping = [list(range(n - 1)), [0, n - 1]]
    with pytest.raises(CheckError):
        checks.check_certificate(n, edges, overlapping, n * n)
    uncovered = [list(range(n - 2)), [n - 2]]
    with pytest.raises(CheckError):
        checks.check_certificate(n, edges, uncovered, n * n)


def test_sigma_check_rejects_disagreement_and_excess():
    graph = two_k4_bridged()
    sigma, trees, blocks = packed(graph)
    with pytest.raises(CheckError):
        checks.check_sigma(graph.n, graph.edge_list, sigma, sigma + 1, trees, blocks)
    with pytest.raises(CheckError):
        checks.check_sigma(graph.n, graph.edge_list, sigma + 1, sigma + 1, trees, blocks)
    with pytest.raises(CheckError):
        checks.check_sigma(graph.n, graph.edge_list, sigma, sigma, trees, None)


def test_seed_grid_and_stream_match_the_documented_rules():
    assert checks.trial_seed(2026, "bench", 64, 1, 5) == derive_seed(2026, "bench", 64, 1, 5)
    for n in (64, 1000, 8192):
        assert checks.th1_grid(n) == p_grid("th1", n)
    n, p, seed = 90, 0.2, derive_seed(1, "t", 90, 0, 0)
    graph = sample_gnp(n, p, seed)
    checks.check_sample(n, p, seed, graph.edge_list)
    degrees = checks.gnp_degrees(n, p, seed, chunk=97)
    assert degrees.tolist() == [len(a) for a in graph.adjacency]
    assert checks.gnp_degrees(n, 1.0, seed).tolist() == [n - 1] * n
    for t in (0, 1, 88, 89, 4004):
        assert checks.pair_index(n, *checks.pair_at(n, t)) == t


def test_sample_check_rejects_a_changed_graph():
    n, p, seed = 120, 0.1, 77
    edges = list(sample_gnp(n, p, seed).edge_list)
    undrawn = next((0, v) for v in range(1, n) if (0, v) not in edges)
    with pytest.raises(CheckError):
        checks.check_sample(n, p, seed, [undrawn] + edges)
    with pytest.raises(CheckError):
        checks.check_sample(n, p, seed + 1, edges)


def test_hitting_checks():
    n, k = 12, 2
    perm = sample_process(n, 5)
    order = list(perm.order)
    checks.check_permutation(n, order)
    with pytest.raises(CheckError):
        checks.check_permutation(n, order[:-1] + [order[0]])
    tau = hitting_time_min_degree(perm, k)
    assert checks.min_degree_time(n, order, k) == tau
    # Build the witnesses by hand from the prefix graphs.
    from treepack.packing import extract_certificate, has_k_spanning_trees

    m = tau
    while not has_k_spanning_trees(build_graph(n, order[:m]), k)[0]:
        m += 1
    trees = [list(t.edges) for t in has_k_spanning_trees(build_graph(n, order[:m]), k)[1]]
    blocks = [sorted(b) for b in extract_certificate(build_graph(n, order[:m - 1]), k).blocks]
    checks.check_hitting(n, order, k, tau, m, trees, blocks)
    with pytest.raises(CheckError):
        checks.check_hitting(n, order, k, tau + 1, m, trees, blocks)
    with pytest.raises(CheckError):
        checks.check_hitting(n, order, k, tau, m, trees[:1], blocks)
    with pytest.raises(CheckError):
        checks.check_hitting(n, order, k, tau, m, trees, [list(range(n))])


def test_structure_campaign_check(tmp_path):
    out = tmp_path / "campaign"
    with redirect_stdout(io.StringIO()):
        code = cli_main([
            "experiment", "structure", "--n", "40", "64", "--trials", "2",
            "--seed", "9", "--out", str(out), "--sequential",
        ])
    assert code == 0
    files = {
        name: (out / name).read_bytes()
        for name in ("records.csv", "summary.csv", "summary.json", "plot.svg")
    }
    checks.check_structure_campaign(files, 9, (40, 64), 2)
    lines = files["records.csv"].decode().splitlines()
    fields = lines[1].split(",")
    delta_at = lines[0].split(",").index("delta")
    fields[delta_at] = str(int(fields[delta_at]) + 1)
    broken = dict(files, **{"records.csv": "\n".join([lines[0], ",".join(fields)] + lines[2:]).encode() + b"\n"})
    with pytest.raises(CheckError):
        checks.check_structure_campaign(broken, 9, (40, 64), 2)
    summary = files["summary.csv"].decode().replace(",2,", ",3,", 1).encode()
    with pytest.raises(CheckError):
        checks.check_structure_campaign(dict(files, **{"summary.csv": summary}), 9, (40, 64), 2)
