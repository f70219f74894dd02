"""Checks of treepack's outputs that share no code with treepack.

Every check here re-derives what it needs from the definitions in the
README of the repository: the splitmix64-ctr-v1 stream, the derive_seed
byte layout, the th1 grid, and the Nash-Williams/Tutte count. Nothing is
compared against a stored copy of an earlier output. A failed check raises
CheckError with a message naming what was wrong.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

MASK64 = (1 << 64) - 1
TWO64 = 1 << 64
GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB


class CheckError(Exception):
    """An output of the program failed an independent check."""


def _fail(message: str) -> None:
    raise CheckError(message)


# -- inputs: seeds, grids and the generator -----------------------------------

def trial_seed(master: int, experiment_id: str, n: int, p_index: int, trial: int) -> int:
    """The documented derive_seed layout: SHA-256, first 8 bytes big-endian."""
    ident = experiment_id.encode("utf-8")
    blob = (
        (master & MASK64).to_bytes(8, "big")
        + len(ident).to_bytes(2, "big")
        + ident
        + n.to_bytes(8, "big")
        + p_index.to_bytes(8, "big")
        + trial.to_bytes(8, "big")
    )
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def th1_grid(n: int) -> list[float]:
    """Three p values between 1.1 log n / n and (log n + log log n) / n."""
    log_n = math.log(n)
    a = 1.1 * log_n / n
    b = (log_n + math.log(log_n)) / n
    lo, hi = min(a, b), max(a, b)
    return [lo, (lo + hi) / 2, hi]


def splitmix_word(seed: int, index: int) -> int:
    """Word ``index`` of stream ``seed`` in splitmix64-ctr-v1."""
    z = (seed + (index + 1) * GAMMA) & MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def _splitmix_words(seed: int, start: int, count: int) -> np.ndarray:
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= np.uint64(GAMMA)
    z += np.uint64(seed & MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(MIX2)
    z ^= z >> np.uint64(31)
    return z


def gnp_threshold(p: float) -> int:
    return round(p * TWO64)


def pair_index(n: int, u: int, v: int) -> int:
    """Position of pair (u, v), u < v, in lexicographic pair order."""
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def pair_at(n: int, t: int) -> tuple[int, int]:
    """Inverse of pair_index."""
    u = 0
    row = n - 1
    while t >= row:
        t -= row
        u += 1
        row -= 1
    return u, u + 1 + t


def gnp_degrees(n: int, p: float, seed: int, chunk: int = 1 << 22) -> np.ndarray:
    """Vertex degrees of the G(n,p) draw, from the stream in fixed chunks."""
    degrees = np.zeros(n, dtype=np.int64)
    threshold = gnp_threshold(p)
    count = n * (n - 1) // 2
    if threshold >= TWO64:
        degrees += n - 1
        return degrees
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * (2 * n - rows - 1) // 2
    for start in range(0, count, chunk):
        words = _splitmix_words(seed, start, min(chunk, count - start))
        kept = np.flatnonzero(words < np.uint64(threshold)) + start
        u = np.searchsorted(offsets, kept, side="right") - 1
        v = kept - offsets[u] + u + 1
        degrees += np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    return degrees


# -- graphs, trees and partitions -------------------------------------------------

def check_sample(n: int, p: float, seed: int, edges, spots: int = 64) -> None:
    """Spot-check a G(n,p) draw: pair t is an edge iff word t < round(p 2^64).

    Checks ``spots`` pair positions spread over the whole order, and as many
    of the drawn edges, so both kept and dropped pairs are tested.
    """
    threshold = gnp_threshold(p)
    count = n * (n - 1) // 2
    edge_set = set(edges)
    if len(edge_set) != len(edges):
        _fail("sample repeats an edge")
    positions = {(i * 0x9E3779B9 + seed) % count for i in range(spots)}
    edge_list = sorted(edge_set)
    step = max(1, len(edge_list) // spots)
    positions.update(pair_index(n, u, v) for u, v in edge_list[::step])
    for t in sorted(positions):
        u, v = pair_at(n, t)
        kept = splitmix_word(seed, t) < threshold
        if kept != ((u, v) in edge_set):
            _fail(f"pair ({u},{v}) at position {t}: drawn {kept}, sample says {not kept}")


def check_trees(n: int, edges, trees, count: int) -> None:
    """``count`` edge-disjoint spanning trees of the graph with these edges."""
    if len(trees) != count:
        _fail(f"{len(trees)} trees, expected {count}")
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    used: set[tuple[int, int]] = set()
    for index, tree in enumerate(trees):
        if len(tree) != n - 1:
            _fail(f"tree {index} has {len(tree)} edges, expected {n - 1}")
        parent = list(range(n))
        for u, v in tree:
            e = (min(u, v), max(u, v))
            if e not in edge_set:
                _fail(f"tree {index}: edge {e} is not in the graph")
            if e in used:
                _fail(f"tree {index}: edge {e} is used twice")
            used.add(e)
            roots = []
            for x in e:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                roots.append(x)
            if roots[0] == roots[1]:
                _fail(f"tree {index}: edge {e} closes a cycle")
            parent[roots[0]] = roots[1]


def check_certificate(n: int, edges, blocks, level: int) -> None:
    """Blocks tile 0..n-1 and cross fewer than level * (blocks - 1) edges."""
    if len(blocks) < 2:
        _fail("a partition with one block refutes nothing")
    block_of = [-1] * n
    for index, block in enumerate(blocks):
        if not block:
            _fail(f"block {index} is empty")
        for v in block:
            if not 0 <= v < n:
                _fail(f"block {index} holds vertex {v} outside 0..{n - 1}")
            if block_of[v] != -1:
                _fail(f"vertex {v} lies in two blocks")
            block_of[v] = index
    if -1 in block_of:
        _fail(f"vertex {block_of.index(-1)} lies in no block")
    cross = sum(1 for u, v in edges if block_of[u] != block_of[v])
    if cross >= level * (len(blocks) - 1):
        _fail(
            f"{cross} crossing edges over {len(blocks)} blocks do not refute "
            f"{level} trees"
        )


def degrees_of(n: int, edges) -> list[int]:
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return degree


def check_sigma(n: int, edges, sigma: int, number: int, trees, blocks) -> None:
    """max_packing's witnessed sigma against packing_number and the bounds."""
    if number != sigma:
        _fail(f"packing_number says {number}, max_packing witnesses {sigma}")
    delta = min(degrees_of(n, edges))
    if sigma > min(delta, len(edges) // (n - 1)):
        _fail(f"sigma {sigma} exceeds min(delta={delta}, m/(n-1)={len(edges) // (n - 1)})")
    check_trees(n, edges, trees, sigma)
    if blocks is None:
        _fail("no certificate for sigma + 1")
    check_certificate(n, edges, blocks, sigma + 1)


# -- the random graph process -----------------------------------------------------

def check_permutation(n: int, order) -> None:
    """Every pair u < v of 0..n-1 appears exactly once."""
    total = n * (n - 1) // 2
    if len(order) != total:
        _fail(f"{len(order)} pairs, expected {total}")
    pairs = np.asarray(order, dtype=np.int64).reshape(-1, 2)
    u, v = pairs[:, 0], pairs[:, 1]
    if (u < 0).any() or (v >= n).any() or (u >= v).any():
        _fail("a pair is out of range or not ordered u < v")
    if np.unique(u * n + v).size != total:
        _fail("a pair repeats")


def min_degree_time(n: int, order, k: int) -> int:
    """First prefix length whose graph has minimum degree k, by counting."""
    degree = [0] * n
    below = n
    for m, (u, v) in enumerate(order, start=1):
        for x in (u, v):
            degree[x] += 1
            if degree[x] == k:
                below -= 1
        if below == 0:
            return m
    _fail(f"the process never reaches minimum degree {k}")


def check_hitting(n: int, order, k: int, tau_delta: int, tau_sigma: int, trees, blocks) -> None:
    """Both hitting times, with trees at tau_sigma and a refutation just before."""
    expected = min_degree_time(n, order, k)
    if tau_delta != expected:
        _fail(f"k={k}: tau_delta {tau_delta}, counting gives {expected}")
    if tau_sigma < tau_delta:
        _fail(f"k={k}: tau_sigma {tau_sigma} precedes tau_delta {tau_delta}")
    check_trees(n, order[:tau_sigma], trees, k)
    check_certificate(n, order[:tau_sigma - 1], blocks, k)


# -- structure campaigns ------------------------------------------------------------

def read_csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _same(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)


def check_structure_campaign(files: dict[str, bytes], master: int, n_values, trials: int) -> None:
    """records.csv against the stream, summaries against the records."""
    records = read_csv_rows(files["records.csv"].decode())
    expected_rows = [
        (n, p_index, trial)
        for n in sorted(n_values)
        for p_index in range(3)
        for trial in range(trials)
    ]
    got_rows = [(int(r["n"]), int(r["p_index"]), int(r["trial"])) for r in records]
    if got_rows != expected_rows:
        _fail(f"records.csv rows {got_rows[:4]}... differ from the campaign grid")
    for r in records:
        n, p_index, trial = int(r["n"]), int(r["p_index"]), int(r["trial"])
        where = f"records.csv n={n} p_index={p_index} trial={trial}"
        p = th1_grid(n)[p_index]
        if not _same(float(r["p"]), p):
            _fail(f"{where}: p {r['p']}, th1 grid gives {p!r}")
        seed = trial_seed(master, "structure", n, p_index, trial)
        if int(r["seed"]) != seed:
            _fail(f"{where}: seed {r['seed']}, derivation gives {seed}")
        degrees = gnp_degrees(n, p, seed)
        log_n = math.log(n)
        delta = int(degrees.min())
        small = int((degrees <= log_n / 6).sum())
        expansion = float(r["expansion_min"])
        expect = {
            "edges": int(degrees.sum()) // 2,
            "delta": delta,
            "small_count": small,
            "small_ok": int(small * small <= n),
            "delta_le_log30": int(delta <= log_n / 30),
            "expansion_gt_log10": int(expansion > log_n / 10),
            "expansion_ge_delta": int(expansion >= delta),
        }
        for key, value in expect.items():
            if int(r[key]) != value:
                _fail(f"{where}: {key} {r[key]}, recomputed {value}")
    summary = read_csv_rows(files["summary.csv"].decode())
    summary_json = json.loads(files["summary.json"])
    if len(summary) != len(n_values) * 3 or len(summary_json) != len(summary):
        _fail(f"{len(summary)} summary rows, expected {len(n_values) * 3}")
    for index, (row, jrow) in enumerate(zip(summary, summary_json)):
        n = int(row["n"])
        cell = [
            r for r in records
            if int(r["n"]) == n and _same(float(r["p"]), float(row["p"]))
        ]
        if len(cell) != trials:
            _fail(f"summary row {index}: {len(cell)} records match n={n}, p={row['p']}")
        fraction = sum(int(r["separation_ok"]) for r in cell) / trials
        expect = {
            "trials": trials,
            "fraction_separation": fraction,
            "fraction_small_ok": sum(int(r["small_ok"]) for r in cell) / trials,
            "fraction_delta_le_log30": sum(int(r["delta_le_log30"]) for r in cell) / trials,
            "fraction_expansion_gt_log10": sum(int(r["expansion_gt_log10"]) for r in cell) / trials,
            "fraction_expansion_ge_delta": sum(int(r["expansion_ge_delta"]) for r in cell) / trials,
            "mean_delta": sum(int(r["delta"]) for r in cell) / trials,
            "ci_halfwidth": 1.96 * math.sqrt(fraction * (1 - fraction) / trials),
        }
        for key, value in expect.items():
            if not (_same(float(row[key]), value) and _same(float(jrow[key]), value)):
                _fail(f"summary row {index}: {key} {row[key]} / {jrow[key]}, recomputed {value}")
