"""Spans and counts around the calls into each treepack module.

The tracer replaces public functions as their caller module binds them (for
example ``treepack.randgraph.has_k_spanning_trees``) with wrappers that
record a span: name, start, end, parent span and item. Nothing inside the
program is edited. Spans stay in memory; worker processes of a campaign,
forked while a span is open, append theirs to a spool file after each
trial, and the parent merges the files once the run ends.

A layer's self time is its spans' durations minus the part of each span
that its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from collections import defaultdict

import treepack.cli
import treepack.experiments
import treepack.packing
import treepack.randgraph
import treepack.rng

MODULES = (
    "rng", "randgraph", "graph", "packing", "oracle",
    "structure", "experiments", "reporting", "cli",
)

# Per-item span totals: metric name -> span names summed into it.
SPAN_METRICS = {
    "randgraph.sample_gnp_ms": ("randgraph.sample_gnp",),
    "rng.u64_array_ms": ("rng.u64_array",),
    "rng.shuffle_ms": ("rng.shuffle",),
    "graph.build_graph_ms": ("graph.build_graph",),
    "randgraph.sample_process_ms": ("randgraph.sample_process",),
    "randgraph.prefix_graph_ms": ("randgraph.prefix_graph",),
    "randgraph.hitting_time_packing_ms": ("randgraph.hitting_time_packing",),
    "packing.has_k_spanning_trees_ms": ("packing.has_k_spanning_trees",),
    "packing.max_packing_ms": ("packing.max_packing",),
    "packing.packing_number_ms": ("packing.packing_number",),
    "oracle.nw_check_ms": ("oracle.nw_check",),
    "graph.connected_components_ms": ("graph.connected_components",),
    "structure.small_count_check_ms": ("structure.small_count_check",),
    "structure.check_small_separation_ms": ("structure.check_small_separation",),
    "structure.min_expansion_ratio_ms": ("structure.min_expansion_ratio",),
    "experiments.campaign_ms": ("experiments.campaign",),
    "reporting.emit_ms": ("reporting.emit_csv", "reporting.emit_json", "reporting.emit_svg_plot"),
}

# Per-item counts recorded by the wrappers or read from campaign outputs.
COUNT_METRICS = {
    "randgraph.pairs_drawn": "count",
    "randgraph.hitting_probes": "count",
    "packing.failed_probes": "count",
    "packing.edges_offered": "count",
    "packing.trees_placed": "count",
    "oracle.nw_check_calls": "count",
    "reporting.bytes_written": "bytes",
    "experiments.trial_busy_s": "s",
}


def _packing_work(graph, sigma):
    return (("packing.edges_offered", graph.m), ("packing.trees_placed", sigma * (graph.n - 1)))


def _bytes_written(args, kwargs, result):
    return (("reporting.bytes_written", os.path.getsize(args[0])),)


# (owner, attribute, span name, count hook, flush after the call in a worker)
_PATCHES = (
    (treepack.randgraph, "sample_gnp", "randgraph.sample_gnp", None, False),
    (treepack.experiments, "sample_gnp", "randgraph.sample_gnp", None, False),
    (treepack.randgraph, "u64_array", "rng.u64_array",
     lambda a, k, r: (("randgraph.pairs_drawn", a[2]),), False),
    (treepack.rng.SplitMix64, "shuffle", "rng.shuffle", None, False),
    (treepack.randgraph, "build_graph", "graph.build_graph", None, False),
    (treepack.randgraph, "sample_process", "randgraph.sample_process", None, False),
    (treepack.randgraph, "prefix_graph", "randgraph.prefix_graph", None, False),
    (treepack.randgraph, "hitting_time_min_degree", "randgraph.hitting_time_min_degree", None, False),
    (treepack.randgraph, "hitting_time_packing", "randgraph.hitting_time_packing", None, False),
    (treepack.randgraph, "has_k_spanning_trees", "packing.has_k_spanning_trees",
     lambda a, k, r: (("randgraph.hitting_probes", 1),) + _packing_work(a[0], a[1] if r[0] else 0),
     False),
    (treepack.packing, "max_packing", "packing.max_packing",
     lambda a, k, r: _packing_work(a[0], r.sigma), False),
    (treepack.packing, "packing_number", "packing.packing_number",
     lambda a, k, r: _packing_work(a[0], r), False),
    (treepack.packing, "nw_check", "oracle.nw_check",
     lambda a, k, r: (("oracle.nw_check_calls", 1),), False),
    (treepack.packing, "crossing_edges", "graph.crossing_edges",
     lambda a, k, r: (("packing.failed_probes", 1),), False),
    (treepack.packing, "connected_components", "graph.connected_components", None, False),
    (treepack.experiments, "small_count_check", "structure.small_count_check", None, False),
    (treepack.experiments, "check_small_separation", "structure.check_small_separation", None, False),
    (treepack.experiments, "min_expansion_ratio", "structure.min_expansion_ratio", None, False),
    (treepack.experiments, "_structure_trial", "experiments.trial", None, True),
    (treepack.experiments, "emit_csv", "reporting.emit_csv", _bytes_written, False),
    (treepack.experiments, "emit_json", "reporting.emit_json", _bytes_written, False),
    (treepack.experiments, "emit_svg_plot", "reporting.emit_svg_plot", _bytes_written, False),
    (treepack.experiments.RUNNERS, "structure", "experiments.campaign", None, False),
    (treepack.cli, "main", "cli.main", None, False),
)


class Tracer:
    """Collects spans and counts while installed; a no-op outside items."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []
        self.stack: list[str] = []
        self.item: int | None = None
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    # -- installing the wrappers ------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, count, flush in _PATCHES:
            if isinstance(owner, dict):
                original = owner[attr]
                owner[attr] = self._wrap(name, original, count, flush)
            else:
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, count, flush))
            self._saved.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, count, flush):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            if os.getpid() != self.pid:
                # First call in a forked worker: keep the inherited stack for
                # parent links, drop the copies of the parent's records.
                self.pid = os.getpid()
                self.spans, self.counts = [], []
            span_id = f"{self.pid}.{next(self._ids)}"
            parent = self.stack[-1] if self.stack else None
            self.stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.item))
            if count is not None:
                for key, value in count(args, kwargs, result):
                    self.counts.append((self.item, key, value))
            if flush and self.pid != self.main_pid:
                self._spool()
            return result

        return traced

    def _spool(self) -> None:
        path = os.path.join(self.spool_dir, f"worker-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps({"span": span}) + "\n")
            for count in self.counts:
                fh.write(json.dumps({"count": count}) + "\n")
        self.spans, self.counts = [], []

    # -- items --------------------------------------------------------------------

    def run_item(self, item: int, call):
        """Run ``call()`` as item ``item`` under a root span."""
        self.item = item
        span_id = f"{self.pid}.{next(self._ids)}"
        self.stack.append(span_id)
        start = time.perf_counter()
        try:
            return call()
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans.append((span_id, "bench.item", start, end, None, item))
            self.item = None

    def add_count(self, item: int, key: str, value) -> None:
        self.counts.append((item, key, value))

    def collect(self) -> tuple[list[tuple], list[tuple]]:
        """All spans and counts, the workers' spool files merged in."""
        spans, counts = list(self.spans), list(self.counts)
        for name in sorted(os.listdir(self.spool_dir)):
            with open(os.path.join(self.spool_dir, name)) as fh:
                for line in fh:
                    record = json.loads(line)
                    if "span" in record:
                        spans.append(tuple(record["span"]))
                    else:
                        counts.append(tuple(record["count"]))
        return spans, counts


def _covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans, counts, speed, items: int, workers: int) -> dict[str, tuple[float, str]]:
    """Per-item totals, self times per module and counts, with units.

    Times of item i are scaled by ``speed[i]`` to the reference speed.
    """
    children = defaultdict(list)
    for span_id, name, start, end, parent, item in spans:
        if parent is not None:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, parent, item in spans:
        scale = speed.get(item, 1.0)
        totals[name] += (end - start) * scale
        module = name.split(".", 1)[0]
        self_time[module] += (end - start - _covered(start, end, children[span_id])) * scale
    summed: dict[str, float] = defaultdict(float)
    for item, key, value in counts:
        summed[key] += value * speed.get(item, 1.0) if COUNT_METRICS.get(key) == "s" else value
    out: dict[str, tuple[float, str]] = {}
    for metric, names in SPAN_METRICS.items():
        out[metric] = (1000 * sum(totals[n] for n in names) / items, "ms")
    for module in MODULES:
        out[f"{module}.self_ms"] = (1000 * self_time[module] / items, "ms")
    for metric, unit in COUNT_METRICS.items():
        out[metric] = (summed[metric] / items, unit)
    # Base: the campaign's wall time times the pool size experiments uses.
    capacity = totals["experiments.campaign"] * workers
    out["experiments.pool_busy_ratio"] = (
        summed["experiments.trial_busy_s"] / capacity if capacity else 0.0, "ratio"
    )
    return out
