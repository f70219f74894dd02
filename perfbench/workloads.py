"""The four workloads: seeded items, the timed calls, and their checks.

An item is what one timed call covers: one graph, one process or one
campaign. Items come in rounds; a run only stops between rounds. Item seeds
come from the derive_seed layout over consecutive trial indices, under a
master seed taken from --seed, and are never picked by outcome.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import shutil

import treepack.cli as cli
import treepack.graph as graph
import treepack.packing as packing
import treepack.randgraph as randgraph

import checks


def _blocks(partition):
    return [sorted(block) for block in partition.blocks]


class SparseThreshold:
    """G(n,p) on the th1 grid: sample_gnp, max_packing, packing_number."""

    name = "sparse-threshold"
    n = 256
    # Reference loads timed (before, after) each item to scale its time to
    # the reference speed (see run.py).
    references = (1, 1)

    def warm_up(self) -> None:
        self.check(None, self.run((32, 0.3, 7)))

    def rounds(self, seed: int):
        grid = checks.th1_grid(self.n)
        for trial in itertools.count():
            yield [
                (self.n, p, checks.trial_seed(seed, "bench-sparse", self.n, i, trial))
                for i, p in enumerate(grid)
            ]

    def run(self, item):
        n, p, seed = item
        g = randgraph.sample_gnp(n, p, seed)
        result = packing.max_packing(g)
        return item, g, result, packing.packing_number(g)

    def check(self, item, output) -> dict:
        (n, p, seed), g, result, number = output
        checks.check_sample(n, p, seed, g.edge_list)
        checks.check_sigma(
            n, g.edge_list, result.sigma, number,
            [tree.edges for tree in result.trees],
            None if result.certificate is None else _blocks(result.certificate),
        )
        return {}

    def finish(self) -> None:
        pass


class DenseCatlin(SparseThreshold):
    """G(n, min(1, 51 log n / n)): sample_gnp, packing_number, max_packing."""

    name = "dense-catlin"
    sizes = (128,)

    def warm_up(self) -> None:
        self.check(None, self.run((16, 1.0, 7)))

    def rounds(self, seed: int):
        for trial in itertools.count():
            yield [
                (n, min(1.0, 51 * math.log(n) / n),
                 checks.trial_seed(seed, "bench-dense", n, 0, trial))
                for n in self.sizes
            ]

    def run(self, item):
        n, p, seed = item
        g = randgraph.sample_gnp(n, p, seed)
        number = packing.packing_number(g)
        return item, g, packing.max_packing(g), number


class HittingProcess:
    """sample_process, then both hitting times for k = 1, 2, 3."""

    name = "hitting-process"
    sizes = (128,)
    references = (1, 1)
    ks = (1, 2, 3)

    def warm_up(self) -> None:
        self.check(None, self.run((16, 7)))

    def rounds(self, seed: int):
        for trial in itertools.count():
            yield [
                (n, checks.trial_seed(seed, "bench-hitting", n, 0, trial))
                for n in self.sizes
            ]

    def run(self, item):
        n, seed = item
        perm = randgraph.sample_process(n, seed)
        times = [
            (k, randgraph.hitting_time_min_degree(perm, k),
             randgraph.hitting_time_packing(perm, k))
            for k in self.ks
        ]
        return perm, times

    def check(self, item, output) -> dict:
        perm, times = output
        n, order = perm.n, perm.order
        checks.check_permutation(n, order)
        for k, tau_delta, tau_sigma in times:
            if tau_sigma is None or tau_delta is None:
                raise checks.CheckError(f"k={k}: no hitting time on {n} vertices")
            ok, trees = packing.has_k_spanning_trees(graph.build_graph(n, order[:tau_sigma]), k)
            if not ok:
                raise checks.CheckError(f"k={k}: no {k} trees at tau_sigma={tau_sigma}")
            before = graph.build_graph(n, order[:tau_sigma - 1])
            checks.check_hitting(
                n, order, k, tau_delta, tau_sigma,
                [tree.edges for tree in trees],
                _blocks(packing.extract_certificate(before, k)),
            )
        return {}

    def finish(self) -> None:
        pass


class StructureCampaign:
    """``treepack experiment structure`` through treepack.cli.main, pooled."""

    name = "structure-campaign"
    sizes = (2048, 4096, 8192)
    trials = 2
    outputs = ("records.csv", "summary.csv", "summary.json", "plot.svg")
    # None: the campaign runs in pool workers on every CPU, and no reference
    # timed in the parent followed its speed (scaling by one widened the
    # spread of items_per_s over ten runs from 6% to 18%).
    references = (0, 0)

    def __init__(self, scratch: str):
        self.out_dir = os.path.join(scratch, "campaign")
        self.first: dict[str, bytes] | None = None
        self.master = 0

    def _argv(self, sizes, trials, master, *extra):
        return [
            "experiment", "structure", "--n", *map(str, sizes),
            "--trials", str(trials), "--seed", str(master), "--out", self.out_dir, *extra,
        ]

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self._argv((64,), 1, 7, "--sequential"))
        if code != 0:
            raise checks.CheckError(f"warm-up campaign exited with {code}")
        shutil.rmtree(self.out_dir)

    def rounds(self, seed: int):
        self.master = checks.trial_seed(seed, "bench-structure", 0, 0, 0)
        while True:
            yield [self.master]

    def run(self, master):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self._argv(self.sizes, self.trials, master))

    def check(self, master, code) -> dict:
        if code != 0:
            raise checks.CheckError(f"campaign exited with {code}")
        files = {}
        for name in self.outputs:
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                files[name] = fh.read()
        if self.first is None:
            self.first = files
        elif files != self.first:
            changed = [name for name in self.outputs if files[name] != self.first[name]]
            raise checks.CheckError(f"rerun of the same campaign changed {changed}")
        with open(os.path.join(self.out_dir, "timings.csv")) as fh:
            busy = sum(float(row["elapsed"]) for row in checks.read_csv_rows(fh.read()))
        return {"experiments.trial_busy_s": busy}

    def finish(self) -> None:
        """The full record check, once: every rerun was byte-identical to it."""
        if self.first is not None:
            checks.check_structure_campaign(self.first, self.master, self.sizes, self.trials)


def make(name: str, scratch: str):
    if name == StructureCampaign.name:
        return StructureCampaign(scratch)
    for cls in (SparseThreshold, DenseCatlin, HittingProcess):
        if cls.name == name:
            return cls()
    raise ValueError(f"unknown workload {name!r}")


NAMES = (SparseThreshold.name, DenseCatlin.name, HittingProcess.name, StructureCampaign.name)
