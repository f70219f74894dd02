"""Monte Carlo campaigns over seeded random graphs.

Four campaign kinds run through one driver, _campaign, each as a small spec
(_Spec): its trial function, record type, summary row, headline fraction,
grid and labels. "equality" measures how often the packing number sigma
matches the minimum degree delta near the connectivity threshold; "dense"
measures how often sigma falls strictly below delta when
p = min(1, 51 log n / n); "hitting" compares the process hitting times for
minimum degree k and for k disjoint spanning trees; "structure" tracks the
degree-split and expansion facts the sparse regime relies on.

Every trial is a pure function of a seed derived from (master seed,
experiment id, n, cell index, trial index), so campaigns are reproducible
down to the byte in records.csv. Trials may run in worker processes; the
driver walks cells in a fixed order and preserves trial order within each
cell, so the concurrent and sequential paths emit identical rows. Wall-clock
timings go to a separate timings.csv, never into records.csv.

Summary rows are recomputed from the records, never accumulated on the
side, and carry a 95% normal-approximation halfwidth for the headline
fraction; records.csv holds every record field but elapsed. p rules:
"th1" is a three-point near-threshold grid between 1.1 log n / n and
(log n + log log n)/n (the latter is the larger of the two at any feasible
n); "th2" is min(1, 51 log n / n); "logn:<c>" is min(1, c log n / n);
anything else parses as comma-separated explicit values used for every n.
"""

from __future__ import annotations

import csv
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from typing import Callable, Sequence

from .graph import min_degree
from .packing import packing_number
from .randgraph import hitting_times, sample_gnp, sample_process
from .reporting import emit_csv, emit_json, emit_svg_plot
from .rng import check_seed, derive_seed
from .structure import check_small_separation, min_expansion_ratio, small_count_check

EXPERIMENT_KINDS = ("equality", "dense", "hitting", "structure")

EXPANSION_MAX_SIZE = 16
EXPANSION_BUDGET = 100


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    n_values: tuple[int, ...]
    p_rule: str = "th1"
    trials: int = 50
    master_seed: int = 0
    k_values: tuple[int, ...] = ()
    out_dir: str | None = None
    sequential: bool = False


@dataclass(frozen=True)
class TrialRecord:
    n: int
    p: float
    p_index: int
    trial: int
    seed: int
    edges: int
    delta: int
    sigma: int
    equality: bool
    strict: bool
    catlin: bool
    elapsed: float


@dataclass(frozen=True)
class HittingRecord:
    n: int
    k: int
    k_index: int
    trial: int
    seed: int
    tau_delta: int
    tau_sigma: int
    equality: bool
    elapsed: float


@dataclass(frozen=True)
class StructureRecord:
    n: int
    p: float
    p_index: int
    trial: int
    seed: int
    edges: int
    delta: int
    small_count: int
    small_ok: bool
    separation_ok: bool
    delta_le_log30: bool
    expansion_min: float
    expansion_gt_log10: bool
    expansion_ge_delta: bool
    elapsed: float


@dataclass(frozen=True)
class SummaryRow:
    n: int
    p: float
    trials: int
    fraction_equality: float
    fraction_strict: float
    fraction_catlin: float
    mean_delta: float
    mean_sigma: float
    ci_halfwidth: float


@dataclass(frozen=True)
class HittingSummaryRow:
    n: int
    k: int
    trials: int
    fraction_equality: float
    mean_tau_delta: float
    mean_tau_sigma: float
    ci_halfwidth: float


@dataclass(frozen=True)
class StructureSummaryRow:
    n: int
    p: float
    trials: int
    fraction_separation: float
    fraction_small_ok: float
    fraction_delta_le_log30: float
    fraction_expansion_gt_log10: float
    fraction_expansion_ge_delta: float
    mean_delta: float
    ci_halfwidth: float


def p_grid(rule: str, n: int) -> list[float]:
    """p values a rule yields for one n, all validated to lie in (0, 1]."""
    log_n = math.log(n)
    if rule == "th1":
        edge_a = 1.1 * log_n / n
        edge_b = (log_n + math.log(log_n)) / n
        lo, hi = min(edge_a, edge_b), max(edge_a, edge_b)
        values = [lo, (lo + hi) / 2, hi]
    elif rule == "th2":
        values = [min(1.0, 51 * log_n / n)]
    elif rule.startswith("logn:"):
        factor = float(rule.split(":", 1)[1])
        values = [min(1.0, factor * log_n / n)]
    else:
        values = [float(part) for part in rule.split(",")]
    for p in values:
        if not 0 < p <= 1:
            raise ValueError(f"p rule {rule!r} yields infeasible p={p} at n={n}")
    return values


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.experiment not in EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment {cfg.experiment!r}")
    if not cfg.n_values:
        raise ValueError("config needs at least one n")
    for n in cfg.n_values:
        if n < 4:
            raise ValueError(f"n must be at least 4, got {n}")
    if cfg.trials < 1:
        raise ValueError(f"trials must be positive, got {cfg.trials}")
    check_seed(cfg.master_seed)
    if cfg.experiment == "hitting":
        if not cfg.k_values:
            raise ValueError("hitting experiment needs a k list")
        for n in cfg.n_values:
            for k in cfg.k_values:
                if not 1 <= k <= n // 2:
                    raise ValueError(f"k={k} outside [1, {n // 2}] for n={n}")
    else:
        for n in cfg.n_values:
            p_grid(cfg.p_rule, n)


def _sigma_trial(args: tuple) -> TrialRecord:
    n, p, p_index, trial, seed = args
    start = time.perf_counter()
    graph = sample_gnp(n, p, seed)
    delta = min_degree(graph)
    sigma = packing_number(graph)
    elapsed = time.perf_counter() - start
    return TrialRecord(
        n=n, p=p, p_index=p_index, trial=trial, seed=seed,
        edges=graph.m, delta=delta, sigma=sigma,
        equality=sigma == delta, strict=sigma < delta,
        catlin=sigma == graph.m // (n - 1), elapsed=elapsed,
    )


def _hitting_trial(args: tuple) -> HittingRecord:
    n, k, k_index, trial, seed = args
    start = time.perf_counter()
    perm = sample_process(n, seed)
    tau_delta, tau_sigma = hitting_times(perm, k)
    # k <= n/2 guarantees both times exist.
    if tau_sigma is None:
        raise AssertionError(
            f"internal error: hitting time missing for n={n}, k={k}, seed={seed}"
        )
    elapsed = time.perf_counter() - start
    return HittingRecord(
        n=n, k=k, k_index=k_index, trial=trial, seed=seed,
        tau_delta=tau_delta, tau_sigma=tau_sigma,
        equality=tau_sigma == tau_delta, elapsed=elapsed,
    )


def _structure_trial(args: tuple) -> StructureRecord:
    n, p, p_index, trial, seed = args
    start = time.perf_counter()
    graph = sample_gnp(n, p, seed)
    delta = min_degree(graph)
    small_ok, small_count = small_count_check(graph)
    separation_ok = check_small_separation(graph).ok
    expansion_seed = derive_seed(seed, "expansion", n, p_index, trial)
    report = min_expansion_ratio(
        graph,
        max_size=min(EXPANSION_MAX_SIZE, n // 2),
        large_only=True,
        budget=EXPANSION_BUDGET,
        seed=expansion_seed,
    )
    log_n = math.log(n)
    elapsed = time.perf_counter() - start
    return StructureRecord(
        n=n, p=p, p_index=p_index, trial=trial, seed=seed,
        edges=graph.m, delta=delta,
        small_count=small_count, small_ok=small_ok,
        separation_ok=separation_ok,
        delta_le_log30=delta <= log_n / 30,
        expansion_min=report.min_ratio,
        expansion_gt_log10=report.min_ratio > log_n / 10,
        expansion_ge_delta=report.min_ratio >= delta,
        elapsed=elapsed,
    )


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _format_row(row, names) -> list[str]:
    return [_format_value(getattr(row, name)) for name in names]


class _Sink:
    """Incremental per-cell writer for records.csv and timings.csv."""

    def __init__(self, out_dir: str | None, field_names):
        self.field_names = field_names
        self._records = None
        self._timings = None
        if out_dir is None:
            return
        os.makedirs(out_dir, exist_ok=True)
        self._records = open(os.path.join(out_dir, "records.csv"), "w", newline="")
        self._rec_writer = csv.writer(self._records, lineterminator="\n")
        self._rec_writer.writerow(field_names)
        self._timings = open(os.path.join(out_dir, "timings.csv"), "w", newline="")
        self._time_writer = csv.writer(self._timings, lineterminator="\n")
        self._time_writer.writerow(["n", "cell", "trial", "elapsed"])

    def flush_cell(self, cell_label: str, records) -> None:
        if self._records is None:
            return
        for record in records:
            self._rec_writer.writerow(_format_row(record, self.field_names))
            self._time_writer.writerow(
                [record.n, cell_label, record.trial, f"{record.elapsed:.6f}"]
            )
        self._records.flush()
        self._timings.flush()

    def close(self) -> None:
        if self._records is not None:
            self._records.close()
            self._timings.close()


def _run_batch(worker, argset) -> list:
    return [worker(args) for args in argset]


def _execute_cells(cfg: ExperimentConfig, cells, worker):
    """Yield (cell_key, records) in cell order, trials in index order.

    The concurrent path submits every cell's trials up front, so workers
    never idle between small cells. If a trial raises or the consumer
    closes the generator, trials not yet started are cancelled.
    """
    if cfg.sequential:
        for key, argset in cells:
            yield key, [worker(args) for args in argset]
        return
    try:
        workers = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity, such as macOS
        workers = os.cpu_count() or 1
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        submitted = []
        for key, argset in cells:
            chunk = max(1, len(argset) // (4 * workers))
            batches = [
                pool.submit(_run_batch, worker, argset[i:i + chunk])
                for i in range(0, len(argset), chunk)
            ]
            submitted.append((key, batches))
        for key, batches in submitted:
            yield key, [record for batch in batches for record in batch.result()]
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _halfwidth(fraction: float, trials: int) -> float:
    return 1.96 * math.sqrt(fraction * (1 - fraction) / trials)


def _fraction(records, name: str) -> float:
    """Share of records whose boolean field ``name`` is set."""
    return sum(1 for r in records if getattr(r, name)) / len(records)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _sigma_summary(n, p, records, headline) -> SummaryRow:
    return SummaryRow(
        n=n, p=p, trials=len(records),
        fraction_equality=_fraction(records, "equality"),
        fraction_strict=_fraction(records, "strict"),
        fraction_catlin=_fraction(records, "catlin"),
        mean_delta=_mean(r.delta for r in records),
        mean_sigma=_mean(r.sigma for r in records),
        ci_halfwidth=_halfwidth(headline, len(records)),
    )


def _hitting_summary(n, k, records, headline) -> HittingSummaryRow:
    return HittingSummaryRow(
        n=n, k=k, trials=len(records),
        fraction_equality=headline,
        mean_tau_delta=_mean(r.tau_delta for r in records),
        mean_tau_sigma=_mean(r.tau_sigma for r in records),
        ci_halfwidth=_halfwidth(headline, len(records)),
    )


def _structure_summary(n, p, records, headline) -> StructureSummaryRow:
    return StructureSummaryRow(
        n=n, p=p, trials=len(records),
        fraction_separation=headline,
        fraction_small_ok=_fraction(records, "small_ok"),
        fraction_delta_le_log30=_fraction(records, "delta_le_log30"),
        fraction_expansion_gt_log10=_fraction(records, "expansion_gt_log10"),
        fraction_expansion_ge_delta=_fraction(records, "expansion_ge_delta"),
        mean_delta=_mean(r.delta for r in records),
        ci_halfwidth=_halfwidth(headline, len(records)),
    )


@dataclass(frozen=True)
class _Spec:
    """What one campaign kind hands to _campaign.

    A cell is one (n, grid value) pair; its trials get the arguments
    (n, value, index, trial, seed), where index is the value's position in
    the grid. The headline is the boolean record field whose per-cell
    fraction is plotted and carries the confidence halfwidth.
    """

    trial: Callable[[tuple], object]
    record: type
    summarize: Callable[[int, object, list, float], object]
    headline: str
    grid: Callable[[int], Sequence]
    cell_label: Callable[[int, object], str]
    series_label: Callable[[int, object, int], str]
    ylabel: str
    title: str


def _campaign(cfg: ExperimentConfig, spec: _Spec) -> list:
    """Run every cell, stream records.csv, then write the summaries and plot."""
    validate_config(cfg)
    cells = []
    for n in sorted(cfg.n_values):
        for index, value in enumerate(spec.grid(n)):
            argset = [
                (n, value, index, t,
                 derive_seed(cfg.master_seed, cfg.experiment, n, index, t))
                for t in range(cfg.trials)
            ]
            cells.append(((n, index, value), argset))
    sink = _Sink(cfg.out_dir, [f.name for f in fields(spec.record) if f.name != "elapsed"])
    rows = []
    points: dict[int, tuple[object, list[tuple[float, float]]]] = {}
    try:
        for (n, index, value), records in _execute_cells(cfg, cells, spec.trial):
            sink.flush_cell(spec.cell_label(index, value), records)
            headline = _fraction(records, spec.headline)
            rows.append(spec.summarize(n, value, records, headline))
            points.setdefault(index, (value, []))[1].append((n, headline))
    finally:
        sink.close()
    if cfg.out_dir is None:
        return rows
    names = [f.name for f in fields(rows[0])]
    emit_csv(
        os.path.join(cfg.out_dir, "summary.csv"),
        names,
        [_format_row(row, names) for row in rows],
    )
    emit_json(os.path.join(cfg.out_dir, "summary.json"), [asdict(row) for row in rows])
    emit_svg_plot(
        os.path.join(cfg.out_dir, "plot.svg"),
        title=spec.title,
        xlabel="n",
        ylabel=spec.ylabel,
        series=[
            (spec.series_label(index, value, len(points)), pts)
            for index, (value, pts) in sorted(points.items())
        ],
    )
    return rows


def _p_spec(cfg: ExperimentConfig, **kind) -> _Spec:
    """Spec over the p values of cfg.p_rule; one series per grid position."""
    rule = cfg.p_rule
    return _Spec(
        grid=lambda n: p_grid(rule, n),
        cell_label=lambda index, p: f"p{index}",
        series_label=lambda index, p, size: (
            f"p rule {rule}" if size == 1 else f"{rule}[{index}]"
        ),
        **kind,
    )


# Each runner builds its spec when called, so it names the trial function
# through the module global at that moment: a wrapper set on the module (as
# perfbench's tracer does) is then what the workers unpickle and run. A spec
# table built at import would keep the unwrapped function.
def run_equality_experiment(cfg: ExperimentConfig) -> list[SummaryRow]:
    """Per (n, p) cell: fraction of samples with sigma = delta."""
    return _campaign(cfg, _p_spec(
        cfg, trial=_sigma_trial, record=TrialRecord, summarize=_sigma_summary,
        headline="equality", ylabel="fraction sigma = delta", title="equality campaign",
    ))


def run_dense_experiment(cfg: ExperimentConfig) -> list[SummaryRow]:
    """Per (n, p) cell: fractions with sigma < delta and the Catlin identity."""
    return _campaign(cfg, _p_spec(
        cfg, trial=_sigma_trial, record=TrialRecord, summarize=_sigma_summary,
        headline="strict", ylabel="fraction sigma < delta", title="dense campaign",
    ))


def run_hitting_experiment(cfg: ExperimentConfig) -> list[HittingSummaryRow]:
    """Per (n, k) cell: fraction of processes with matching hitting times."""
    return _campaign(cfg, _Spec(
        trial=_hitting_trial, record=HittingRecord, summarize=_hitting_summary,
        headline="equality",
        grid=lambda n: cfg.k_values,
        cell_label=lambda index, k: f"k{k}",
        series_label=lambda index, k, size: f"k={k}",
        ylabel="fraction tau_sigma = tau_delta", title="hitting-time campaign",
    ))


def run_structure_experiment(cfg: ExperimentConfig) -> list[StructureSummaryRow]:
    """Per (n, p) cell: frequencies of the sparse-regime structural facts."""
    return _campaign(cfg, _p_spec(
        cfg, trial=_structure_trial, record=StructureRecord,
        summarize=_structure_summary, headline="separation_ok",
        ylabel="fraction separation holds", title="structure campaign",
    ))


RUNNERS = {
    "equality": run_equality_experiment,
    "dense": run_dense_experiment,
    "hitting": run_hitting_experiment,
    "structure": run_structure_experiment,
}


def load_config_file(path: str) -> dict[str, str]:
    """Flat key = value lines; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.replace(",", " ").split())


def build_config(
    experiment: str,
    file_values: dict[str, str] | None = None,
    n_values: tuple[int, ...] | None = None,
    p_rule: str | None = None,
    trials: int | None = None,
    master_seed: int | None = None,
    k_values: tuple[int, ...] | None = None,
    out_dir: str | None = None,
    sequential: bool | None = None,
) -> ExperimentConfig:
    """Merge config-file values with overriding CLI arguments."""
    raw = dict(file_values or {})
    known = {"experiment", "n", "p", "trials", "seed", "k", "out", "sequential"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if n_values is None and "n" in raw:
        n_values = _parse_int_list(raw["n"])
    if n_values is None:
        raise ValueError("no n values given (config key 'n' or --n)")
    if p_rule is None:
        p_rule = raw.get("p", "th2" if experiment == "dense" else "th1")
    if trials is None:
        trials = int(raw["trials"]) if "trials" in raw else 50
    if master_seed is None:
        master_seed = int(raw["seed"]) if "seed" in raw else 0
    if k_values is None and "k" in raw:
        k_values = _parse_int_list(raw["k"])
    if out_dir is None:
        out_dir = raw.get("out")
    if sequential is None:
        sequential = raw.get("sequential", "false").lower() in ("1", "true", "yes")
    cfg = ExperimentConfig(
        experiment=experiment,
        n_values=tuple(n_values),
        p_rule=p_rule,
        trials=trials,
        master_seed=master_seed,
        k_values=tuple(k_values or ()),
        out_dir=out_dir,
        sequential=sequential,
    )
    validate_config(cfg)
    return cfg
