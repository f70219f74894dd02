"""treepack benchmark: one workload, one run, one JSON line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree: treepack is imported from ./src. Items
run in whole rounds until the timed calls add up to S seconds; every output
is checked outside the timed region (see checks.py). Times are scaled to a
reference speed (see _speed), timed where each workload says.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced pass over the items
of an untraced pass, and the tracing overhead between the two. Spans go to
perfbench/out/trace-<workload>-seed<N>.jsonl. A summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CheckError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 9
# A run stops taking rounds once its checks have stretched it this long.
WALL_LIMIT_S = 120.0
# The reference load's time at the speed all figures are reported at.
REFERENCE_S = 0.003


def reference_work(n: int = 1500) -> int:
    """A fixed pure-Python load of the kind treepack runs: sets, lists, a BFS."""
    adjacency = [set() for _ in range(n)]
    for i in range(n):
        for d in (1, 7, 31, 97):
            j = (i * d + d) % n
            if j != i:
                adjacency[i].add(j)
                adjacency[j].add(i)
    seen = {0}
    order = [0]
    for x in order:
        for y in adjacency[x]:
            if y not in seen:
                seen.add(y)
                order.append(y)
    return len(order)


def reference_time() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def _speed(reference_times: list[float]) -> float:
    """Factor from measured seconds to seconds at the reference speed.

    The machine is shared and its speed swings by up to 1.8x over seconds to
    minutes; the reference load timed next to a call slows with it, so
    scaling by it keeps that swing out of the figures.
    """
    return REFERENCE_S / statistics.median(reference_times)


def _setup_time(workload: str, scratch: Path) -> float:
    """Seconds from starting a fresh probe interpreter to its "ready" line,
    at the reference speed."""
    before = reference_time()
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(scratch)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed with exit code {code}")
    return elapsed * _speed([before, reference_time()])


class Pass:
    """Timed items of one pass, the rounds they came in, and what went wrong.

    ``times`` are at the reference speed, ``raw`` as measured, and
    ``speed[i]`` is the factor between the two for item number i.
    """

    def __init__(self):
        self.times: list[float] = []
        self.raw: list[float] = []
        self.speed: dict[int, float] = {}
        self.rounds: list[list] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []


def run_pass(workload, rounds, seconds: float, tracer=None) -> Pass:
    """Run whole rounds until the timed calls add up to ``seconds``."""
    result = Pass()
    wall_start = time.perf_counter()
    for batch in rounds:
        for item in batch:
            result.attempted += 1
            index = result.attempted
            runs_before, runs_after = workload.references
            before = [reference_time() for _ in range(runs_before)]
            start = time.perf_counter()
            try:
                if tracer is None:
                    output = workload.run(item)
                else:
                    output = tracer.run_item(index, lambda: workload.run(item))
            except Exception as exc:  # a failed operation is counted, not fatal
                result.failed += 1
                result.errors.append(f"item {index} failed: {exc!r}")
                continue
            raw = time.perf_counter() - start
            references = before + [reference_time() for _ in range(runs_after)]
            speed = _speed(references) if references else 1.0
            result.raw.append(raw)
            result.times.append(raw * speed)
            result.speed[index] = speed
            try:
                observed = workload.check(item, output)
            except CheckError as exc:
                result.errors.append(f"item {index}: {exc}")
                continue
            if tracer is not None:
                for key, value in observed.items():
                    tracer.add_count(index, key, value)
        result.rounds.append(batch)
        if sum(result.raw) >= seconds or time.perf_counter() - wall_start > WALL_LIMIT_S:
            break
    return result


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def _tail(times: list[float]) -> tuple[float, float] | None:
    """Highest of p50..p99.9 with at least ten items beyond it, nearest rank."""
    count = len(times)
    if count < 40:
        return None
    ordered = sorted(times)
    best = None
    for q in (50, 75, 90, 95, 99, 99.9):
        if count * (100 - q) / 100 >= 10:
            best = (q, ordered[math.ceil(q / 100 * count) - 1])
    return best


def end_to_end(workload, seed: int, seconds: float, setups: list[float]):
    measured = run_pass(workload, workload.rounds(seed), seconds)
    rss = _peak_rss_mb()
    times = measured.times
    metrics = {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_p50_ms": (1000 * statistics.median(times), "ms"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    raw = measured.raw
    notes = [
        f"as measured: items_per_s = {len(raw) / sum(raw):.6g} 1/s, "
        f"item_p50_ms = {1000 * statistics.median(raw):.6g} ms; "
        + (f"the reference load took {1 / statistics.median(measured.speed.values()):.3f} "
           f"x its {1000 * REFERENCE_S:g} ms" if any(workload.references) else "not scaled"),
    ]
    tail = _tail(times)
    if tail is None:
        notes.append("item_tail_ms: fewer than 40 items, not reported")
    else:
        notes.append(
            f"item_tail_ms: p{tail[0]:g} = {1000 * tail[1]:.6g} ms over {len(times)} items"
        )
    return measured, metrics, notes


def per_layer(workload, seed: int, seconds: float, scratch: Path):
    import tracing

    plain = run_pass(workload, workload.rounds(seed), seconds / 2)
    spool = scratch / "spool"
    spool.mkdir()
    tracer = tracing.Tracer(str(spool))
    tracer.install()
    try:
        traced = run_pass(workload, plain.rounds, math.inf, tracer)
    finally:
        tracer.uninstall()
    spans, counts = tracer.collect()
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{seed}.jsonl"
    with open(trace_path, "w") as fh:
        for span_id, name, start, end, parent, item in spans:
            fh.write(json.dumps({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "item": item,
            }) + "\n")
    metrics = tracing.layer_metrics(
        spans, counts, traced.speed, len(traced.times), os.cpu_count() or 1
    )
    matched = sum(plain.times[:len(traced.times)])
    overhead = 100 * (sum(traced.times) / matched - 1)
    metrics["trace.overhead_pct"] = (overhead, "%")
    merged = Pass()
    for part in (plain, traced):
        merged.times += part.times
        merged.attempted += part.attempted
        merged.failed += part.failed
        merged.errors += part.errors
    notes = [
        f"traced {len(traced.times)} items against the same items untraced; "
        f"{len(spans)} spans in {trace_path.relative_to(ROOT)}"
    ]
    return merged, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "treepack" / "__init__.py").is_file():
        print(f"error: no treepack sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        workload = workloads.make(args.workload, str(scratch))
        if args.trace:
            workload.warm_up()
            measured, metrics, notes = per_layer(workload, args.seed, args.seconds, scratch)
        else:
            setups = [
                _setup_time(args.workload, scratch / f"probe-{i}") for i in range(SETUP_PROBES)
            ]
            workload.warm_up()
            measured, metrics, notes = end_to_end(workload, args.seed, args.seconds, setups)
        try:
            workload.finish()
        except Exception as exc:  # reported as an incorrect run, not a crash
            measured.errors.append(f"final check: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}", file=sys.stderr)
    for line in notes + measured.errors[:20]:
        print(f"{args.workload} {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not measured.errors,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
