"""Command-line interface.

Subcommands:
  pack <graphfile> [--json]      packing number, trees, certificate
  verify <graphfile> --k K       exhaustive partition check (n <= 12)
  gen --n N --p P --seed S       seeded G(n,p) sample in edge-list format
  gen --process --n N --seed S   seeded edge permutation, one pair per line
  stats <graphfile> --p P        structural measurements as one JSON record
  experiment KIND [...]          Monte Carlo campaign; writes records.csv,
                                 summary.csv, summary.json, plot.svg

Graph files use the text edge-list format: a header line "n m" followed by
m lines "u v" with 0-based endpoints.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .experiments import RUNNERS, build_config, load_config_file
from .graph import max_degree, min_degree, read_edge_list, write_edge_list
from .oracle import worst_partition
from .packing import max_packing
from .randgraph import sample_gnp, sample_process
from .structure import (
    catlin_check,
    check_small_separation,
    classify_small_large,
    degree_window_check,
)

def _partition_lines(partition) -> list[str]:
    return [" ".join(map(str, sorted(block))) for block in partition.blocks]


def _cmd_pack(args) -> int:
    graph = read_edge_list(args.graphfile)
    result = max_packing(graph)
    trees = [sorted(tree.edges) for tree in result.trees]
    certificate = (
        None
        if result.certificate is None
        else [sorted(block) for block in result.certificate.blocks]
    )
    if args.json:
        print(json.dumps(
            {
                "sigma": result.sigma,
                "trees": [[list(edge) for edge in tree] for tree in trees],
                "certificate": certificate,
            },
            indent=2,
        ))
        return 0
    print(f"sigma {result.sigma}")
    for index, tree in enumerate(trees, start=1):
        print(f"tree {index}: " + " ".join(f"{u}-{v}" for u, v in tree))
    if certificate is None:
        print("certificate: none")
    else:
        print("certificate:")
        for block in certificate:
            print(" ".join(map(str, block)))
    return 0


def _cmd_verify(args) -> int:
    graph = read_edge_list(args.graphfile)
    violator = worst_partition(graph, args.k)
    if violator is None:
        print("OK")
    else:
        print(f"violation at k={args.k}:")
        for line in _partition_lines(violator):
            print(line)
    return 0


def _cmd_gen(args) -> int:
    if args.process:
        if args.p is not None:
            raise ValueError("--process and --p are mutually exclusive")
        perm = sample_process(args.n, args.seed)
        lines = [f"{u} {v}" for u, v in perm.order]
        text = "\n".join(lines) + "\n" if lines else ""
        if args.out:
            with open(args.out, "w", newline="\n") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    if args.p is None:
        raise ValueError("gen needs either --p or --process")
    graph = sample_gnp(args.n, args.p, args.seed)
    if args.out:
        write_edge_list(graph, args.out)
    else:
        sys.stdout.write(f"{graph.n} {graph.m}\n")
        for u, v in graph.edge_list:
            sys.stdout.write(f"{u} {v}\n")
    return 0


def _cmd_stats(args) -> int:
    graph = read_edge_list(args.graphfile)
    window = degree_window_check(graph, args.p)
    record = {
        "n": graph.n,
        "m": graph.m,
        "delta": min_degree(graph),
        "max_degree": max_degree(graph),
        "small_count": len(classify_small_large(graph).small),
        "separation_ok": check_small_separation(graph).ok,
        "max_degree_ok": window.max_degree_ok,
        "min_degree_ok": window.min_degree_ok,
        "edges_ok": window.edges_ok,
        "catlin_ok": catlin_check(graph),
    }
    print(json.dumps(record, indent=2))
    return 0


def _cmd_experiment(args) -> int:
    file_values = load_config_file(args.config) if args.config else None
    cfg = build_config(
        args.kind,
        file_values=file_values,
        n_values=tuple(args.n) if args.n else None,
        p_rule=args.p,
        trials=args.trials,
        master_seed=args.seed,
        k_values=tuple(args.k) if args.k else None,
        out_dir=args.out,
        sequential=True if args.sequential else None,
    )
    if cfg.out_dir is None:
        cfg = replace(cfg, out_dir="results")
    rows = RUNNERS[cfg.experiment](cfg)
    for row in rows:
        print(row)
    print(f"wrote {cfg.out_dir}/records.csv, summary.csv, summary.json, plot.svg")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treepack",
        description="Spanning-tree packing with certificates and seeded experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pack = sub.add_parser("pack", help="packing number, trees, and certificate")
    pack.add_argument("graphfile")
    pack.add_argument("--json", action="store_true", help="emit a JSON document")
    pack.set_defaults(handler=_cmd_pack)

    verify = sub.add_parser("verify", help="exhaustive partition check (n <= 12)")
    verify.add_argument("graphfile")
    verify.add_argument("--k", type=int, required=True)
    verify.set_defaults(handler=_cmd_verify)

    gen = sub.add_parser("gen", help="seeded random graph or edge permutation")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--p", type=float)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--process", action="store_true")
    gen.add_argument("--out")
    gen.set_defaults(handler=_cmd_gen)

    stats = sub.add_parser("stats", help="structural measurements as JSON")
    stats.add_argument("graphfile")
    stats.add_argument("--p", type=float, required=True)
    stats.set_defaults(handler=_cmd_stats)

    experiment = sub.add_parser("experiment", help="run a Monte Carlo campaign")
    experiment.add_argument("kind", choices=sorted(RUNNERS))
    experiment.add_argument("--config")
    experiment.add_argument("--n", type=int, nargs="+")
    experiment.add_argument("--p", help="p rule: th1, th2, logn:<c>, or values")
    experiment.add_argument("--trials", type=int)
    experiment.add_argument("--seed", type=int)
    experiment.add_argument("--k", type=int, nargs="+")
    experiment.add_argument("--out")
    experiment.add_argument("--sequential", action="store_true")
    experiment.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
