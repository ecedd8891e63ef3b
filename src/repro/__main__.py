"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``datasets`` — list the paper-matched datasets and their statistics;
* ``train``    — train one system on one dataset and print the run;
* ``compare``  — train several systems on one dataset side by side;
* ``partition`` — partition a dataset and print quality statistics;
* ``report``   — run instrumented, print the epoch report (stage
  timeline, bandwidth waterfall, compression frontier, fault counters,
  ...) and write the same sections as one self-contained HTML or
  markdown file next to the run's trace and metrics exports (Chrome
  trace, span/metrics JSONL, Prometheus text);
* ``chaos``    — train under an injected fault scenario and report how
  the tolerance machinery held up against the fault-free twin;
* ``bench``    — the out-of-core tier: stream a million-vertex graph to
  an mmap store, time partition / stats / subgraph / gather and record
  peak RSS; write ``BENCH_core.json`` (epoch time and wire bytes are
  measured by ``bench/run.py``).

Operational errors (bad config values, missing dataset paths, corrupt
checkpoints) exit non-zero with a one-line message instead of a
traceback; tracebacks are reserved for actual bugs.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from repro.analysis.convergence import convergence_target, summarize
from repro.analysis.reporting import format_table
from repro.baselines import run_system, system_names
from repro.core.checkpoint import CheckpointError
from repro.core.config import ECGraphConfig
from repro.faults.scenarios import scenario_names
from repro.graph.datasets import PAPER_STATS, dataset_names, load_dataset
from repro.obs import ObsConfig
from repro.partition import make_partitioner, partition_stats, partitioner_names


def _cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in dataset_names():
        stats = PAPER_STATS[name]
        graph = load_dataset(name, profile=args.profile)
        rows.append([
            name,
            f"{stats.num_vertices:,}",
            f"{graph.num_vertices:,}",
            f"{stats.avg_degree:.1f}",
            f"{graph.adjacency.average_degree:.1f}",
            stats.num_classes,
            graph.num_classes,
        ])
    print(format_table(
        ["dataset", "paper |V|", "sim |V|", "paper deg", "sim deg",
         "paper classes", "sim classes"],
        rows,
        title=f"Datasets (profile={args.profile})",
    ))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, profile=args.profile, seed=args.seed)
    print(graph.summary())
    run = run_system(
        args.system, graph,
        num_layers=args.layers, hidden_dim=args.hidden,
        num_workers=args.workers, num_epochs=args.epochs,
        patience=args.patience,
    )
    print(format_table(
        ["epochs", "best acc", "final acc", "epoch time", "traffic"],
        [[
            run.num_epochs,
            run.best_test_accuracy(),
            run.final_test_accuracy
            if run.final_test_accuracy is not None else "-",
            f"{run.avg_epoch_seconds() * 1e3:.2f}ms",
            f"{run.total_bytes() / 1e6:.1f}MB",
        ]],
        title=f"{args.system} on {graph.name}",
    ))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, profile=args.profile, seed=args.seed)
    print(graph.summary())
    runs = []
    for system in args.systems:
        print(f"training {system} ...", file=sys.stderr)
        runs.append(run_system(
            system, graph,
            num_layers=args.layers, hidden_dim=args.hidden,
            num_workers=args.workers, num_epochs=args.epochs,
        ))
    target = convergence_target(runs, slack=0.97)
    rows = []
    for run in runs:
        summary = summarize(run, target)
        rows.append([
            run.name,
            f"{summary.avg_epoch_seconds * 1e3:.2f}ms",
            summary.best_test_accuracy,
            f"{summary.total_bytes / 1e6:.1f}MB",
            summary.epochs_to_target or "-",
        ])
    print(format_table(
        ["system", "epoch time", "best acc", "traffic",
         f"epochs to {target:.3f}"],
        rows,
    ))
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, profile=args.profile, seed=args.seed)
    print(graph.summary())
    rows = []
    for method in args.methods:
        partitioner = make_partitioner(method, seed=args.seed)
        partition = partitioner.partition(graph.adjacency, args.workers)
        stats = partition_stats(graph.adjacency, partition)
        rows.append([
            method,
            f"{partition.seconds * 1e3:.1f}ms",
            f"{stats.edge_cut_ratio:.3f}",
            f"{stats.balance:.2f}",
            f"{stats.total_halo:,}",
            f"{stats.max_part_halo:,}",
            f"{stats.avg_remote_neighbors:.2f}",
        ])
    print(format_table(
        ["method", "time", "edge-cut", "balance", "halo", "max halo", "g_rmt"],
        rows,
        title=f"{args.workers}-way partitions of {graph.name}",
    ))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import (
        build_report, missing_stages, render_text, write_report,
    )

    if args.smoke:
        args.profile = "tiny"
        args.epochs = min(args.epochs, 3)
        args.workers = min(args.workers, 4)
    out = pathlib.Path(args.out)
    if out.exists() and not out.is_dir():
        print(f"--out {out} exists and is not a directory", file=sys.stderr)
        return 1
    graph = load_dataset(args.dataset, profile=args.profile, seed=args.seed)
    print(graph.summary())
    config = ECGraphConfig(seed=args.seed, obs=ObsConfig(enabled=True))
    run = run_system(
        args.system, graph,
        num_layers=args.layers, hidden_dim=args.hidden,
        num_workers=args.workers, num_epochs=args.epochs,
        config=config,
    )
    # Every artifact is written before the stage gate below, so a
    # failing run still leaves its report behind for debugging.
    data = build_report(run)
    paths = write_report(run, out, args.format, data=data)

    print(render_text(data))
    print(f"wrote {', '.join(str(path) for path in paths.values())}")
    absent = missing_stages(data)
    if absent:
        print("FAIL: engine stages missing from the profile: "
              + ", ".join(absent), file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.chaos import run_chaos

    if args.smoke:
        args.profile = "tiny"
        # 24 epochs gives post-fault trajectories time to reconverge on
        # the tiny profile (at 8 the ±1-test-vertex noise of its
        # 38-vertex split dominates the accuracy-gap gate).
        args.epochs = min(args.epochs, 24)
        args.workers = min(args.workers, 3)
    seeds = [args.seed + i for i in range(max(args.seeds, 1))]
    reports = []
    dataset_name = args.dataset
    for seed in seeds:
        graph = load_dataset(args.dataset, profile=args.profile, seed=seed)
        dataset_name = graph.name
        if seed == seeds[0]:
            print(graph.summary())
        print(f"scenario {args.scenario!r} seed {seed}: training "
              "fault-free baseline and faulty twin ...", file=sys.stderr)
        reports.append((seed, run_chaos(
            graph, args.scenario,
            system=args.system, num_layers=args.layers,
            hidden_dim=args.hidden, num_workers=args.workers,
            num_epochs=args.epochs, seed=seed,
            checkpoint_dir=args.checkpoint_dir,
            execution=args.execution,
        )))

    print(format_table(
        ["seed", "epochs", "survived", "baseline acc", "chaos acc",
         "gap", "slowdown"],
        [[
            seed,
            f"{report.completed_epochs}/{report.scheduled_epochs}",
            "yes" if report.survived else "NO",
            f"{report.baseline_accuracy:.3f}",
            f"{report.chaos_accuracy:.3f}",
            f"{report.accuracy_gap:+.3f}",
            f"{report.slowdown:.2f}x",
        ] for seed, report in reports],
        title=f"{args.system} under {args.scenario!r} on {dataset_name}"
              + (f" ({len(seeds)} seeds)" if len(seeds) > 1 else ""),
    ))

    def _total(name: str) -> float:
        return sum(getattr(r.counters, name) for _, r in reports)

    print("\nFaults injected: "
          f"{_total('drops'):.0f} drops, "
          f"{_total('corruptions'):.0f} corruptions, "
          f"{_total('delays'):.0f} delays, {_total('crashes'):.0f} crashes, "
          f"{_total('permanent_failures'):.0f} permanent losses")
    print("Tolerance: "
          f"{_total('retries'):.0f} retries "
          f"({_total('retry_bytes') / 1e3:.1f}KB resent), "
          f"{_total('ps_retries'):.0f} PS retries, "
          f"{_total('degraded'):.0f} degraded exchanges "
          f"(predicted={_total('degraded_predicted'):.0f}, "
          f"cached={_total('degraded_cached'):.0f}, "
          f"zero={_total('degraded_zero'):.0f}), "
          f"{_total('residual_compensations'):.0f} residual compensations, "
          f"{_total('params_rolled_back'):.0f} param rollbacks, "
          f"{_total('extra_seconds'):.2f}s stalled")
    if _total("permanent_failures") or _total("rejoins"):
        print("Membership: "
              f"{_total('adoptions'):.0f} adoptions, "
              f"{_total('rejoins'):.0f} rejoins, "
              f"{_total('watchdog_trips'):.0f} watchdog trips "
              f"({_total('watchdog_rollbacks'):.0f} rollbacks, "
              f"{_total('watchdog_escalations'):.0f} channel escalations)")

    if args.json_out:
        path = pathlib.Path(args.json_out)
        path.parent.mkdir(parents=True, exist_ok=True)
        if len(reports) == 1:
            seed, report = reports[0]
            payload = dict(report.as_dict(), system=args.system,
                           dataset=dataset_name, seed=seed)
        else:
            runs = [
                dict(report.as_dict(), seed=seed)
                for seed, report in reports
            ]
            payload = {
                "scenario": args.scenario,
                "system": args.system,
                "dataset": dataset_name,
                "seeds": seeds,
                "survived": all(r["survived"] for r in runs),
                "max_accuracy_gap": max(r["accuracy_gap"] for r in runs),
                "runs": runs,
            }
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {path}")

    failed = 0
    for seed, report in reports:
        label = f"seed {seed}: " if len(seeds) > 1 else ""
        if not report.survived:
            print(f"FAIL: {label}only {report.completed_epochs} of "
                  f"{report.scheduled_epochs} epochs completed",
                  file=sys.stderr)
            failed += 1
        elif report.accuracy_gap > args.max_accuracy_gap:
            print(f"FAIL: {label}accuracy gap {report.accuracy_gap:.3f} "
                  f"exceeds --max-accuracy-gap {args.max_accuracy_gap}",
                  file=sys.stderr)
            failed += 1
    return 1 if failed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import run_bench

    print(f"running the out-of-core bench tier "
          f"({'smoke' if args.smoke else 'full'}) ...", file=sys.stderr)
    report = run_bench(smoke=args.smoke)
    large = report["large"]
    print(format_table(
        ["step", "seconds"],
        [[step, f"{large[f'{step}_seconds']:.2f}s"]
         for step in ("generate", "partition", "stats",
                      "subgraph", "gather")],
        title=f"Out-of-core tier ({large['num_vertices']:,} vertices, "
              f"{large['num_edges']:,} edges, "
              f"{large['num_workers']} workers)",
    ))
    verdict = "OK" if large["rss_below_features"] else "ABOVE"
    print(f"peak RSS {large['peak_rss_bytes'] / 1e6:.0f} MB vs "
          f"{large['feature_bytes_on_disk'] / 1e6:.0f} MB of on-disk "
          f"features ({large['rss_to_feature_ratio']:.2f}x, {verdict})")
    if not large["rss_below_features"]:
        print("FLAG: peak RSS exceeded the on-disk feature matrix "
              "(expected in smoke runs, where the interpreter "
              "dominates; investigate on the full tier)")

    path = pathlib.Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EC-Graph reproduction: distributed GNN training "
                    "with error-compensated compression",
    )
    parser.add_argument("--profile", default="bench",
                        choices=["tiny", "bench", "full"],
                        help="dataset size profile")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list datasets").set_defaults(
        func=_cmd_datasets
    )

    train = sub.add_parser("train", help="train one system")
    train.add_argument("--system", default="ecgraph", choices=system_names())
    train.add_argument("--dataset", default="cora", choices=dataset_names())
    train.add_argument("--workers", type=int, default=6)
    train.add_argument("--layers", type=int, default=2)
    train.add_argument("--hidden", type=int, default=16)
    train.add_argument("--epochs", type=int, default=100)
    train.add_argument("--patience", type=int, default=None)
    train.set_defaults(func=_cmd_train)

    compare = sub.add_parser("compare", help="train several systems")
    compare.add_argument("--systems", nargs="+",
                         default=["ecgraph", "noncp", "distgnn"],
                         choices=system_names())
    compare.add_argument("--dataset", default="reddit",
                         choices=dataset_names())
    compare.add_argument("--workers", type=int, default=6)
    compare.add_argument("--layers", type=int, default=2)
    compare.add_argument("--hidden", type=int, default=16)
    compare.add_argument("--epochs", type=int, default=60)
    compare.set_defaults(func=_cmd_compare)

    part = sub.add_parser("partition", help="partition quality statistics")
    part.add_argument("--dataset", default="reddit", choices=dataset_names())
    part.add_argument("--workers", type=int, default=6)
    part.add_argument("--methods", nargs="+",
                      default=partitioner_names(),
                      choices=partitioner_names())
    part.set_defaults(func=_cmd_partition)

    rep = sub.add_parser(
        "report", help="instrumented run: epoch report + trace and metrics "
                       "exports"
    )
    rep.add_argument("--system", default="ecgraph", choices=system_names())
    rep.add_argument("--dataset", default="cora", choices=dataset_names())
    rep.add_argument("--workers", type=int, default=4)
    rep.add_argument("--layers", type=int, default=2)
    rep.add_argument("--hidden", type=int, default=16)
    rep.add_argument("--epochs", type=int, default=10)
    rep.add_argument("--out", default="reports",
                     help="output directory for epoch_report.html (or .md), "
                          "trace.json, spans.jsonl, telemetry.json, "
                          "metrics.prom and metrics.jsonl (default: "
                          "reports)")
    rep.add_argument("--format", default="html",
                     choices=["html", "markdown"],
                     help="artifact format (default: html)")
    rep.add_argument("--smoke", action="store_true",
                     help="tiny profile, <=3 epochs; fails when an engine "
                          "stage is missing from the profile (CI smoke)")
    rep.set_defaults(func=_cmd_report)

    chaos = sub.add_parser(
        "chaos", help="fault-injection run: survival + accuracy report"
    )
    chaos.add_argument("scenario", nargs="?", default="mixed",
                       choices=scenario_names(),
                       help="named fault scenario (default: mixed)")
    chaos.add_argument("--system", default="ecgraph", choices=system_names())
    chaos.add_argument("--dataset", default="cora", choices=dataset_names())
    chaos.add_argument("--workers", type=int, default=4)
    chaos.add_argument("--layers", type=int, default=2)
    chaos.add_argument("--hidden", type=int, default=16)
    chaos.add_argument("--epochs", type=int, default=30)
    chaos.add_argument("--checkpoint-dir", default=None,
                       help="directory for on-disk recovery checkpoints "
                            "(default: in-memory snapshots only)")
    chaos.add_argument("--max-accuracy-gap", type=float, default=0.02,
                       help="fail if faults cost more final test accuracy "
                            "than this (default: 0.02)")
    chaos.add_argument("--json-out", default=None,
                       help="also write the report as JSON to this path")
    chaos.add_argument("--seeds", type=int, default=1,
                       help="run the scenario across N consecutive seeds "
                            "starting at --seed and fail if any run fails "
                            "(default: 1)")
    chaos.add_argument("--execution", default="sync",
                       choices=["sync", "multiprocess"],
                       help="run workers inline or as real OS processes "
                            "(crash faults then kill actual processes)")
    chaos.add_argument("--smoke", action="store_true",
                       help="tiny profile, <=24 epochs, <=3 workers "
                            "(CI smoke test)")
    chaos.set_defaults(func=_cmd_chaos)

    bench = sub.add_parser(
        "bench", help="out-of-core tier: million-vertex mmap pipeline + "
                      "peak RSS"
    )
    bench.add_argument("--out", default="BENCH_core.json",
                       help="report path (default: BENCH_core.json)")
    bench.add_argument("--smoke", action="store_true",
                       help="scale-14 graph, seconds (CI smoke test)")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CheckpointError, FileNotFoundError, KeyError, ValueError) as exc:
        # Operational failures (bad config values, missing dataset paths,
        # corrupt checkpoints) get a one-line diagnosis, not a traceback.
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
