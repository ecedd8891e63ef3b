#!/usr/bin/env python3
"""Noise study: is the benchmark steadier than its own bounds?

    python3 bench/noise.py [--runs 10] [--workload NAME]...

Runs every workload ``--runs`` times in each of two sets A and B on
unchanged code — set A and set B alternate, run ``i`` of both uses seed
``i + 1`` — exactly what a later change is judged by: per metric, the
spread of a set is the distance between the first and third quartile of
its values as a share of their median, and the gap is how much worse
B's median is than A's. Writes ``NOISE.md`` (the table) and
``baseline.json`` (medians and quartiles of set A, every value of both
sets) next to this file.

A bound in ``BENCHMARK.json`` must be at least the spread and at least
twice the gap; the aim is three times the spread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time

from metrics import DETERMINISTIC
from run import BENCH_DIR, DEFAULT_SECONDS, ROOT, WORKLOAD_NAMES, run_child


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worsening(a: list[float], b: list[float], better: str) -> float:
    """How much worse B's median is than A's, as a share of A's."""
    gap = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    return gap if better == "lower" else -gap


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", dest="workloads",
                        choices=WORKLOAD_NAMES, metavar="NAME")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 3:
        parser.error("--runs must be at least 3")

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"], m["unit"])
              for m in manifest["end_to_end"]}
    workloads = args.workloads or list(WORKLOAD_NAMES)
    values = {w: {"A": {n: [] for n in bounds}, "B": {n: [] for n in bounds}}
              for w in workloads}
    failed_ops = 0
    for i in range(args.runs):
        for workload in workloads:
            # Alternate which set goes first, so drift hits both alike.
            started = time.perf_counter()
            for label in ("AB", "BA")[i % 2]:
                result = run_child(workload, i + 1, 0, args.smoke, DEFAULT_SECONDS)
                failed_ops += result["failed"]
                for name in bounds:
                    values[workload][label][name].append(
                        result["metrics"][name]["value"]
                    )
            print(f"seed {i + 1}/{args.runs} {workload}: A and B took "
                  f"{time.perf_counter() - started:.0f} s", file=sys.stderr)

    lines = [
        "# Noise study", "",
        f"`python3 bench/noise.py --runs {args.runs}`"
        + (" --smoke" if args.smoke else "")
        + f" on {platform.node() or 'host'}: {os.cpu_count()} CPUs, "
        f"Python {platform.python_version()}. Two interleaved sets A and B "
        f"of {args.runs} runs each on unchanged code; run *i* of both sets "
        "uses seed *i*. spread = (Q3 - Q1) / median over a set's runs "
        "(`statistics.quantiles(values, n=4)`), so for the deterministic "
        "metrics it is the spread across seeds; gap = how much worse "
        "B's median is than A's. A bound must be >= spread and >= 2 x gap.",
        "",
    ]
    baseline = {"runs": args.runs, "smoke": args.smoke, "workloads": {}}
    ok = failed_ops == 0
    for workload in workloads:
        lines += [
            f"## {workload}", "",
            "| metric | unit | median A | spread A | spread B | gap B vs A "
            "| bound | bound / worst spread | verdict |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        baseline["workloads"][workload] = {}
        for name, (bound, better, unit) in bounds.items():
            a, b = values[workload]["A"][name], values[workload]["B"][name]
            worst = max(spread(a), spread(b))
            gap = worsening(a, b, better)
            good = 2 * max(gap, 0.0) <= bound
            if name != "setup_s":  # whose spread is not gated
                good = good and worst <= bound
            if name in DETERMINISTIC:  # same seed must give the same value
                good = good and a == b
            ok = ok and good
            headroom = f"{bound / worst:.1f}x" if worst else "inf"
            lines.append(
                f"| `{name}` | {unit} | {statistics.median(a):.6g} "
                f"| {spread(a):.2%} | {spread(b):.2%} | {gap:+.2%} "
                f"| {bound:.0%} | {headroom} | {'ok' if good else 'TOO NOISY'} |"
            )
            q1, q2, q3 = statistics.quantiles(a, n=4)
            baseline["workloads"][workload][name] = {
                "unit": unit, "median": q2, "q1": q1, "q3": q3, "A": a, "B": b,
            }
        lines.append("")
    lines.append(
        "Deterministic metrics (" + ", ".join(f"`{n}`" for n in DETERMINISTIC)
        + ") agreed exactly between A and B for every seed."
        if ok else "**At least one metric is noisier than its bound.**"
    )
    suffix = ".smoke" if args.smoke else ""
    (BENCH_DIR / f"NOISE{suffix}.md").write_text("\n".join(lines) + "\n")
    (BENCH_DIR / f"baseline{suffix}.json").write_text(json.dumps(baseline, indent=1) + "\n")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
