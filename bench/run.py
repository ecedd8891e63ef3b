#!/usr/bin/env python3
"""The EC-Graph end-to-end benchmark.

    python3 bench/run.py [--workload NAME]... [--seed N] [--smoke] [--out FILE]

runs every named workload (default: all four) in its own fresh
subprocess, strictly one after another: first untraced for the
end-to-end metrics, then traced for the per-layer ones, and prints both
tables. One measuring process is

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

whose last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

# One BLAS thread, fixed before numpy loads: a 2-CPU shared host gives
# BLAS a different number of cores from run to run otherwise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
# Spelled out (workloads.py has the definitions) so that the orchestrator
# and noise.py can name them without importing numpy or the program.
WORKLOAD_NAMES = (
    "rmat16-ec-sync", "rmat16-raw-sync", "rmat16-ec-mp", "sbm16-ec-metis-mmap",
)
DEFAULT_SECONDS = 10


def _measure(args: argparse.Namespace, workdir: Path) -> dict:
    """One workload in this process; returns the result object."""
    # Imported here: they need ``src`` on the path, and the orchestrating
    # process must not load numpy or the program at all.
    from metrics import END_TO_END, PER_LAYER, as_metrics
    from passes import Measurement
    from workloads import WORKLOADS

    run = Measurement(WORKLOADS[args.workload], args.seed, args.smoke, workdir)
    try:
        if args.trace:
            trace_out = Path(args.trace_out) if args.trace_out else None
            metrics = as_metrics(PER_LAYER, run.per_layer(trace_out))
        else:
            seconds = 0 if args.smoke else args.seconds
            metrics = as_metrics(END_TO_END, run.end_to_end(seconds))
    finally:
        run.close()
    return {
        "correct": run.ops.failed == 0,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": metrics,
    }


def _print_result(metrics: dict, attempted: int, failed: int) -> None:
    for name, metric in metrics.items():
        print(f"{name:42s} {metric['value']:>18.6g} {metric['unit']}")
    print(f"{'ops_attempted':42s} {attempted:>18d} count")
    print(f"{'ops_failed':42s} {failed:>18d} count")


def _stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``trainer.close()`` joins the worker processes; what is left on a
    clean run is multiprocessing's resource tracker, which the first
    ``SharedMemory`` starts and which otherwise exits a moment *after*
    its parent. Closing its pipe makes it finish; ``_stop`` waits for it.
    """
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None:
        for child in multiprocessing.active_children():  # none unless a run failed
            child.kill()
            child.join()
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is not None:
        tracker_module._resource_tracker._stop()
    while True:  # anything else that is still a child of this process
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            break


def _terminated(signum: int, frame: object) -> None:
    sys.exit(128 + signum)  # through the finally blocks and atexit


def run_one(args: argparse.Namespace) -> int:
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # Registered before the program (and multiprocessing) is imported, so
    # it runs after every exit hook of theirs: a SharedStore closing late
    # would otherwise start a new tracker behind our back.
    atexit.register(_stop_children)
    signal.signal(signal.SIGTERM, _terminated)
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    # Spill files and anything tempfile makes stay inside the checkout.
    os.environ["TMPDIR"] = str(workdir)
    try:
        result = _measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # unless another run is using it
        except OSError:
            pass
    _print_result(result["metrics"], result["attempted"], result["failed"])
    print(json.dumps(result))
    return 0


def run_child(workload: str, seed: int, trace: int, smoke: bool,
              seconds: int = DEFAULT_SECONDS, trace_out: str | None = None) -> dict:
    """One measuring subprocess; returns its result object."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        command.append("--smoke")
    if trace_out:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def orchestrate(args: argparse.Namespace) -> int:
    report = {"seed": args.seed, "smoke": args.smoke, "workloads": {}}
    failed = 0
    for workload in args.workloads or WORKLOAD_NAMES:
        untraced = run_child(workload, args.seed, 0, args.smoke, args.seconds)
        traced = run_child(
            workload, args.seed, 1, args.smoke, args.seconds, args.trace_out
        )
        attempted = untraced["attempted"] + traced["attempted"]
        failed_ops = untraced["failed"] + traced["failed"]
        print(f"== {workload}")
        _print_result(
            {**untraced["metrics"], **traced["metrics"]}, attempted, failed_ops
        )
        failed += failed_ops
        report["workloads"][workload] = {
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "ops_attempted": attempted,
            "ops_failed": failed_ops,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", dest="workloads",
                        choices=WORKLOAD_NAMES, metavar="NAME")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                        help="keep timing whole cycles until this much has "
                             "elapsed (never fewer than three cycles)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="measure one workload in this process: 0 prints "
                             "the end-to-end metrics, 1 the per-layer ones")
    parser.add_argument("--smoke", action="store_true",
                        help="scale 10 / 2048 vertices, one 10-epoch cycle")
    parser.add_argument("--out", help="write the full report as JSON")
    parser.add_argument("--trace-out", metavar="DIR",
                        help="dump the traced pass's raw spans as JSONL")
    args = parser.parse_args(argv)
    if args.trace is None:
        return orchestrate(args)
    if not args.workloads or len(args.workloads) != 1:
        parser.error("--trace needs exactly one --workload")
    args.workload = args.workloads[0]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
