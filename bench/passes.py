"""The two passes over one workload, each in its own process:
``end_to_end`` (tracing off) and ``per_layer`` (traced)."""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

from checks import Ops, check_meter, check_same_run, check_setups, check_training
from measure import (
    Calibration, EpochSample, cycle_estimate, peak_rss_mb, run_epochs,
)
from metrics import PER_LAYER
from workloads import (
    TREND_PERIOD, Setup, Workload, make_trainer, set_up, tear_down,
)

__all__ = ["Measurement"]

MIN_CYCLES = 3  # 30 timed epochs: three whole trend cycles


class Measurement:
    """One workload, one seed, one process. Owns the current set-up (and
    with it the trainer's worker processes and the on-disk store) until
    ``close()``."""

    def __init__(
        self, workload: Workload, seed: int, smoke: bool, workdir: Path
    ) -> None:
        self.w = workload
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.period = TREND_PERIOD if workload.compressed else None
        self.timed_epochs = (1 if smoke else MIN_CYCLES) * TREND_PERIOD
        self.ops = Ops()
        self.setup: Setup | None = None

    def close(self) -> None:
        if self.setup is not None:
            tear_down(self.setup)
            self.setup = None

    def _set_up(self, rep: int) -> Setup:
        self.close()
        self.setup = set_up(self.w, self.seed, self.smoke, self.workdir, rep)
        self.ops.epochs([self.setup.first])
        return self.setup

    def _wall(self, samples: list[EpochSample]) -> float:
        return cycle_estimate(((s.t, s.wall) for s in samples), self.period)

    def _sync_reference(self, mine: list[EpochSample]) -> list[EpochSample]:
        """The same epochs under execution="sync" on the same graph and
        partition: multiprocess must match it bit for bit."""
        trainer = make_trainer(
            self.w, self.seed, self.setup.graph, self.setup.partition, "sync"
        )
        try:
            trainer.setup()
            reference = run_epochs(trainer, [s.t for s in mine])
        finally:
            trainer.close()
        self.ops.epochs(reference)
        check_same_run(self.ops, "multiprocess-equals-sync", mine, reference)
        return reference

    # ------------------------------------------------------------------
    def end_to_end(self, seconds: float) -> dict[str, float]:
        """Set-up repeated in-process, then the timed epochs t=1.. with
        tracing off: whole trend cycles until ``seconds`` have passed,
        never fewer than ``timed_epochs``. The deterministic metrics
        cover exactly the first ``timed_epochs``."""
        ops, n = self.ops, self.timed_epochs
        totals, assignments, first_losses = [], [], []
        for rep in range(2 if self.smoke else self.w.setup_reps):
            setup = self._set_up(rep)
            totals.append(setup.total_s)
            assignments.append(setup.partition.assignment.copy())
            first_losses.append(setup.first.loss)
        check_setups(ops, assignments, first_losses)

        trainer = setup.trainer
        meter = trainer.runtime.meter
        before = meter.snapshot()
        samples: list[EpochSample] = []
        started = time.perf_counter()
        while len(samples) < n or time.perf_counter() - started < seconds:
            t0 = len(samples) + 1
            samples += run_epochs(trainer, range(t0, t0 + TREND_PERIOD))
            if len(samples) == n:
                after = meter.snapshot()
                accuracy = trainer.evaluate_exact()["test"]
        ops.epochs(samples)
        fixed = samples[:n]
        check_training(ops, fixed)
        check_meter(ops, fixed, before, after)
        values = {
            "setup_s": statistics.median(totals),
            "epoch_wall_s": self._wall(samples),
            "epoch_modelled_s": cycle_estimate(
                ((s.t, s.result.breakdown.total_seconds) for s in samples),
                self.period,
            ),
            "epoch_comm_modelled_s": statistics.mean(
                s.result.breakdown.comm_seconds for s in fixed
            ),
            "wire_bytes_per_epoch": statistics.mean(s.wire_bytes for s in fixed),
            "final_loss": fixed[-1].loss,
            "final_test_acc": accuracy,
            # Read before the cross-check below allocates anything.
            "peak_rss_mb": peak_rss_mb(),
        }
        if self.w.execution == "multiprocess":
            self._sync_reference([setup.first] + fixed[:TREND_PERIOD])
        return values

    # ------------------------------------------------------------------
    def per_layer(self, trace_out: Path | None) -> dict[str, float]:
        """One cold set-up and one untraced cycle t=1..10; then a fresh
        trainer on the same graph and partition runs t=0 and the timed
        epochs with the wrappers installed."""
        # The untraced pass never loads the tracing code.
        import layers
        from tracer import Tracer, install, new_counters

        ops, w = self.ops, self.w
        setup = self._set_up(0)
        rss_after_setup = peak_rss_mb()
        untraced = run_epochs(setup.trainer, range(1, TREND_PERIOD + 1))
        ops.epochs(untraced)
        setup.trainer.close()
        children_cpu_before, _ = layers.children_rusage()

        calib = Calibration()
        calib_before = calib.seconds()
        tracer, counters = Tracer(), new_counters()
        trainer = make_trainer(w, self.seed, setup.graph, setup.partition)
        try:
            trainer.setup()
            install(tracer, trainer, counters)
            meter = trainer.runtime.meter
            warm = run_epochs(trainer, [0], tracer)
            counters.update(new_counters())  # tally the timed epochs only
            before = meter.snapshot()
            traced = run_epochs(trainer, range(1, self.timed_epochs + 1), tracer)
            after = meter.snapshot()
            tuner, workers = trainer.tuner, trainer.workers
        finally:
            trainer.close()
        calib_after = calib.seconds()
        ops.epochs(warm + traced)
        check_training(ops, traced)
        check_meter(ops, traced, before, after)
        check_same_run(
            ops, "traced-equals-untraced", untraced, traced[:TREND_PERIOD]
        )
        # Children are accounted once waited for: since the first reading
        # that is the traced trainer's four workers.
        children_cpu, children_rss = layers.children_rusage()

        values = layers.span_metrics(
            tracer, [0] + [s.t for s in traced], self.period
        )
        values.update(layers.proc_metrics(
            traced, (calib_before + calib_after) / 2, rss_after_setup
        ))
        values.update(layers.epoch_metrics(traced, self.period))
        values.update(layers.counter_metrics(counters, tuner, traced))
        values.update(layers.codec_metrics(workers, self.seed))
        values.update(layers.store_metrics(
            setup.graph, setup.partition, setup.store_dir
        ))
        values.update(layers.graph_metrics(setup.graph, setup.partition))
        values.update({
            "setup.cold_s": setup.total_s,
            "setup.first_epoch_s": setup.first.wall,
            "graph.ingest_s": setup.ingest_s,
            "partition.partition_s": setup.partition_s,
            "engine.trainer_setup_s": setup.trainer_setup_s,
            "obs.trace_overhead_ratio": statistics.median(
                s.wall for s in traced[:TREND_PERIOD]
            ) / statistics.median(s.wall for s in untraced),
        })
        if w.execution == "multiprocess":
            reference = self._sync_reference([setup.first] + untraced)
            values.update({
                "mp.spawn_s": setup.first.wall - reference[0].wall,
                "mp.children_cpu_s_per_epoch": (
                    children_cpu - children_cpu_before
                ) / (len(traced) + 1),
                "mp.worker_peak_rss_mb": children_rss,
                "mp.speedup_vs_sync": self._wall(reference[1:])
                / self._wall(untraced),
            })
        else:
            values.update(dict.fromkeys(
                (name for name, _, _ in PER_LAYER if name.startswith("mp.")), 0.0
            ))
        if trace_out is not None:
            trace_out.mkdir(parents=True, exist_ok=True)
            tracer.dump_jsonl(trace_out / f"{w.name}.spans.jsonl")
        if tracer.missing:
            print(f"trace.missing: {tracer.missing}", file=sys.stderr)
        return values
