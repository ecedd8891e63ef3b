"""Stage timeline profiler: where each epoch's time actually goes.

The staged engine runs ``halo_plan -> forward -> backward -> optimize ->
eval`` once per iteration, but :class:`~repro.core.results.EpochResult`
only reports whole-epoch numbers. The :class:`StageProfiler` records,
per epoch and per stage:

* **wall time** — the duration of the stage's span;
* **modelled compute** — the per-worker compute-second deltas charged
  to the :class:`~repro.cluster.engine.ClusterRuntime` during the
  stage, scaled by each worker's speed (the BSP barrier waits for the
  slowest, so the argmax worker is the stage's *straggler*);
* **modelled communication** — the per-machine traffic deltas on the
  :class:`~repro.cluster.network.TrafficMeter` converted to busiest-link
  seconds under the cluster's :class:`~repro.cluster.network.
  NetworkModel` (the argmax machine *bounded the barrier*).

The profiler holds no clock. It is one of the collectors bundled by
:class:`~repro.obs.telemetry.Telemetry`, whose ``stage()`` context times
each stage once: the perf_counter pair that closes the stage's span is
the sample's wall time, and the ``epoch`` span is the timeline's
envelope. A disabled ``Telemetry`` has no profiler at all.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "StageSample",
    "EpochTimeline",
    "StageProfile",
    "StageProfiler",
    "ENGINE_STAGES",
]

# The staged engine's canonical pipeline order (TrainerCore.run_epoch).
ENGINE_STAGES = ("halo_plan", "forward", "backward", "optimize", "eval")


@dataclass(frozen=True)
class StageSample:
    """One stage of one epoch, fully attributed.

    Attributes:
        epoch: Iteration number.
        stage: Stage name (one of :data:`ENGINE_STAGES`).
        wall_seconds: Measured wall time of the stage.
        compute_seconds: Per-worker modelled compute charged during the
            stage (speed-scaled, so entries compare directly).
        comm_seconds: Modelled busiest-link communication time of the
            traffic this stage put on the wire.
        bytes_sent: Inter-machine bytes charged during the stage.
        messages: Inter-machine messages charged during the stage.
        bottleneck_worker: Worker whose compute bounded the stage's
            barrier (None when no compute was charged).
        bottleneck_machine: Machine whose link bounded the stage's
            communication (None when nothing hit the wire).
    """

    epoch: int
    stage: str
    wall_seconds: float
    compute_seconds: tuple[float, ...]
    comm_seconds: float
    bytes_sent: int
    messages: int
    bottleneck_worker: int | None
    bottleneck_machine: int | None

    @property
    def max_compute_seconds(self) -> float:
        """The barrier-bounding worker's modelled compute."""
        return max(self.compute_seconds, default=0.0)

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "stage": self.stage,
            "wall_seconds": self.wall_seconds,
            "compute_seconds": list(self.compute_seconds),
            "comm_seconds": self.comm_seconds,
            "bytes_sent": self.bytes_sent,
            "messages": self.messages,
            "bottleneck_worker": self.bottleneck_worker,
            "bottleneck_machine": self.bottleneck_machine,
        }


@dataclass(frozen=True)
class EpochTimeline:
    """One epoch's stage samples plus its envelope timings."""

    epoch: int
    wall_seconds: float
    modelled_seconds: float  # EpochBreakdown.total_seconds, 0 if unknown
    samples: tuple[StageSample, ...]

    @property
    def stage_wall_seconds(self) -> float:
        return sum(s.wall_seconds for s in self.samples)

    @property
    def coverage(self) -> float:
        """Fraction of the epoch wall time the stages account for."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.stage_wall_seconds / self.wall_seconds

    def critical_stage(self) -> str | None:
        """The stage that took the most wall time this epoch."""
        if not self.samples:
            return None
        return max(self.samples, key=lambda s: s.wall_seconds).stage

    def as_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "wall_seconds": self.wall_seconds,
            "modelled_seconds": self.modelled_seconds,
            "coverage": self.coverage,
            "critical_stage": self.critical_stage(),
            "stages": [s.as_dict() for s in self.samples],
        }


@dataclass(frozen=True)
class StageProfile:
    """Immutable end-of-run rendering of everything the profiler saw."""

    epochs: tuple[EpochTimeline, ...] = ()


    def stage_totals(self, keep=None) -> dict[str, dict]:
        """Per-stage aggregate over all profiled epochs (or only those
        whose epoch number ``keep`` accepts).

        ``stage -> {count, wall_seconds, comm_seconds, compute_seconds
        (barrier max per sample, summed), bytes_sent, messages}``, in
        pipeline order.
        """
        totals: dict[str, dict] = {}
        for timeline in self.epochs:
            if keep is not None and not keep(timeline.epoch):
                continue
            for s in timeline.samples:
                agg = totals.get(s.stage)
                if agg is None:
                    agg = totals[s.stage] = {
                        "count": 0, "wall_seconds": 0.0,
                        "compute_seconds": 0.0, "comm_seconds": 0.0,
                        "bytes_sent": 0, "messages": 0,
                    }
                agg["count"] += 1
                agg["wall_seconds"] += s.wall_seconds
                agg["compute_seconds"] += s.max_compute_seconds
                agg["comm_seconds"] += s.comm_seconds
                agg["bytes_sent"] += s.bytes_sent
                agg["messages"] += s.messages
        return totals

    def total_wall_seconds(self) -> float:
        """Sum of epoch envelope wall times."""
        return sum(t.wall_seconds for t in self.epochs)

    def coverage(self) -> float:
        """Stage wall sum over epoch envelope sum (1.0 = airtight)."""
        total = self.total_wall_seconds()
        if total <= 0:
            return 0.0
        covered = sum(t.stage_wall_seconds for t in self.epochs)
        return covered / total

    def straggler_counts(self) -> dict[int, int]:
        """``worker -> number of stage barriers it bounded``."""
        counts: dict[int, int] = {}
        for timeline in self.epochs:
            for s in timeline.samples:
                if s.bottleneck_worker is not None:
                    counts[s.bottleneck_worker] = (
                        counts.get(s.bottleneck_worker, 0) + 1
                    )
        return counts

    def as_dict(self) -> dict:
        return {
            "coverage": self.coverage(),
            "total_wall_seconds": self.total_wall_seconds(),
            "stage_totals": self.stage_totals(),
            "straggler_counts": {
                str(w): c for w, c in sorted(self.straggler_counts().items())
            },
            "epochs": [t.as_dict() for t in self.epochs],
        }


class StageProfiler:
    """Folds timed stages into per-epoch :class:`EpochTimeline` records.

    Driven by :class:`~repro.obs.telemetry.Telemetry`, which supplies
    every wall time::

        profiler.begin_epoch(t, runtime)      # Telemetry.epoch() opens
        before = profiler.snapshot()          # Telemetry.stage() opens
        profiler.record_stage("forward", wall, before)
        profiler.end_epoch(epoch_wall)        # the epoch span closes

    The runtime handle is only held between ``begin_epoch`` and
    ``end_epoch``; the profiler reads (never mutates) its per-worker
    compute accumulators and the traffic meter's per-machine epoch
    counters, so profiling cannot perturb the accounting it observes.
    """

    def __init__(self):
        self._samples: list[StageSample] = []
        self._timelines: list[EpochTimeline] = []
        self._runtime = None
        self._epoch: int | None = None
        self._last_before = None

    def begin_epoch(self, epoch: int, runtime) -> None:
        """Bind the runtime whose deltas attribute this epoch's stages."""
        self._runtime = runtime
        self._epoch = epoch
        self._samples = []
        self._last_before = runtime.last_epoch

    def snapshot(self):
        """Raw per-worker compute seconds and per-machine meter counters
        (None outside an epoch); a stage's deltas are taken against it."""
        runtime = self._runtime
        if runtime is None:
            return None
        return runtime.compute_snapshot(), tuple(
            runtime.meter.epoch_machine_bytes(machine)
            for machine in range(runtime.spec.num_machines)
        )

    def record_stage(self, name: str, wall_seconds: float, before) -> None:
        """One stage's sample: ``wall_seconds`` as timed by its span,
        compute and traffic as the deltas since ``before``."""
        runtime = self._runtime
        if runtime is None or before is None:
            return
        compute_before, machines_before = before
        compute_after, machines_after = self.snapshot()
        spec = runtime.spec
        compute = tuple(
            (after - prior) / spec.speed_of(worker)
            for worker, (after, prior) in enumerate(
                zip(compute_after, compute_before)
            )
        )
        bottleneck_worker = None
        if compute and max(compute) > 0.0:
            bottleneck_worker = max(range(len(compute)), key=compute.__getitem__)

        comm = 0.0
        bytes_sent = messages = 0
        bottleneck_machine = None
        for machine, (after, prior) in enumerate(
            zip(machines_after, machines_before)
        ):
            sent = after[0] - prior[0]
            received = after[1] - prior[1]
            msgs = after[2] - prior[2]
            bytes_sent += sent
            messages += msgs
            busy = spec.network.link_busy_seconds(sent, received, msgs)
            if busy > comm:
                comm = busy
                bottleneck_machine = machine
        # epoch_machine_bytes double-counts messages (sender + receiver
        # each see one); report wire messages, matching the meter.
        messages //= 2

        self._samples.append(StageSample(
            epoch=self._epoch,
            stage=name,
            wall_seconds=wall_seconds,
            compute_seconds=compute,
            comm_seconds=comm,
            bytes_sent=bytes_sent,
            messages=messages,
            bottleneck_worker=bottleneck_worker,
            bottleneck_machine=bottleneck_machine,
        ))

    def end_epoch(self, wall_seconds: float) -> None:
        """Freeze the epoch's timeline with its span's wall time and the
        modelled time of the epoch the runtime closed inside it (0.0 if
        the runtime closed none)."""
        runtime = self._runtime
        if runtime is None:
            return
        last = runtime.last_epoch
        closed = last is not None and last is not self._last_before
        self._timelines.append(EpochTimeline(
            epoch=self._epoch,
            wall_seconds=wall_seconds,
            modelled_seconds=last.total_seconds if closed else 0.0,
            samples=tuple(self._samples),
        ))
        self._samples = []
        self._epoch = None
        self._runtime = None
        self._last_before = None

    def profile(self) -> StageProfile:
        """Freeze everything recorded so far."""
        return StageProfile(epochs=tuple(self._timelines))

    def reset(self) -> None:
        """Drop every recorded timeline (between independent runs)."""
        self._samples = []
        self._timelines = []
        self._runtime = None
        self._epoch = None
        self._last_before = None


