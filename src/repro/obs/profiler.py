"""Stage timeline profiler: where each epoch's time actually goes.

The staged engine runs ``halo_plan -> forward -> backward -> optimize ->
eval`` once per iteration, but :class:`~repro.core.results.EpochResult`
only reports whole-epoch numbers. The :class:`StageProfiler` records,
per epoch and per stage:

* **wall time** — ``perf_counter`` around the stage;
* **modelled compute** — the per-worker compute-second deltas charged
  to the :class:`~repro.cluster.engine.ClusterRuntime` during the
  stage, scaled by each worker's speed (the BSP barrier waits for the
  slowest, so the argmax worker is the stage's *straggler*);
* **modelled communication** — the per-machine traffic deltas on the
  :class:`~repro.cluster.network.TrafficMeter` converted to busiest-link
  seconds under the cluster's :class:`~repro.cluster.network.
  NetworkModel` (the argmax machine *bounded the barrier*).

The profiler is one of the collectors bundled by
:class:`~repro.obs.telemetry.Telemetry` (``ObsConfig.profile``); the
disabled twin :class:`NullStageProfiler` makes every call a no-op so
un-instrumented runs stay bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = [
    "StageSample",
    "EpochTimeline",
    "StageProfile",
    "StageProfiler",
    "NullStageProfiler",
    "NULL_PROFILER",
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
    # worker -> OS pid, populated only under execution="multiprocess"
    # (the process executor publishes pids at spawn and respawn), so a
    # profile can attribute stages to the real processes that ran them.
    worker_pids: tuple[tuple[int, int], ...] = ()

    def stage_names(self) -> list[str]:
        """Stages observed, in first-seen (pipeline) order."""
        seen: list[str] = []
        for timeline in self.epochs:
            for sample in timeline.samples:
                if sample.stage not in seen:
                    seen.append(sample.stage)
        return seen

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
        out = {
            "coverage": self.coverage(),
            "total_wall_seconds": self.total_wall_seconds(),
            "stage_totals": self.stage_totals(),
            "straggler_counts": {
                str(w): c for w, c in sorted(self.straggler_counts().items())
            },
            "epochs": [t.as_dict() for t in self.epochs],
        }
        if self.worker_pids:
            out["worker_pids"] = {
                str(w): pid for w, pid in self.worker_pids
            }
        return out


class _ActiveStage:
    """Context manager capturing one stage's runtime deltas."""

    __slots__ = ("_profiler", "_name", "_start", "_compute", "_machines")

    def __init__(self, profiler: "StageProfiler", name: str):
        self._profiler = profiler
        self._name = name

    def __enter__(self):
        prof = self._profiler
        self._compute = prof._compute_snapshot()
        self._machines = prof._machine_snapshot()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        wall = time.perf_counter() - self._start
        self._profiler._finish_stage(
            self._name, wall, self._compute, self._machines
        )
        return False


class StageProfiler:
    """Collects :class:`StageSample` records around the engine stages.

    Driven by :class:`~repro.engine.core.TrainerCore`::

        profiler.begin_epoch(t, runtime)
        with profiler.stage("forward"):
            ...
        profiler.end_epoch(breakdown)

    The runtime handle is only held between ``begin_epoch`` and
    ``end_epoch``; the profiler reads (never mutates) its per-worker
    compute accumulators and the traffic meter's per-machine epoch
    counters, so profiling cannot perturb the accounting it observes.
    """

    enabled = True

    def __init__(self):
        self._samples: list[StageSample] = []
        self._timelines: list[EpochTimeline] = []
        self._runtime = None
        self._epoch: int | None = None
        self._epoch_start = 0.0
        self._speeds: tuple[float, ...] = ()
        self._worker_pids: dict[int, int] = {}

    def set_worker_pids(self, pids: dict[int, int]) -> None:
        """Record worker -> OS pid (multiprocess execution); the latest
        mapping wins, so respawns after crashes update their slot."""
        self._worker_pids.update(pids)

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------
    def begin_epoch(self, epoch: int, runtime) -> None:
        """Open one epoch envelope; ``runtime`` supplies the oracles."""
        self._runtime = runtime
        self._epoch = epoch
        self._samples = []
        spec = runtime.spec
        self._speeds = tuple(
            spec.speed_of(w) for w in range(spec.num_workers)
        )
        self._epoch_start = time.perf_counter()

    def stage(self, name: str) -> _ActiveStage:
        """Open one stage; use as ``with profiler.stage("forward"):``."""
        return _ActiveStage(self, name)

    def end_epoch(self, breakdown=None) -> None:
        """Close the epoch envelope and freeze its timeline."""
        if self._epoch is None:
            return
        wall = time.perf_counter() - self._epoch_start
        modelled = float(breakdown.total_seconds) if breakdown else 0.0
        self._timelines.append(EpochTimeline(
            epoch=self._epoch,
            wall_seconds=wall,
            modelled_seconds=modelled,
            samples=tuple(self._samples),
        ))
        self._samples = []
        self._epoch = None
        self._runtime = None

    # ------------------------------------------------------------------
    # Runtime snapshots
    # ------------------------------------------------------------------
    def _compute_snapshot(self):
        """Raw per-worker compute seconds (speed scaling happens once,
        on the delta, in :meth:`_finish_stage`)."""
        runtime = self._runtime
        if runtime is None:
            return None
        return runtime.compute_snapshot()

    def _machine_snapshot(self) -> tuple[tuple[int, int, int], ...]:
        runtime = self._runtime
        if runtime is None:
            return ()
        return tuple(
            runtime.meter.epoch_machine_bytes(machine)
            for machine in range(runtime.spec.num_machines)
        )

    def _finish_stage(
        self,
        name: str,
        wall: float,
        compute_before,
        machines_before: tuple[tuple[int, int, int], ...],
    ) -> None:
        if self._epoch is None:
            return
        compute_after = self._compute_snapshot()
        machines_after = self._machine_snapshot()

        if compute_after is None or compute_before is None:
            compute: tuple[float, ...] = ()
        else:
            compute = tuple(
                (after - before) / speed
                for after, before, speed in zip(
                    compute_after, compute_before, self._speeds
                )
            )
        bottleneck_worker = None
        if compute and max(compute) > 0.0:
            bottleneck_worker = max(range(len(compute)), key=compute.__getitem__)

        network = self._runtime.spec.network if self._runtime else None
        comm = 0.0
        bytes_sent = messages = 0
        bottleneck_machine = None
        for machine, (after, before) in enumerate(
            zip(machines_after, machines_before)
        ):
            sent = after[0] - before[0]
            received = after[1] - before[1]
            msgs = after[2] - before[2]
            bytes_sent += sent
            messages += msgs
            if network is None:
                continue
            busy = network.link_busy_seconds(sent, received, msgs)
            if busy > comm:
                comm = busy
                bottleneck_machine = machine
        # epoch_machine_bytes double-counts messages (sender + receiver
        # each see one); report wire messages, matching the meter.
        messages //= 2

        self._samples.append(StageSample(
            epoch=self._epoch,
            stage=name,
            wall_seconds=wall,
            compute_seconds=compute,
            comm_seconds=comm,
            bytes_sent=bytes_sent,
            messages=messages,
            bottleneck_worker=bottleneck_worker,
            bottleneck_machine=bottleneck_machine,
        ))

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def profile(self) -> StageProfile:
        """Freeze everything recorded so far."""
        return StageProfile(
            epochs=tuple(self._timelines),
            worker_pids=tuple(sorted(self._worker_pids.items())),
        )

    def reset(self) -> None:
        """Drop every recorded timeline (between independent runs)."""
        self._samples = []
        self._timelines = []
        self._runtime = None
        self._epoch = None
        self._worker_pids = {}


class _NullStage:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_STAGE = _NullStage()


class NullStageProfiler:
    """Disabled twin: every call is a no-op on shared objects."""

    enabled = False

    def begin_epoch(self, epoch: int, runtime) -> None:
        pass

    def stage(self, name: str) -> _NullStage:
        return _NULL_STAGE

    def end_epoch(self, breakdown=None) -> None:
        pass

    def set_worker_pids(self, pids: dict[int, int]) -> None:
        pass

    def profile(self) -> StageProfile:
        return StageProfile()

    def reset(self) -> None:
        """Nothing recorded, nothing to clear."""


NULL_PROFILER = NullStageProfiler()
