"""TrainerCore: the object that drives the staged pipeline.

One core owns one :class:`~repro.engine.context.ExchangeContext`, one
:class:`~repro.engine.backends.ModelBackend` and the five stages, and
runs them in the paper's synchronous-iteration order::

    HaloPlanStage -> ForwardStage -> BackwardStage -> OptimizeStage
        -> EvalStage

:class:`~repro.core.trainer.ECGraphTrainer` builds the context during
``setup()`` and delegates ``run_epoch``/``evaluate_exact`` here; the
stages, the backend and the recovery manager are reachable as
``trainer.engine.<stage>``, ``.backend`` and ``.recovery``.

The whole iteration — recovery, the five stages, the checkpoint — runs
inside one ``Telemetry.epoch`` span, and each stage inside one
``Telemetry.stage`` context that is both its span and its profiled
sample.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.results import EpochResult
from repro.engine.backends import ModelBackend
from repro.engine.context import ExchangeContext
from repro.engine.executor import SyncExecutor
from repro.engine.recovery import RecoveryManager
from repro.engine.stages import (
    BackwardStage,
    EvalStage,
    ForwardStage,
    HaloPlanStage,
    OptimizeStage,
)

__all__ = ["TrainerCore"]


class TrainerCore:
    """Drives one synchronous training iteration through the stages."""

    def __init__(
        self,
        ctx: ExchangeContext,
        backend: ModelBackend,
        recovery: RecoveryManager | None = None,
    ) -> None:
        self.ctx = ctx
        self.backend = backend
        self.recovery = recovery
        ctx.recovery = recovery
        backend.bind(ctx)
        if ctx.executor is None:
            ctx.executor = SyncExecutor()
        ctx.executor.bind(ctx, backend)
        backend.plan_workspaces()
        self.halo_plan = HaloPlanStage(ctx, backend)
        self.forward = ForwardStage(ctx, backend)
        self.backward = BackwardStage(ctx, backend)
        self.optimize = OptimizeStage(ctx, backend)
        self.eval = EvalStage(ctx, backend)
        self.stages = (
            self.halo_plan, self.forward, self.backward,
            self.optimize, self.eval,
        )

    # ------------------------------------------------------------------
    def run_epoch(self, t: int) -> EpochResult:
        """One synchronous training iteration (forward + backward).

        Any exception — a fault-tolerance abort, a diverged watchdog, a
        dead worker process — tears the execution resources down
        (:meth:`shutdown`) before propagating, so a failing epoch never
        strands worker processes or shared memory.
        """
        try:
            return self._run_epoch(t)
        except BaseException:
            self.shutdown()
            raise

    def _run_epoch(self, t: int) -> EpochResult:
        ctx = self.ctx
        obs = ctx.telemetry
        with obs.epoch(t, ctx.runtime):
            if self.recovery is not None:
                self.recovery.begin_epoch(t)
            with obs.stage("halo_plan", t):
                self.halo_plan.run(t)
            with obs.stage("forward", t):
                loss, counters = self.forward.run(t)
            with obs.stage("backward", t):
                grads = self.backward.run(t)
            with obs.stage("optimize", t):
                self.optimize.run(grads)
            if (
                self.recovery is not None
                and self.recovery.watchdog is not None
            ):
                # Watchdog audit runs before end_epoch's checkpoint so a
                # rollback is never overwritten by a diverged save.
                self.recovery.observe_convergence(
                    t, loss, self._grad_norm(grads)
                )
            breakdown = ctx.runtime.end_epoch()
            if self.recovery is not None:
                self.recovery.end_epoch(t)
            with obs.stage("eval", t):
                result = self.eval.run(t, loss, counters, breakdown)
        return result

    def shutdown(self) -> None:
        """Release the executor's worker processes and shared memory.

        Idempotent; a no-op on the sync path, which holds no resources.
        """
        self.ctx.executor.close()

    def evaluate_exact(self) -> dict[str, float]:
        """Exact-communication accuracy (Table V measurement)."""
        return self.eval.evaluate_exact()

    @staticmethod
    def _grad_norm(grads: dict[int, dict[str, np.ndarray]]) -> float:
        """Global L2 norm over every worker's parameter-gradient shares."""
        total = 0.0
        for worker in sorted(grads):
            shares = grads[worker]
            for name in sorted(shares):
                g = shares[name]
                total += float(np.vdot(g, g).real)
        return math.sqrt(total)
