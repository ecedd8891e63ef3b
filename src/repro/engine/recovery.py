"""Checkpointing, crash recovery and elastic membership for the engine.

The :class:`RecoveryManager` owns the fault-tolerance lifecycle that
used to be spread across the trainer monolith: advancing the injector's
epoch clock, rebuilding crashed workers, rotating/saving parameter
checkpoints and rolling servers back after a crash.

Checkpoint files rotate — before each save, the previous ``latest.npz``
moves to ``previous.npz`` — so a checkpoint that lands corrupt on disk
(torn write, bit rot) no longer kills recovery: restore skips it with a
warning metric (``fault_checkpoint_corrupt`` / the
``corrupt_checkpoints`` counter) and falls back to the previous file,
then to the in-memory snapshot. When every on-disk generation is
corrupt *and* no in-memory snapshot exists, restore raises a clean
:class:`~repro.core.checkpoint.CheckpointError` instead of silently
training on from diverged parameters (the CLI maps it to exit code 2).

With elastic membership attached (``faults.elastic``), the manager also
drives the permanent-failure path: the
:class:`~repro.membership.view.MembershipView` marks leases expired,
survivors absorb the detection stall, the
:class:`~repro.membership.reassign.PartitionReassigner` hands orphaned
partitions to the least-loaded survivor, and the
:class:`~repro.membership.watchdog.ConvergenceWatchdog` audits the loss
trajectory after each disruption — rolling back and escalating channel
bit widths when training diverges (see ``docs/fault_tolerance.md``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from typing import TYPE_CHECKING, Any

from repro.core.worker import fetch_halo_features
from repro.engine.context import ExchangeContext
from repro.faults.config import (
    MAX_CONSECUTIVE_ROLLBACKS,
    RECOVERY_SECONDS,
    WATCHDOG_BURST,
)

if TYPE_CHECKING:
    from repro.membership.reassign import PartitionReassigner
    from repro.membership.view import MembershipView
    from repro.membership.watchdog import ConvergenceWatchdog

__all__ = ["RecoveryManager", "CHECKPOINT_NAME", "PREVIOUS_CHECKPOINT_NAME"]

CHECKPOINT_NAME = "latest.npz"
PREVIOUS_CHECKPOINT_NAME = "previous.npz"


class RecoveryManager:
    """Drives fault-tolerance hooks around each training iteration.

    Args:
        ctx: The shared exchange context (injector, runtime, workers,
            servers, policies, telemetry).
        trainer: The owning trainer — checkpoint serialization
            (:func:`~repro.core.checkpoint.save_checkpoint`) captures
            the trainer's model/config metadata.
    """

    def __init__(self, ctx: ExchangeContext, trainer: Any) -> None:
        self.ctx = ctx
        self.trainer = trainer
        # (epoch, params) in-memory snapshot — the rollback of last
        # resort when no disk checkpoint is configured or readable.
        self.param_snapshot: tuple[int, dict[str, np.ndarray]] | None = None
        # Elastic membership collaborators (attach_elasticity).
        self.membership: MembershipView | None = None
        self.reassigner: PartitionReassigner | None = None
        self.watchdog: ConvergenceWatchdog | None = None
        self._corruption_mark = 0

    def attach_elasticity(
        self,
        membership: MembershipView,
        reassigner: PartitionReassigner,
        watchdog: ConvergenceWatchdog,
    ) -> None:
        """Wire the elastic-membership collaborators (``faults.elastic``).

        Called by the trainer while it builds the engine; the
        three objects always travel together — the view decides *who*
        is alive, the reassigner decides *where* orphaned partitions
        go, and the watchdog decides whether training survived it.
        """
        self.membership = membership
        self.reassigner = reassigner
        self.watchdog = watchdog

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------
    def begin_epoch(self, t: int) -> None:
        """Advance the injector clock and recover scheduled faults."""
        injector = self.ctx.injector
        if injector is None:
            return
        injector.start_epoch(t)
        crashed = injector.take_crashes(t)
        if crashed:
            with self.ctx.telemetry.span(
                "recovery", epoch=t, crashed=list(crashed)
            ):
                self.recover_workers(crashed)
        if self.membership is not None:
            self._apply_membership(t)

    def end_epoch(self, t: int) -> None:
        """Auto-checkpoint the server parameters after epoch ``t``."""
        if self.ctx.injector is not None:
            self.maybe_checkpoint(t)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def maybe_checkpoint(self, t: int) -> None:
        faults = self.ctx.config.faults
        if (t + 1) % faults.checkpoint_every != 0:
            return
        with self.ctx.telemetry.span("checkpoint", epoch=t):
            if faults.checkpoint_dir is not None:
                from repro.core.checkpoint import save_checkpoint

                directory = Path(faults.checkpoint_dir)
                path = directory / CHECKPOINT_NAME
                # Rotate so a corrupt newest file still leaves one good
                # generation on disk (os.replace keeps rotation atomic).
                if path.exists():
                    import os

                    os.replace(path, directory / PREVIOUS_CHECKPOINT_NAME)
                save_checkpoint(self.trainer, path, epoch=t + 1)
            self.param_snapshot = (t + 1, self.ctx.servers.state_dict())

    def restore_latest_checkpoint(self) -> bool:
        """Load the newest readable parameter checkpoint into the servers.

        Tries ``latest.npz``; a corrupt file is *skipped* — counted in
        ``corrupt_checkpoints`` and the ``fault_checkpoint_corrupt``
        metric — in favour of the rotated ``previous.npz``, and the
        in-memory snapshot remains the final fallback. Returns True when
        any source restored the parameters.

        Raises:
            CheckpointError: When at least one checkpoint file exists
                on disk but *every* generation is corrupt and there is
                no in-memory snapshot to fall back to. Recovery cannot
                proceed from known-bad parameters, so this fails fast
                (the CLI reports it as exit code 2).
        """
        ctx = self.ctx
        faults = ctx.config.faults
        corrupt: list[str] = []
        if faults.checkpoint_dir is not None:
            from repro.core.checkpoint import CheckpointError, load_checkpoint

            directory = Path(faults.checkpoint_dir)
            for name in (CHECKPOINT_NAME, PREVIOUS_CHECKPOINT_NAME):
                try:
                    state = load_checkpoint(directory / name)
                except FileNotFoundError:
                    continue
                except CheckpointError:
                    corrupt.append(name)
                    if ctx.injector is not None:
                        ctx.injector.counters.corrupt_checkpoints += 1
                    if ctx.telemetry.enabled:
                        ctx.telemetry.metrics.inc(
                            "fault_checkpoint_corrupt", file=name
                        )
                    continue
                for name_, value in state["params"].items():
                    ctx.servers.set(name_, value)
                return True
        if self.param_snapshot is not None:
            _, params = self.param_snapshot
            for name, value in params.items():
                ctx.servers.set(name, value)
            return True
        if corrupt:
            from repro.core.checkpoint import CheckpointError

            raise CheckpointError(
                "cannot restore parameters: every checkpoint generation "
                f"in {faults.checkpoint_dir} is corrupt "
                f"({', '.join(corrupt)}) and no in-memory snapshot exists"
            )
        return False

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def recover_workers(self, crashed: list[int]) -> None:
        """Rebuild crashed workers and resynchronize the exchange state.

        The static partition state (adjacency rows, feature shards,
        request/serve plans) rebuilds from the worker's local storage —
        charged as ``RECOVERY_SECONDS`` of stall plus the re-fetch of
        the first-hop feature cache — while the server-side parameters
        roll back to the latest checkpoint and the error-compensation
        channel state touching the dead worker is always zeroed,
        restoring the Theorem-1 initial condition
        ``delta = 0`` for those channels.
        """
        ctx = self.ctx
        counters = ctx.injector.counters
        obs = ctx.telemetry
        for worker in crashed:
            counters.crashes += 1
            if obs.enabled:
                obs.metrics.inc("fault_crashes", worker=worker)
            ctx.runtime.add_stall(worker, RECOVERY_SECONDS)
            state = ctx.workers[worker]
            state.crash_reset(ctx.params.num_layers)
            if ctx.config.cache_first_hop and state.halo_lost:
                # A new cache, so a new inputs_version: the first-layer
                # workspace and its constant aggregate are rebuilt from
                # it on the next forward. Owners that released their
                # shards serve the same rows from the store.
                fetch_halo_features(
                    state, ctx.workers, ctx.runtime, "recovery"
                )
            ctx.fp_policy.invalidate_worker(worker)
            ctx.bp_policy.invalidate_worker(worker)
            ctx.transport.invalidate_worker(worker)
            if ctx.executor is not None:
                # Under multiprocess execution a crash is a real process
                # kill: the executor SIGKILLs the worker process and
                # respawns it from the just-recovered supervisor state.
                ctx.executor.on_worker_crash(worker)
        if self.restore_latest_checkpoint():
            counters.params_rolled_back += 1
            if obs.enabled:
                obs.metrics.inc("fault_params_rolled_back")

    # ------------------------------------------------------------------
    # Elastic membership (permanent failures, rejoins, watchdog)
    # ------------------------------------------------------------------
    def _apply_membership(self, t: int) -> None:
        """Process the epoch's scheduled permanent losses and rejoins."""
        injector = self.ctx.injector
        lost = injector.take_permanent_failures(t)
        rejoined = injector.take_rejoins(t)
        if not lost and not rejoined:
            return
        with self.ctx.telemetry.span(
            "membership", epoch=t, lost=list(lost), rejoined=list(rejoined)
        ):
            for worker in lost:
                self._lose_worker(t, worker)
            for worker in rejoined:
                self._rejoin_worker(t, worker)

    def _lose_worker(self, t: int, worker: int) -> None:
        """Permanent loss: detect, check quorum, adopt, roll back, arm.

        The lease expires after ``LEASE_GRACE_S`` (quantized to whole
        heartbeats); every survivor stalls for that detection window.
        The orphaned partition then moves to the least-loaded survivor
        and the server parameters roll back to the latest checkpoint so
        the adopter's first iteration starts from a consistent model.
        """
        ctx = self.ctx
        membership = self.membership
        counters = ctx.injector.counters
        obs = ctx.telemetry
        if not membership.is_alive(worker):
            membership.record(t, "loss_ignored", worker=worker)
            return
        stall = membership.mark_dead(t, worker)
        counters.permanent_failures += 1
        if obs.enabled:
            obs.metrics.inc("membership_lost", worker=worker)
        for survivor in membership.alive_workers():
            ctx.runtime.add_stall(survivor, stall)
        membership.require_quorum(t)
        adopter = self.reassigner.adopt(t, worker)
        counters.adoptions += 1
        if obs.enabled:
            obs.metrics.inc("membership_adoptions", adopter=adopter)
        if self.restore_latest_checkpoint():
            counters.params_rolled_back += 1
            if obs.enabled:
                obs.metrics.inc("fault_params_rolled_back")
        self.watchdog.arm(t, "membership_change")

    def _rejoin_worker(self, t: int, worker: int) -> None:
        """A lost worker returns: reclaim its original partition."""
        ctx = self.ctx
        membership = self.membership
        obs = ctx.telemetry
        if not membership.mark_alive(t, worker):
            membership.record(t, "rejoin_ignored", worker=worker)
            return
        ctx.injector.counters.rejoins += 1
        if obs.enabled:
            obs.metrics.inc("membership_rejoins", worker=worker)
        self.reassigner.rejoin(t, worker)
        self.watchdog.arm(t, "membership_change")

    def observe_convergence(
        self, t: int, loss: float, grad_norm: float | None = None
    ) -> None:
        """Feed the epoch's loss to the watchdog; respond to a trip.

        Called by the core after the optimize stage (before the epoch's
        checkpoint, so a rollback is never overwritten by a diverged
        save). A trip rolls the servers back, escalates every halo
        channel pair to the widest bit width, and resets the backward
        residual state; ``MAX_CONSECUTIVE_ROLLBACKS`` trips in a row
        without a healthy epoch raise
        :class:`~repro.membership.watchdog.DivergenceError`.
        """
        if self.watchdog is None:
            return
        ctx = self.ctx
        injector = ctx.injector
        if injector is not None:
            corruptions = injector.counters.corruptions
            burst = corruptions - self._corruption_mark
            self._corruption_mark = corruptions
            if burst >= WATCHDOG_BURST:
                self.watchdog.arm(t, "corruption_burst")
                if self.membership is not None:
                    self.membership.record(
                        t, "watchdog_armed",
                        reason="corruption_burst", corruptions=burst,
                    )
        reason = self.watchdog.observe(t, loss, grad_norm)
        if reason is None:
            return
        counters = injector.counters if injector is not None else None
        obs = ctx.telemetry
        if counters is not None:
            counters.watchdog_trips += 1
        if obs.enabled:
            obs.metrics.inc("watchdog_trips", reason=reason)
        if self.membership is not None:
            self.membership.record(
                t, "watchdog_trip", reason=reason, loss=float(loss),
                consecutive=self.watchdog.consecutive,
            )
        with obs.span("watchdog_response", epoch=t, reason=reason):
            if self.restore_latest_checkpoint():
                if counters is not None:
                    counters.watchdog_rollbacks += 1
                if obs.enabled:
                    obs.metrics.inc("watchdog_rollbacks")
                if self.membership is not None:
                    self.membership.record(t, "watchdog_rollback")
            pairs = set()
            for state in ctx.workers:
                for owner in state.halo_slots:
                    pairs.add((owner, state.worker_id))
            changed = ctx.tuner.escalate(sorted(pairs))
            if changed:
                if counters is not None:
                    counters.watchdog_escalations += len(changed)
                if obs.enabled:
                    obs.metrics.inc(
                        "watchdog_escalations", value=len(changed)
                    )
                if self.membership is not None:
                    self.membership.record(
                        t, "watchdog_escalation", channels=len(changed)
                    )
            ctx.bp_policy.reset()
        self.watchdog.arm(t, "watchdog_trip")
        if self.watchdog.exhausted:
            from repro.membership.watchdog import DivergenceError

            raise DivergenceError(
                f"convergence watchdog exhausted at epoch {t}: "
                f"{self.watchdog.consecutive} consecutive rollbacks "
                f"(limit {MAX_CONSECUTIVE_ROLLBACKS}, "
                f"last trigger {reason!r})"
            )
