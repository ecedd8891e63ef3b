"""Supervisor side of the multi-process execution backend.

:class:`ProcessExecutor` implements the engine's executor seam (see
``repro.engine.executor``) by forking one OS process per partition and
driving them in strict lockstep rounds over pipes, with bulk tensors in
a :class:`~repro.mp.store.SharedStore`. The supervisor keeps the entire
exchange path — compression policies, BitTuner, fault injection,
traffic metering, parameter servers, degradation — so the numbers a
multiprocess run produces are bit-identical to ``execution="sync"``;
only the kernel math leaves the process.

Bulk tensors never cross the pipe: :meth:`ProcessExecutor.bind` points
:attr:`~repro.engine.workspace.LayerWorkspaces.buffer_provider` at the
store, so every planned slot an exchange touches is a shared block
``s<k>w<worker>`` (``s0w0``, ``s2w3``, ...). The supervisor's scatter is
the last copy before the worker's kernel reads the rows, the kernel
writes its output into the block the next exchange serves from, and a
round's message carries only the layer number and the pulled
parameters. A re-plan releases the blocks it supersedes, and a worker
forked under an older plan is respawned before its next iteration.

A worker process reads no graph store: each fork snapshots its worker's
first-layer rows resident (:meth:`~repro.core.worker.WorkerState.reload_inputs`
first, after a release). On the cached first hop the supervisor then
releases its own arrays — the child keeps its copy-on-write pages, and
exact evaluation and the next respawn re-read the rows by global id.

Deadlock-freedom of the round protocol: the supervisor sends to every
worker, then receives in worker order. At a round boundary every worker
is parked in ``recv`` (so dispatches drain immediately), and replies
queue in the pipe until the supervisor's receive loop — there is no
cycle in which both sides block writing. A worker death surfaces as
``EOFError`` on its pipe and is re-raised as ``RuntimeError`` naming
the pid; crash *recovery* (SIGKILL + respawn via a fresh fork of the
already-recovered supervisor state) is handled by
:meth:`ProcessExecutor.on_worker_crash`.
"""

from __future__ import annotations

import multiprocessing
from typing import TYPE_CHECKING, Any, Callable

from repro.engine.executor import KernelRounds, publish_workspace_bytes
from repro.mp.store import SharedStore
from repro.mp.worker import worker_main

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    import numpy as np

    from repro.core.worker import WorkerState
    from repro.engine.backends import ModelBackend
    from repro.engine.context import ExchangeContext
    from repro.engine.workspace import WorkerPlan

__all__ = ["ProcessExecutor"]


class ProcessExecutor(KernelRounds):
    """Executor that runs worker kernels in real OS processes."""

    name = "multiprocess"

    def __init__(self) -> None:
        self.ctx: ExchangeContext | None = None
        self.backend: ModelBackend | None = None
        self.store: SharedStore | None = None
        self._procs: dict[int, multiprocessing.Process] = {}
        self._conns: dict[int, Connection] = {}
        self._shipped_version: dict[int, int] = {}
        # The workspace plan each worker process was forked under.
        self._forked_plan: dict[int, WorkerPlan] = {}
        self._spawned = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle

    def bind(self, ctx: ExchangeContext, backend: ModelBackend) -> None:
        self.ctx = ctx
        self.backend = backend
        self.store = SharedStore()
        ctx.workspaces.buffer_provider = self._block

    def _block(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        """A fresh shared block; a re-plan's supersedes the old one."""
        if name in self.store:
            self.store.release(name)
        return self.store.allocate(name, shape)

    def _spawn(self, worker_id: int) -> None:
        # The child builds its first layer from resident rows.
        state = self.ctx.workers[worker_id]
        state.reload_inputs()
        # fork: the child inherits the fully-bound context/backend by
        # copy-on-write, so no state needs to be pickled at spawn.
        mp_ctx = multiprocessing.get_context("fork")
        parent, child = mp_ctx.Pipe()
        proc = mp_ctx.Process(
            target=worker_main,
            args=(worker_id, child, self.store.token, self.ctx, self.backend),
            name=f"ecg-worker-{worker_id}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._procs[worker_id] = proc
        self._conns[worker_id] = parent
        self._shipped_version[worker_id] = self.backend.kernel_version
        self._forked_plan[worker_id] = self.ctx.workspaces.plan_of(worker_id)
        if self.ctx.config.cache_first_hop:
            # The child holds what its first layer reads from them; the
            # supervisor's exchanges never do (uncached, the shard stays:
            # it is the layer-1 exchange's source here).
            state.release_inputs()

    def _ensure_spawned(self) -> None:
        if self._spawned:
            return
        if self._closed:
            raise RuntimeError("ProcessExecutor is closed")
        # Spawn lazily at the first epoch round: the shared workspace
        # blocks are allocated after bind, and the fork must snapshot
        # the fully-built engine.
        self._spawned = True
        for state in self.ctx.workers:
            self._spawn(state.worker_id)

    @property
    def worker_pids(self) -> dict[int, int]:
        return {w: proc.pid for w, proc in sorted(self._procs.items())}

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for _, conn in sorted(self._conns.items()):
            try:
                conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for _, proc in sorted(self._procs.items()):
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5)
        for _, conn in sorted(self._conns.items()):
            try:
                conn.close()
            except OSError:
                pass
        self._conns.clear()
        self._procs.clear()
        if self.ctx is not None:
            # The views die with the store: same plans, private arrays.
            self.ctx.workspaces = self.ctx.workspaces.detached()
        if self.store is not None:
            self.store.close()

    def on_worker_crash(self, worker_id: int) -> None:
        """Crash under multiprocess is a real kill: terminate the OS
        process and respawn it from the recovered supervisor state."""
        if self._spawned:
            self._respawn(worker_id)

    def _respawn(self, worker_id: int) -> None:
        proc = self._procs.get(worker_id)
        if proc is not None:
            if proc.is_alive():
                proc.kill()
            proc.join(timeout=10)
        conn = self._conns.pop(worker_id, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        self._spawn(worker_id)

    # ------------------------------------------------------------------
    # round protocol

    def _send(self, worker_id: int, msg: tuple[Any, ...]) -> None:
        try:
            self._conns[worker_id].send(msg)
        except (BrokenPipeError, OSError) as exc:
            proc = self._procs[worker_id]
            raise RuntimeError(
                f"worker process {worker_id} (pid {proc.pid}) is gone "
                f"(exitcode {proc.exitcode})"
            ) from exc

    def _recv(self, worker_id: int) -> tuple[Any, float]:
        try:
            reply = self._conns[worker_id].recv()
        except EOFError as exc:
            proc = self._procs[worker_id]
            raise RuntimeError(
                f"worker process {worker_id} (pid {proc.pid}) died "
                f"mid-round (exitcode {proc.exitcode})"
            ) from exc
        kind, payload, wall = reply
        if kind == "err":
            raise RuntimeError(
                f"worker process {worker_id} failed:\n{payload}"
            )
        return payload, wall

    def _round(
        self, op: str, args_of: Callable[[WorkerState], tuple[Any, ...]]
    ) -> dict[int, Any]:
        """Send ``(op, *args)`` to every active worker, then collect the
        replies in worker order, charging each reported kernel wall."""
        ctx = self.ctx
        active = ctx.active_workers()
        for state in active:
            self._send(state.worker_id, (op, *args_of(state)))
        results: dict[int, Any] = {}
        for state in active:
            payload, wall = self._recv(state.worker_id)
            ctx.runtime.add_compute(state.worker_id, wall)
            results[state.worker_id] = payload
        return results

    # ------------------------------------------------------------------
    # executor protocol

    def on_epoch_start(self, t: int) -> None:
        self._ensure_spawned()
        self.backend.on_epoch_start(t)
        version = self.backend.kernel_version
        stale = [
            w
            for w, shipped in sorted(self._shipped_version.items())
            if shipped != version
        ]
        for w in stale:
            self._send(w, ("kstate", self.backend.kernel_refresh(w)))
        for w in stale:
            self._recv(w)
            self._shipped_version[w] = version

    def begin_iteration(self) -> None:
        self._ensure_spawned()
        ws = self.ctx.workspaces
        for state in self.ctx.active_workers():
            # Forked before a re-plan: its blocks are gone.
            if ws.plan_of(state.worker_id) is not self._forked_plan.get(
                state.worker_id
            ):
                self._respawn(state.worker_id)
        # Supervisor-side copy stays in lockstep for anything read off
        # worker states outside the kernels (e.g. eval, checkpoints).
        self.backend.begin_iteration()
        for state in self.ctx.active_workers():
            self._send(state.worker_id, ("begin",))
        metrics = self.ctx.telemetry.metrics
        pids = self.worker_pids
        for state in self.ctx.active_workers():
            w = state.worker_id
            # What the worker process holds: shared blocks it mapped
            # plus its kernel-private buffers.
            held, _ = self._recv(w)
            publish_workspace_bytes(self.ctx, w, held)
            # The OS process that ran this iteration (a respawn after a
            # crash shows up as a new value).
            metrics.set_gauge("worker_pid", pids[w], worker=w)
