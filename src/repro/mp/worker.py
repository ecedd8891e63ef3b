"""The worker-process main loop (``execution="multiprocess"``).

Each worker process is forked from the supervisor after setup, so it
inherits a full copy of the bound :class:`~repro.engine.context.ExchangeContext`
and backend — partitioned features, adjacency rows, halo plans, caches —
by address-space snapshot. From then on the only things that flow in are:

* pipe commands (one strict request→reply round per engine step, with
  pulled parameters / backward weights / kernel-state refreshes as
  payloads), and
* the shared-memory layer workspaces (:mod:`repro.engine.workspace`):
  the supervisor's exchange scatters halo rows into their tails, the
  kernels here read them in place and write layer outputs / gradient
  rows / dH partials into their heads, which the next exchange serves —
  no message names a block and nothing is copied around a kernel.

The worker runs only the pure per-layer kernels, through the same op
table the inline executor runs (:func:`~repro.engine.executor.run_kernel`);
every policy, fault, metering and tuner decision stays on the
supervisor, which is what keeps multiprocess runs bit-identical to
sync. Kernel wall time is measured here and shipped back for the
supervisor to charge to the simulated cluster clock.

A worker that hits an exception replies ``("err", traceback, 0.0)`` and
keeps serving rounds (the supervisor raises); EOF on the pipe or a
``stop`` command ends the loop. The first thing the loop does is
:func:`~repro.mp.store.disarm_inherited_stores`, so a dying worker can
never unlink shared segments the supervisor still owns.
"""

from __future__ import annotations

import traceback
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.engine.executor import run_kernel
from repro.mp.store import SharedStore, disarm_inherited_stores
from repro.obs.tracing import monotonic_now

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

    from repro.core.worker import WorkerState
    from repro.engine.backends import ModelBackend
    from repro.engine.context import ExchangeContext

__all__ = ["worker_main"]


def _dispatch(
    msg: tuple[Any, ...],
    state: WorkerState,
    backend: ModelBackend,
    ctx: ExchangeContext,
) -> tuple[Any, float]:
    op = msg[0]
    if op == "begin":
        backend.begin_iteration()
        return ctx.workspaces.held(state.worker_id), 0.0
    if op == "kstate":
        backend.apply_kernel_refresh(state.worker_id, msg[1])
        return None, 0.0
    start = monotonic_now()
    payload = run_kernel(ctx, backend, state, op, msg[1:])
    return payload, monotonic_now() - start


def worker_main(
    worker_id: int,
    conn: Connection,
    token: str,
    ctx: ExchangeContext,
    backend: ModelBackend,
) -> None:
    """Serve kernel rounds for one worker until ``stop`` or EOF."""
    # Drop the workspace views the fork copied before their segments are
    # disarmed; this process maps the same blocks itself, by name.
    store = SharedStore(token, create=False)

    def attach(name: str, shape: tuple[int, int]) -> np.ndarray:
        block = store.attach(name)
        if block.shape != shape or block.dtype != np.float32:
            raise ValueError(f"shared block {name!r} is not float32{shape}")
        return block

    ctx.workspaces = ctx.workspaces.detached(attach)
    disarm_inherited_stores()
    state = ctx.workers[worker_id]
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, KeyboardInterrupt):
                break
            if msg[0] == "stop":
                break
            try:
                payload, wall = _dispatch(msg, state, backend, ctx)
            except Exception:
                conn.send(("err", traceback.format_exc(), 0.0))
                continue
            conn.send(("ok", payload, wall))
    finally:
        store.close()
        conn.close()
