"""Multi-process execution backend (``ECGraphConfig.execution="multiprocess"``).

The synchronous engine runs every worker inline in one GIL-bound
process; this package runs the worker *kernels* in real OS processes:

* :mod:`repro.mp.store` — :class:`~repro.mp.store.SharedStore`, named
  ``multiprocessing.shared_memory`` blocks with a per-array header
  (magic / dtype / shape / generation) exposing zero-copy numpy views
  to every process;
* :mod:`repro.mp.worker` — the child-process main loop: a kernel
  replica of the model backend bound to its one worker state, driven by
  a strict request→reply pipe protocol;
* :mod:`repro.mp.supervisor` — the
  :class:`~repro.mp.supervisor.ProcessExecutor` that the engine's
  executor seam plugs in: it spawns/reaps the worker processes, runs
  the BSP epoch protocol over the pipes, backs the engine's persistent
  layer workspaces (:mod:`repro.engine.workspace`) with shared-memory
  blocks, and turns injected worker crashes into real ``SIGKILL`` +
  respawn.

See ``docs/execution.md`` for the process model and the shared-memory
layout.
"""

from repro.mp.store import SharedStore
from repro.mp.supervisor import ProcessExecutor

__all__ = ["SharedStore", "ProcessExecutor"]
