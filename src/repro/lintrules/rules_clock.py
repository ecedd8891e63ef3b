"""ECG001 — the simulated cluster clock is the only time oracle.

Epoch timings in EC-Graph come from the :class:`NetworkModel`'s modelled
transfer/compute seconds, not from the host's wall clock: that is what
makes runs reproducible and lets the golden configs pin modelled epoch
seconds bit-for-bit. A stray ``time.time()`` or ``perf_counter()`` read
inside the engine, the multiprocess backend, or the policy core leaks
host jitter into results (or, worse, into control flow).

The one sanctioned seam is :func:`repro.obs.tracing.monotonic_now`,
read where the wall time is charged into the simulated clock — the
transport times each policy call and charges it by frame kind, a
worker process times its kernel rounds — plus the observability layer
itself (``obs/``), which exists to measure the host. This rule
therefore flags direct wall-clock reads in ``engine/``, ``mp/`` and
``core/``:

* attribute calls: ``time.time``, ``time.perf_counter``,
  ``time.monotonic``, ``time.process_time`` (and their ``_ns`` twins),
  ``datetime.now``/``utcnow``/``today``;
* ``from time import perf_counter``-style imports that smuggle the
  clock in under a local name.

``time.sleep`` is deliberately not flagged (it delays, it does not
measure), and ``monotonic_now`` is the endorsed replacement.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lintrules.base import Finding, ModuleInfo, Rule, dotted_name

__all__ = ["WallClockRule"]

_CLOCK_ATTRS = {
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
}
_DATETIME_ATTRS = {"now", "utcnow", "today"}
_SCOPED_PACKAGES = ("engine", "mp", "core")


class WallClockRule(Rule):
    """No wall-clock reads in ``engine/``, ``mp/``, ``core/``."""

    code = "ECG001"
    name = "wall-clock-read"
    summary = (
        "wall-clock read in simulated-clock code; route timing through "
        "repro.obs.tracing.monotonic_now and charge it to the NetworkModel"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        if not module.in_packages(*_SCOPED_PACKAGES):
            return
        for node in self.walk(module):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                root, _, attr = name.rpartition(".")
                if root.split(".")[-1] == "time" and attr in _CLOCK_ATTRS:
                    yield module.finding(
                        self.code,
                        f"wall-clock read {name}() in {module.package}/; "
                        "use repro.obs.tracing.monotonic_now where the "
                        "time is charged, or the NetworkModel clock",
                        node,
                    )
                elif (
                    root.split(".")[-1] in ("datetime", "date")
                    and attr in _DATETIME_ATTRS
                ):
                    yield module.finding(
                        self.code,
                        f"wall-clock read {name}() in {module.package}/; "
                        "the simulated NetworkModel clock is the time oracle",
                        node,
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time" and node.level == 0:
                    clocks = [
                        alias.name for alias in node.names
                        if alias.name in _CLOCK_ATTRS
                    ]
                    if clocks:
                        yield module.finding(
                            self.code,
                            "importing wall clocks from time "
                            f"({', '.join(clocks)}) in {module.package}/; "
                            "use repro.obs.tracing.monotonic_now",
                            node,
                        )
