"""Convergence watchdog: catch post-event divergence, decide the cure.

After a membership change (adoption, rejoin) or a corruption burst, the
optimization trajectory can silently diverge — stale adopted state or a
large folded gradient gap pushes the loss off a cliff a few epochs
later. The :class:`ConvergenceWatchdog` watches the per-epoch loss and
gradient norm and *trips* when either goes non-finite (always) or when,
while armed, the loss exceeds ``WATCHDOG_LOSS_FACTOR`` times the median
of the recent healthy window.

The watchdog only decides; the :class:`~repro.engine.recovery
.RecoveryManager` performs the response (checkpoint rollback, bit-width
escalation, residual reset) and consults :attr:`consecutive` to enforce
the ``MAX_CONSECUTIVE_ROLLBACKS`` fail-fast policy (the constants live
in :mod:`repro.faults.config`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.faults.config import (
    MAX_CONSECUTIVE_ROLLBACKS,
    WATCHDOG_LOSS_FACTOR,
    WATCHDOG_WINDOW,
)

__all__ = ["ConvergenceWatchdog", "DivergenceError"]


class DivergenceError(ValueError):
    """Training diverged beyond the rollback budget: fail fast.

    Subclasses :class:`ValueError` so the CLI maps it to exit code 2.
    """


class ConvergenceWatchdog:
    """Loss/grad-norm monitor with an armed window after risky events.

    The NaN/Inf check runs every epoch — a non-finite loss is never
    acceptable. The divergence check (loss vs. recent-window median)
    only runs while *armed*, i.e. within ``WATCHDOG_WINDOW`` epochs of a
    membership change or corruption burst; steady-state loss wobble on a
    healthy fleet never trips it.
    """

    def __init__(self) -> None:
        self._history: list[float] = []
        self._armed_until = -1
        self.consecutive = 0
        self.trips = 0

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------
    def arm(self, epoch: int, reason: str) -> None:
        """Stay armed for ``WATCHDOG_WINDOW`` epochs starting at ``epoch``."""
        self._armed_until = max(self._armed_until, epoch + WATCHDOG_WINDOW)
        self.last_arm_reason = reason

    def is_armed(self, epoch: int) -> bool:
        return epoch <= self._armed_until

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def observe(
        self, epoch: int, loss: float, grad_norm: float | None = None
    ) -> str | None:
        """Check epoch ``epoch``; return a trip reason or None.

        A healthy epoch extends the loss history (bounded to
        ``WATCHDOG_WINDOW``) and resets the consecutive-trip counter. A
        tripped epoch clears the history — post-rollback losses should
        be compared against a fresh window, not the diverged one.
        """
        reason = self._verdict(epoch, loss, grad_norm)
        if reason is None:
            self._history.append(float(loss))
            if len(self._history) > WATCHDOG_WINDOW:
                del self._history[0]
            self.consecutive = 0
            return None
        self.trips += 1
        self.consecutive += 1
        self._history.clear()
        return reason

    def _verdict(
        self, epoch: int, loss: float, grad_norm: float | None
    ) -> str | None:
        if not math.isfinite(loss):
            return "nan_loss"
        if grad_norm is not None and not math.isfinite(grad_norm):
            return "nan_grad"
        if not self.is_armed(epoch) or not self._history:
            return None
        baseline = float(np.median(self._history))
        if baseline > 0 and loss > WATCHDOG_LOSS_FACTOR * baseline:
            return "divergence"
        return None

    @property
    def exhausted(self) -> bool:
        """True once the consecutive-rollback budget is spent."""
        return self.consecutive >= MAX_CONSECUTIVE_ROLLBACKS
