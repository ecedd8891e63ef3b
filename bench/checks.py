"""Output checks. Every epoch run and every check is one op; a raised
exception, a non-finite loss or a failed check is a failed op."""

from __future__ import annotations

import math
import sys
from typing import Any, Sequence

import numpy as np

from measure import EpochSample

__all__ = ["Ops", "check_training", "check_meter", "check_same_run", "check_setups"]


class Ops:
    """Attempted / failed tally; failures are explained on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def epochs(self, samples: Sequence[EpochSample]) -> None:
        for sample in samples:
            self.attempted += 1
            if not math.isfinite(sample.loss):
                self.failed += 1
                print(f"FAILED epoch {sample.t}: loss {sample.loss}", file=sys.stderr)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED check {name}: {detail}", file=sys.stderr)


def check_training(ops: Ops, samples: Sequence[EpochSample]) -> None:
    """Training made progress: the last loss is below the first timed one."""
    first, last = samples[0], samples[-1]
    ops.check(
        "loss-decreased", last.loss < first.loss,
        f"loss {first.loss} at t={first.t}, {last.loss} at t={last.t}",
    )


def check_meter(ops: Ops, samples: Sequence[EpochSample], before: Any, after: Any) -> None:
    """What the epochs reported is what the traffic meter counted, in
    total and per category (``before``/``after`` are meter snapshots)."""
    delta = after.delta(before)
    reported = sum(s.wire_bytes for s in samples)
    per_category = sum(
        sum(s.result.breakdown.category_bytes.values()) for s in samples
    )
    ops.check(
        "wire-bytes-reconcile",
        reported == delta.total_bytes == per_category
        == sum(delta.category_bytes.values()),
        f"epochs {reported}, categories {per_category}, meter "
        f"{delta.total_bytes} / {sum(delta.category_bytes.values())}",
    )


def check_same_run(
    ops: Ops, name: str, a: Sequence[EpochSample], b: Sequence[EpochSample]
) -> None:
    """Two runs that must agree bit for bit: same epochs, same losses,
    same wire bytes (traced vs untraced, multiprocess vs sync)."""
    same = len(a) == len(b) and all(
        x.t == y.t and x.loss == y.loss and x.wire_bytes == y.wire_bytes
        for x, y in zip(a, b)
    )
    detail = ""
    if not same:
        detail = "; ".join(
            f"t={x.t}: {x.loss!r}/{x.wire_bytes} vs {y.loss!r}/{y.wire_bytes}"
            for x, y in zip(a, b)
            if (x.loss, x.wire_bytes) != (y.loss, y.wire_bytes)
        )[:400] or f"{len(a)} vs {len(b)} epochs"
    ops.check(name, same, detail)


def check_setups(ops: Ops, assignments: Sequence[np.ndarray], losses: Sequence[float]) -> None:
    """Repeated set-ups are the same set-up: identical partition
    assignment and identical epoch-0 loss."""
    same = all(
        np.array_equal(assignments[0], other) for other in assignments[1:]
    ) and all(loss == losses[0] for loss in losses[1:])
    ops.check("setup-repetitions-identical", same, f"epoch-0 losses {list(losses)}")
