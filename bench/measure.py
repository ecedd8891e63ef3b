"""The epoch loop, the robust estimators and the host calibration kernel."""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np
from scipy.sparse import random as sparse_random

__all__ = [
    "EpochSample", "run_epochs", "is_trend", "cycle_estimate", "percentile",
    "Calibration", "peak_rss_mb", "median_time",
]


@dataclass(frozen=True)
class EpochSample:
    """One ``run_epoch(t)`` call: the program's result plus what the
    process paid for it."""

    t: int
    wall: float
    result: Any  # repro EpochResult
    user_cpu: float
    sys_cpu: float
    minor_faults: int
    messages: int

    @property
    def loss(self) -> float:
        return float(self.result.loss)

    @property
    def wire_bytes(self) -> int:
        return int(self.result.breakdown.bytes_sent)


def run_epochs(
    trainer: Any, ts: Iterable[int], tracer: Any = None
) -> list[EpochSample]:
    """Closed loop, one caller: epoch ``t+1`` starts when ``t`` returns."""
    meter = trainer.runtime.meter
    samples = []
    for t in ts:
        span = tracer.span("epoch") if tracer is not None else nullcontext()
        before = resource.getrusage(resource.RUSAGE_SELF)
        messages = meter.total_messages
        start = time.perf_counter()
        with span:
            result = trainer.run_epoch(t)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        samples.append(EpochSample(
            t=t, wall=wall, result=result,
            user_cpu=after.ru_utime - before.ru_utime,
            sys_cpu=after.ru_stime - before.ru_stime,
            minor_faults=after.ru_minflt - before.ru_minflt,
            messages=meter.total_messages - messages,
        ))
    return samples


def is_trend(t: int, period: int | None) -> bool:
    """ReqEC-FP ships exact rows plus the changing rate on these epochs;
    they move 20-40x the bytes of a regular epoch. ``period=None``: the
    workload has no trend epochs."""
    return period is not None and (t + 1) % period == 0


def cycle_estimate(
    points: Iterable[tuple[int, float]], period: int | None
) -> float:
    """Per-epoch cost over one trend cycle, from ``(t, value)`` points.

    With a trend period: ``((P-1) * median(regular) + median(trend)) / P``
    — robust to a page-fault spike, yet moved by a change that only
    touches trend epochs. ``period=None`` (no trend epochs): the median.
    """
    points = list(points)
    regular = [v for t, v in points if not is_trend(t, period)]
    trend = [v for t, v in points if is_trend(t, period)]
    if period is None or not trend:
        return statistics.median(regular)
    return (
        (period - 1) * statistics.median(regular) + statistics.median(trend)
    ) / period


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median_time(fn: Callable[[], Any], repeats: int = 5) -> float:
    """Median wall of ``fn()`` over ``repeats`` calls, results consumed."""
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        walls.append(time.perf_counter() - start)
        del out
    return statistics.median(walls)


class Calibration:
    """A fixed spmm + gemm + bit-shift kernel, the same on every host and
    workload: per-layer times divided by it are portable across hosts,
    and its drift within a run says how noisy the host was."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.adjacency = sparse_random(
            16384, 16384, density=16 / 16384, format="csr",
            dtype=np.float32, random_state=rng,
        )
        self.dense = rng.standard_normal((16384, 64)).astype(np.float32)
        self.weight = rng.standard_normal((64, 64)).astype(np.float32)
        self.ids = rng.integers(0, 16, size=1 << 20, dtype=np.uint32)

    def _kernel(self) -> float:
        hidden = (self.adjacency @ self.dense) @ self.weight
        lanes = (self.ids[0::2] | (self.ids[1::2] << np.uint32(4))).astype(np.uint8)
        return float(hidden[0, 0]) + float(lanes[0])

    def seconds(self) -> float:
        return median_time(self._kernel, repeats=5)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
