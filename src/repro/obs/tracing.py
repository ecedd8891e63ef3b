"""Span tracer: nested ``perf_counter`` timings of the training loop.

A span covers one phase of work (``epoch``, ``forward``, ``layer``,
``halo_exchange``, ``encode``, ``decode``, ``kernel``, ``server_apply``,
``sampling``...). Spans nest: the tracer keeps a stack, so each finished
span knows its depth and parent, which is what the Chrome-trace exporter
needs to draw the flame graph.

``NullTracer`` is the disabled twin — ``span()`` hands back one shared
no-op context manager, so un-instrumented runs pay a single attribute
lookup and call per site.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

__all__ = ["Span", "SpanTracer", "NullTracer", "monotonic_now"]


def monotonic_now() -> float:
    """Monotonic timestamp in seconds (``time.perf_counter``).

    The single clock used for every span and epoch timing; unlike
    ``time.time`` it can never run backwards under NTP adjustments.
    """
    return time.perf_counter()


@dataclass(frozen=True)
class Span:
    """One finished span, times relative to the tracer's origin."""

    name: str
    start_s: float
    duration_s: float
    depth: int
    parent: int  # opening-order index of the enclosing span, -1 for roots
    index: int  # opening-order index of this span
    attrs: dict = field(default_factory=dict)


class _ActiveSpan:
    """Context manager recording one span on exit; ``duration_s`` holds
    the measured duration afterwards (even if the buffer dropped it)."""

    __slots__ = (
        "_tracer", "_name", "_attrs", "_start", "_parent", "_index",
        "duration_s",
    )

    def __init__(self, tracer: "SpanTracer", name: str, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def __enter__(self):
        tracer = self._tracer
        self._parent = tracer._stack[-1] if tracer._stack else -1
        self._index = tracer._next_index
        tracer._next_index += 1
        tracer._stack.append(self._index)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.duration_s = duration = time.perf_counter() - self._start
        tracer = self._tracer
        tracer._stack.pop()
        if len(tracer._spans) >= tracer.max_spans:
            tracer._drop()
            return False
        tracer._spans.append(Span(
            name=self._name,
            start_s=self._start - tracer.origin,
            duration_s=duration,
            depth=len(tracer._stack),
            parent=self._parent,
            index=self._index,
            attrs=self._attrs,
        ))
        return False


class SpanTracer:
    """Collects nested spans with a bounded in-memory buffer."""

    enabled = True

    def __init__(self, max_spans: int = 500_000, metrics=None):
        if max_spans < 1:
            raise ValueError("max_spans must be >= 1")
        self.origin = time.perf_counter()
        self.max_spans = max_spans
        self.dropped = 0
        # Optional MetricsRegistry mirror: overflow shows up as a
        # ``spans_dropped`` counter next to the other run metrics
        # instead of only on the tracer object.
        self.metrics = metrics
        self._spans: list[Span] = []
        self._stack: list[int] = []
        self._next_index = 0

    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a nested span; use as ``with tracer.span("kernel"): ...``."""
        return _ActiveSpan(self, name, attrs)

    def _drop(self) -> None:
        """Count one span past ``max_spans``; warn once at the first."""
        self.dropped += 1
        if self.dropped == 1:
            warnings.warn(
                f"span buffer full (max_spans={self.max_spans}); further "
                "spans are counted in 'spans_dropped' but not recorded",
                RuntimeWarning,
                stacklevel=4,
            )
        if self.metrics is not None:
            self.metrics.inc("spans_dropped")

    @property
    def spans(self) -> list[Span]:
        """Finished spans, in completion order (children before parents)."""
        return list(self._spans)

    def totals_by_name(self) -> dict[str, tuple[int, float]]:
        """``name -> (count, total seconds)`` over all finished spans."""
        out: dict[str, tuple[int, float]] = {}
        for span in self._spans:
            count, total = out.get(span.name, (0, 0.0))
            out[span.name] = (count + 1, total + span.duration_s)
        return out

    def reset(self) -> None:
        self._spans.clear()
        self._stack.clear()
        self._next_index = 0
        self.dropped = 0
        self.origin = time.perf_counter()


class _NullContext:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """Disabled tracer: every span is the same shared no-op context."""

    enabled = False
    dropped = 0
    max_spans = 0

    def span(self, name: str, **attrs) -> _NullContext:
        return _NULL_CONTEXT

    @property
    def spans(self) -> list[Span]:
        return []

    def totals_by_name(self) -> dict[str, tuple[int, float]]:
        return {}

    def reset(self) -> None:
        """Nothing recorded, nothing to clear."""
