"""Spans recorded from outside the program, around the calls into each layer.

The traced pass wraps bound attributes of a live trainer's object graph
(stage ``run`` methods, the transport's ``exchange``, the policies'
``respond``/``receive``, the parameter servers, the executor's kernel
rounds). Every wrapped call appends one ``[name, start, end, parent]``
record to an in-memory list; nothing is written until the run ends. A
layer's self time is its span minus the part its child spans cover.

A wrap point that no longer resolves is remembered in ``missing`` and
its metrics read 0 — renaming an internal must not fail the benchmark.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

__all__ = [
    "Tracer", "install", "new_counters", "STAGE_SPANS", "ROUND_SPANS",
    "POLICY_SPANS", "EXCHANGE_SPANS",
]

_END = 2  # index into a [name, start, end, parent] record

# Span names, each ``<prefix>.<attribute wrapped>``.
STAGE_SPANS = tuple(
    f"engine.{s}" for s in ("halo_plan", "forward", "backward", "optimize", "eval")
)
ROUND_SPANS = tuple(
    f"executor.{r}" for r in
    ("forward_kernels", "backward_local", "backward_reduce", "loss_scan")
)
POLICY_SPANS = tuple(
    f"core.{d}_{op}" for d in ("fp", "bp") for op in ("respond", "receive")
)
EXCHANGE_SPANS = ("engine.exchange_fp", "engine.exchange_bp")
_SERVER_CALLS = (("pull", "ps_pull"), ("push", "ps_push"),
                 ("apply_updates", "ps_apply"))
_CATEGORY_SPAN = dict(zip(("fp_embeddings", "bp_gradients"), EXCHANGE_SPANS))


class Tracer:
    """In-memory span log with parent links (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[_END] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | Callable[[dict], str],
        after: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` may be computed from the call's keyword arguments;
        ``after`` sees ``(args, result)`` outside the span, for counters.
        """
        target = getattr(owner, attr, None)
        if not callable(target):
            self.missing.append(name if isinstance(name, str) else attr)
            return

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name if isinstance(name, str) else name(kwargs)):
                result = target(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)

    # ------------------------------------------------------------------
    def per_root(self, root_name: str = "epoch") -> list[dict[str, dict[str, float]]]:
        """Per root span: ``{name: {total, self, calls}}`` of everything
        beneath it (the root itself is included under its own name)."""
        child_time = [0.0] * len(self.spans)
        root_of = [-1] * len(self.spans)
        for index, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                root_of[index] = root_of[parent]
            elif name == root_name:
                root_of[index] = index
        tables: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"total": 0.0, "self": 0.0, "calls": 0})
        )
        for index, (name, start, end, _) in enumerate(self.spans):
            if root_of[index] < 0:
                continue
            row = tables[root_of[index]][name]
            row["total"] += end - start
            row["self"] += end - start - child_time[index]
            row["calls"] += 1
        return [
            {name: dict(row) for name, row in tables[root].items()}
            for root in sorted(tables)
        ]

    def dump_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent,
                }) + "\n")


def install(tracer: Tracer, trainer: object, counters: dict[str, Any]) -> None:
    """Wrap every layer boundary reachable from a set-up ``trainer``.

    ``counters`` collects what the spans cannot: wire bytes and element
    counts per direction, and ReqEC's predicted-row tally.
    """
    engine = getattr(trainer, "engine", None)
    ctx = getattr(engine, "ctx", None)
    for span in STAGE_SPANS:
        stage = getattr(engine, span.split(".")[1], None)
        tracer.wrap(stage, "run", span)

    def exchange_name(kwargs: dict) -> str:
        return _CATEGORY_SPAN.get(kwargs.get("category"), "engine.exchange_other")

    tracer.wrap(getattr(ctx, "transport", None), "exchange", exchange_name)

    for direction in ("fp", "bp"):
        policy = getattr(ctx, f"{direction}_policy", None)

        def tally(args: tuple, message: Any, _d: str = direction) -> None:
            # respond(key, rows, t): rows is what the message stands for.
            rows = args[1]
            counters[f"{_d}_bytes"] += int(message.nbytes)
            counters[f"{_d}_elements"] += int(rows.size)
            counters["pairs"].add(args[0].pair)
            proportion = message.meta.get("proportion")
            if proportion is not None:
                counters["reqec_rows"] += int(rows.shape[0])
                counters["reqec_predicted_rows"] += proportion * rows.shape[0]

        tracer.wrap(policy, "respond", f"core.{direction}_respond", after=tally)
        tracer.wrap(policy, "receive", f"core.{direction}_receive")

    servers = getattr(ctx, "servers", None)
    for attr, label in _SERVER_CALLS:
        tracer.wrap(servers, attr, f"cluster.{label}")
    executor = getattr(ctx, "executor", None)
    for span in ROUND_SPANS:
        tracer.wrap(executor, span.split(".")[1], span)


def new_counters() -> dict[str, Any]:
    return {
        "fp_bytes": 0, "fp_elements": 0, "bp_bytes": 0, "bp_elements": 0,
        "reqec_rows": 0, "reqec_predicted_rows": 0.0, "pairs": set(),
    }
