"""Halo-exchange message plumbing shared by all policies.

Every layer of every iteration, each worker pair with cut edges exchanges
one message per direction: embeddings rows in the forward pass, embedding
gradient rows in the backward pass. A *policy* decides what actually
travels (raw floats, quantized buckets, selector-compensated payloads...).

Policies are stateful per :class:`ChannelKey` — one logical channel per
(layer, responder, requester) triple — because the compensation algorithms
keep per-channel memories (trend snapshot bits over per-vertex tables,
error residuals, stale caches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.cluster.serialize import Frame, decode_raw, encode_raw

__all__ = ["ChannelKey", "ChannelMessage", "ExchangePolicy", "RawPolicy"]


class ChannelKey(NamedTuple):
    """Identifies one logical exchange channel."""

    layer: int
    responder: int
    requester: int

    @property
    def pair(self) -> tuple[int, int]:
        """The (responder, requester) worker pair, layer-independent."""
        return (self.responder, self.requester)


@dataclass
class ChannelMessage:
    """One message as produced by a responding worker.

    Attributes:
        kind: The frame kind, one of the ledger's four: ``raw`` float32
            rows, ``quant`` compressed rows, ``exact`` ReqEC-FP boundary
            rows or a ReqEC-FP ``selector`` message. The ledger counts
            the frame under it and the transport's codec charge reads it.
        frame: The wire frame a ``cluster/serialize.py`` encoder built;
            ``receive`` parses it with the matching decoder.
        meta: Free-form extras for instrumentation, never sent or read
            by the program (ReqEC-FP's predicted-selection proportion,
            which ``bench/tracer.py`` tallies). The Bit-Tuner's input
            comes from the frame: :meth:`ExchangePolicy.predicted_share`.

    Policies do not time themselves: the transport times each
    ``respond``/``receive`` call.
    """

    kind: str
    frame: Frame
    meta: dict = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Wire size charged to the traffic meter: the frame's length."""
        return len(self.frame)


class ExchangePolicy:
    """Base class of every halo-exchange policy.

    A policy implements ``respond``/``receive``. The engine drives fault
    tolerance, elastic membership and telemetry through the hooks below
    on any policy; their defaults are those of a stateless one.

    ``rows_mask`` supports sampled training: when only a subset of a
    channel's vertices is requested this iteration, it is a boolean
    mask over the channel's full vertex list (``rows`` holds the masked
    rows in ascending order), so per-row state stays aligned.
    """

    name: str
    # The trainer attaches its CompressionHealthMonitor when telemetry is
    # on; the compensating policies sample their outcomes into it.
    health = None

    def respond(
        self,
        key: ChannelKey,
        rows: np.ndarray,
        t: int,
        rows_mask: np.ndarray | None = None,
    ) -> ChannelMessage:
        raise NotImplementedError

    def receive(
        self, key: ChannelKey, message: ChannelMessage, t: int
    ) -> np.ndarray:
        """The decoded float32 rows of ``message``."""
        raise NotImplementedError

    def predicted_share(self, message: ChannelMessage) -> float | None:
        """The share of ``message``'s entries the requester predicts —
        the Bit-Tuner's input for its worker pair — read from its frame;
        None: the message feeds no tuner."""
        return None

    def reset(self) -> None:
        """Drop all per-channel state (between independent runs)."""

    def invalidate_worker(self, worker: int) -> None:
        """Reset the channel state touching ``worker`` (crash recovery,
        partition moves)."""

    def on_delivery_failure(
        self,
        key: ChannelKey,
        message: ChannelMessage,
        rows_mask: np.ndarray | None = None,
    ) -> bool:
        """A message never arrived; True when the policy compensated."""
        return False

    def fallback_rows(self, key: ChannelKey, t: int) -> np.ndarray | None:
        """Requester-side stand-in rows for an undelivered forward
        message (None: no estimate)."""
        return None

    def export_residuals(
        self, workers
    ) -> list[tuple[ChannelKey, np.ndarray]]:
        """Remove and return the error-feedback residuals on channels
        touching ``workers`` (a partition move carries them over)."""
        return []

    def seed_residual(self, key: ChannelKey, residual: np.ndarray) -> None:
        """Install a carried residual on a (possibly new) channel."""


class RawPolicy(ExchangePolicy):
    """Uncompressed float32 rows — the paper's ``Non-cp`` configuration."""

    name = "raw"

    def respond(
        self,
        key: ChannelKey,
        rows: np.ndarray,
        t: int,
        rows_mask: np.ndarray | None = None,
    ) -> ChannelMessage:
        return ChannelMessage(kind="raw", frame=encode_raw(rows))

    def receive(
        self, key: ChannelKey, message: ChannelMessage, t: int
    ) -> np.ndarray:
        return decode_raw(message.frame)
