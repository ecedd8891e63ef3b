"""Halo-exchange message plumbing shared by all policies.

Every layer of every iteration, each worker pair with cut edges exchanges
one message per direction: embeddings rows in the forward pass, embedding
gradient rows in the backward pass. A *policy* decides what actually
travels (raw floats, quantized buckets, selector-compensated payloads...).

Policies are stateful per :class:`ChannelKey` — one logical channel per
(layer, responder, requester) triple — because the compensation algorithms
keep per-channel memories (trend snapshots, error residuals, stale caches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Protocol

import numpy as np

from repro.compression.quantization import MATRIX_PREFIX_BYTES

__all__ = ["ChannelKey", "ChannelMessage", "ReceiveResult", "ExchangePolicy",
           "RawPolicy"]


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
        payload: Policy-specific content handed to ``receive``.
        nbytes: Exact wire size charged to the traffic meter.
        meta: Free-form extras (e.g. the predicted-selection proportion
            that feeds the Bit-Tuner).

    Policies do not time themselves: the transport times each
    ``respond``/``receive`` call and decides from the payload's frame
    kind how much of it to charge.
    """

    payload: object
    nbytes: int
    meta: dict = field(default_factory=dict)


@dataclass
class ReceiveResult:
    """Decoded rows plus free-form extras."""

    rows: np.ndarray
    meta: dict = field(default_factory=dict)


class ExchangePolicy(Protocol):
    """What a halo-exchange policy must implement.

    ``rows_idx`` supports the sampling trainers: when only a subset of a
    channel's vertices is requested this iteration, it holds their indices
    within the channel's full vertex list so per-row state stays aligned.
    """

    name: str

    def respond(
        self,
        key: ChannelKey,
        rows: np.ndarray,
        t: int,
        rows_idx: np.ndarray | None = None,
    ) -> ChannelMessage: ...

    def receive(
        self,
        key: ChannelKey,
        message: ChannelMessage,
        t: int,
        rows_idx: np.ndarray | None = None,
    ) -> ReceiveResult: ...


class RawPolicy:
    """Uncompressed float32 rows — the paper's ``Non-cp`` configuration."""

    name = "raw"

    def respond(
        self,
        key: ChannelKey,
        rows: np.ndarray,
        t: int,
        rows_idx: np.ndarray | None = None,
    ) -> ChannelMessage:
        data = np.ascontiguousarray(rows, dtype=np.float32)
        return ChannelMessage(
            payload=data, nbytes=MATRIX_PREFIX_BYTES + data.nbytes
        )

    def receive(
        self,
        key: ChannelKey,
        message: ChannelMessage,
        t: int,
        rows_idx: np.ndarray | None = None,
    ) -> ReceiveResult:
        return ReceiveResult(rows=message.payload)

    def reset(self) -> None:
        """Raw exchange is stateless; nothing to clear."""
