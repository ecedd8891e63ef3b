"""Baseline halo-exchange policies: plain compression and delayed
aggregation.

``CompressPolicy`` is the paper's ``Cp-fp``/``Cp-bp`` configuration —
bucket quantization with *no* compensation. ``DelayedPolicy`` reproduces
DistGNN's *delayed remote partial aggregation*: only one of ``r``
round-robin blocks of each channel is refreshed per iteration; the
requester aggregates stale rows for the rest, trading staleness for
traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.compression.quantization import MATRIX_PREFIX_BYTES, BucketQuantizer
from repro.core.messages import (
    ChannelKey,
    ChannelMessage,
    ExchangePolicy,
    ReceiveResult,
)

if TYPE_CHECKING:
    from repro.core.bit_tuner import BitTuner
    from repro.core.config import ECGraphConfig

__all__ = [
    "CompressPolicy",
    "DelayedPolicy",
    "CodecPolicy",
    "make_exchange_policy",
]

def make_exchange_policy(
    direction: str, config: "ECGraphConfig", tuner: "BitTuner | None" = None
) -> ExchangePolicy:
    """Build the halo-exchange policy one direction of ``config`` asks for.

    This is the single mode-to-policy mapping; the trainer's
    :class:`~repro.engine.context.ExchangeContext` consults it for both
    the forward (``fp_mode``) and backward (``bp_mode``) directions.
    ``reqec`` requires the run's :class:`~repro.core.bit_tuner.BitTuner`.
    """
    from repro.core.messages import RawPolicy
    from repro.core.reqec_fp import ReqECPolicy
    from repro.core.resec_bp import ResECPolicy

    if direction == "fp":
        mode = config.fp_mode
        if mode == "raw":
            return RawPolicy()
        if mode == "compress":
            return CompressPolicy(config.fp_bits, config.table_mode)
        if mode == "reqec":
            if tuner is None:
                raise ValueError("reqec forward policy requires a BitTuner")
            return ReqECPolicy(
                tuner,
                trend_period=config.trend_period,
                granularity=config.selector_granularity,
                table_mode=config.table_mode,
            )
        return DelayedPolicy(config.delayed_rounds)
    if direction == "bp":
        mode = config.bp_mode
        if mode == "raw":
            return RawPolicy()
        if mode == "compress":
            return CompressPolicy(config.bp_bits, config.table_mode)
        if mode == "resec":
            return ResECPolicy(config.bp_bits, config.table_mode)
        return DelayedPolicy(config.delayed_rounds)
    raise ValueError(f"unknown exchange direction {direction!r}")


class CompressPolicy(ExchangePolicy):
    """Bucket-quantize every message; no error compensation."""

    def __init__(self, bits: int, table_mode: str = "table"):
        self._quantizer = BucketQuantizer(bits, table_mode)

    @property
    def name(self) -> str:
        return f"compress{self._quantizer.bits}"

    @property
    def bits(self) -> int:
        return self._quantizer.bits

    def respond(
        self,
        key: ChannelKey,
        rows: np.ndarray,
        t: int,
        rows_idx: np.ndarray | None = None,
    ) -> ChannelMessage:
        quantized = self._quantizer.encode(rows)
        return ChannelMessage(
            payload=quantized, nbytes=quantized.payload_bytes()
        )

    def receive(
        self,
        key: ChannelKey,
        message: ChannelMessage,
        t: int,
        rows_idx: np.ndarray | None = None,
    ) -> ReceiveResult:
        return ReceiveResult(rows=message.payload.decode())


class CodecPolicy(ExchangePolicy):
    """Adapt any :class:`repro.compression.codec.Codec` into an exchange
    policy.

    Lets the baseline compressors the paper cites — top-k sparsification
    [32], 1-bit quantization [31], float16 — drive the halo exchange so
    the codec-comparison benchmark can pit them against bucket
    quantization on equal footing.
    """

    def __init__(self, codec):
        self._codec = codec

    @property
    def name(self) -> str:
        return f"codec:{self._codec.name}"

    def respond(
        self,
        key: ChannelKey,
        rows: np.ndarray,
        t: int,
        rows_idx: np.ndarray | None = None,
    ) -> ChannelMessage:
        encoded = self._codec.encode(np.ascontiguousarray(rows,
                                                          dtype=np.float32))
        return ChannelMessage(payload=encoded, nbytes=encoded.payload_bytes)

    def receive(
        self,
        key: ChannelKey,
        message: ChannelMessage,
        t: int,
        rows_idx: np.ndarray | None = None,
    ) -> ReceiveResult:
        return ReceiveResult(rows=self._codec.decode(message.payload))


class DelayedPolicy(ExchangePolicy):
    """DistGNN-style delayed partial refresh of remote rows.

    Channel state lives on the requesting end: a cache of the last rows
    received per channel vertex. Iteration ``t`` refreshes only the block
    of vertices with ``index % r == t % r`` (raw floats); iteration 0
    ships everything so the cache starts exact.
    """

    def __init__(self, rounds: int):
        if rounds < 1:
            raise ValueError("rounds must be >= 1")
        self.rounds = rounds
        self._cache: dict[ChannelKey, np.ndarray] = {}

    @property
    def name(self) -> str:
        return f"delayed{self.rounds}"

    def _block(self, count: int, t: int) -> np.ndarray:
        """Indices refreshed at iteration ``t`` for a ``count``-row channel."""
        return np.arange(count)[np.arange(count) % self.rounds == t % self.rounds]

    def respond(
        self,
        key: ChannelKey,
        rows: np.ndarray,
        t: int,
        rows_idx: np.ndarray | None = None,
    ) -> ChannelMessage:
        data = np.ascontiguousarray(rows, dtype=np.float32)
        if t == 0 or key not in self._cache:
            payload = ("full", data.copy())
            nbytes = MATRIX_PREFIX_BYTES + data.nbytes
        else:
            block = self._block(data.shape[0], t)
            payload = ("block", block, data[block].copy())
            nbytes = MATRIX_PREFIX_BYTES + data[block].nbytes + block.size * 4
        return ChannelMessage(payload=payload, nbytes=nbytes)

    def receive(
        self,
        key: ChannelKey,
        message: ChannelMessage,
        t: int,
        rows_idx: np.ndarray | None = None,
    ) -> ReceiveResult:
        kind = message.payload[0]
        if kind == "full":
            self._cache[key] = message.payload[1].copy()
        else:
            _, block, rows = message.payload
            cache = self._cache.get(key)
            if cache is None:
                raise RuntimeError(
                    f"delayed channel {key} received a block before any "
                    "full refresh"
                )
            cache[block] = rows
        return ReceiveResult(rows=self._cache[key].copy())

    def reset(self) -> None:
        self._cache.clear()
