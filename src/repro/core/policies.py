"""Baseline halo-exchange policies: plain compression, the compression
baselines the paper cites, and delayed aggregation.

``CompressPolicy`` is the paper's ``Cp-fp``/``Cp-bp`` configuration —
bucket quantization with *no* compensation. ``Float16Policy``,
``TopKPolicy`` [32] and ``OneBitPolicy`` [31] are the classic
compressors bucket quantization is positioned against; the
codec-comparison benchmark injects them through the trainer's
``fp_policy``/``bp_policy``. ``DelayedPolicy`` reproduces DistGNN's
*delayed remote partial aggregation*: only one of ``r`` round-robin
blocks of each channel is refreshed per iteration; the requester
aggregates stale rows for the rest, trading staleness for traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.cluster import serialize
from repro.compression.quantization import BucketQuantizer
from repro.core.messages import ChannelKey, ChannelMessage, ExchangePolicy

if TYPE_CHECKING:
    from repro.core.bit_tuner import BitTuner
    from repro.core.config import ECGraphConfig

__all__ = [
    "CompressPolicy",
    "DelayedPolicy",
    "Float16Policy",
    "TopKPolicy",
    "OneBitPolicy",
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
            return CompressPolicy(config.fp_bits)
        if mode == "reqec":
            if tuner is None:
                raise ValueError("reqec forward policy requires a BitTuner")
            return ReqECPolicy(
                tuner,
                trend_period=config.trend_period,
                granularity=config.selector_granularity,
            )
        return DelayedPolicy()
    if direction == "bp":
        mode = config.bp_mode
        if mode == "raw":
            return RawPolicy()
        if mode == "compress":
            return CompressPolicy(config.bp_bits)
        if mode == "resec":
            return ResECPolicy(config.bp_bits)
        return DelayedPolicy()
    raise ValueError(f"unknown exchange direction {direction!r}")


class CompressPolicy(ExchangePolicy):
    """Bucket-quantize every message; no error compensation."""

    def __init__(self, bits: int):
        self._quantizer = BucketQuantizer(bits)

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
        rows_mask: np.ndarray | None = None,
    ) -> ChannelMessage:
        quantized = self._quantizer.encode(rows)
        return ChannelMessage(
            kind="quant", frame=serialize.encode_quantized(quantized)
        )

    def receive(
        self, key: ChannelKey, message: ChannelMessage, t: int
    ) -> np.ndarray:
        return serialize.decode_quantized(message.frame).decode()


class Float16Policy(ExchangePolicy):
    """Half-precision truncation — a simple 2x lossy baseline."""

    name = "float16"

    def respond(
        self,
        key: ChannelKey,
        rows: np.ndarray,
        t: int,
        rows_mask: np.ndarray | None = None,
    ) -> ChannelMessage:
        half = np.ascontiguousarray(rows, dtype=np.float16)
        return ChannelMessage(kind="quant", frame=serialize.encode_raw(half))

    def receive(
        self, key: ChannelKey, message: ChannelMessage, t: int
    ) -> np.ndarray:
        rows = serialize.decode_rows(message.frame, half=True)[1]
        return rows.astype(np.float32)


class TopKPolicy(ExchangePolicy):
    """Per-row top-k magnitude sparsification (Stich et al., the paper's
    reference [32]): ships ``(column index, value)`` pairs of the ``k``
    largest-magnitude entries of each row."""

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k

    @property
    def name(self) -> str:
        return f"topk{self.k}"

    def respond(
        self,
        key: ChannelKey,
        rows: np.ndarray,
        t: int,
        rows_mask: np.ndarray | None = None,
    ) -> ChannelMessage:
        data = np.ascontiguousarray(rows, dtype=np.float32)
        if data.ndim != 2:
            raise ValueError("TopKPolicy expects a 2-D matrix")
        num_rows, cols = data.shape
        k = min(self.k, cols)
        if k == cols:
            indices = np.tile(np.arange(cols, dtype=np.int32), (num_rows, 1))
            values = data
        else:
            # argpartition gives the k largest |values| per row in O(cols).
            part = np.argpartition(-np.abs(data), k - 1, axis=1)[:, :k]
            indices = np.sort(part, axis=1).astype(np.int32)
            values = np.take_along_axis(data, indices, axis=1)
        return ChannelMessage(
            kind="quant", frame=serialize.encode_topk(cols, indices, values)
        )

    def receive(
        self, key: ChannelKey, message: ChannelMessage, t: int
    ) -> np.ndarray:
        shape, indices, values = serialize.decode_topk(message.frame)
        out = np.zeros(shape, dtype=np.float32)
        out[np.arange(shape[0])[:, None], indices] = values
        return out


class OneBitPolicy(ExchangePolicy):
    """1-bit quantization (Seide et al., the paper's reference [31]).

    Each element is reduced to its sign; the requester scales signs by
    the mean magnitude of the positive and negative halves respectively,
    the standard reconstruction for 1-bit SGD.
    """

    name = "onebit"

    def respond(
        self,
        key: ChannelKey,
        rows: np.ndarray,
        t: int,
        rows_mask: np.ndarray | None = None,
    ) -> ChannelMessage:
        data = np.ascontiguousarray(rows, dtype=np.float32)
        positive = data >= 0
        pos_mean = float(data[positive].mean()) if positive.any() else 0.0
        neg_mean = float(data[~positive].mean()) if (~positive).any() else 0.0
        frame = serialize.encode_onebit(positive, pos_mean, neg_mean)
        return ChannelMessage(kind="quant", frame=frame)

    def receive(
        self, key: ChannelKey, message: ChannelMessage, t: int
    ) -> np.ndarray:
        signs, pos_mean, neg_mean = serialize.decode_onebit(message.frame)
        return np.where(signs.astype(bool), pos_mean, neg_mean).astype(
            np.float32
        )


class DelayedPolicy(ExchangePolicy):
    """DistGNN-style delayed partial refresh of remote rows.

    Channel state lives on the requesting end: a cache of the last rows
    received per channel vertex. Iteration ``t`` refreshes only the block
    of vertices with ``index % r == t % r`` (raw floats); iteration 0
    ships everything so the cache starts exact. DistGNN uses ``r = 5``.
    """

    def __init__(self, rounds: int = 5):
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
        rows_mask: np.ndarray | None = None,
    ) -> ChannelMessage:
        data = np.ascontiguousarray(rows, dtype=np.float32)
        if t == 0 or key not in self._cache:
            # A full refresh is a plain RAW frame, a block an indexed one.
            return ChannelMessage(kind="raw", frame=serialize.encode_raw(data))
        block = self._block(data.shape[0], t)
        frame = serialize.encode_raw(data[block], index=block)
        return ChannelMessage(kind="raw", frame=frame)

    def receive(
        self, key: ChannelKey, message: ChannelMessage, t: int
    ) -> np.ndarray:
        block, rows = serialize.decode_rows(message.frame, indexed=True)
        if block is None:
            self._cache[key] = rows.copy()
        else:
            cache = self._cache.get(key)
            if cache is None:
                raise RuntimeError(
                    f"delayed channel {key} received a block before any "
                    "full refresh"
                )
            if block.size and not 0 <= block.min() <= block.max() < len(cache):
                raise ValueError(f"delayed channel {key}: block rows outside it")
            cache[block] = rows
        return self._cache[key].copy()

    def reset(self) -> None:
        self._cache.clear()
