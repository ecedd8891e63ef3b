"""ResEC-BP: responding-end error compensation for the backward pass
(paper section IV-C, Algorithms 5 and 6, Eqs. 11-12).

Classic error feedback applied to embedding-gradient messages: the
responding worker keeps, per channel, the residual ``delta`` left by the
previous iteration's quantization. Before compressing this iteration's
gradient rows it adds the residual back (Eq. 12), quantizes the
compensated rows — computing fresh (min, max) bounds first, since
gradients are not confined to a unit ball (Algorithm 6 lines 4-5) — and
stores the new residual (Eq. 11):

    delta_t = (G_t + delta_{t-1}) - C_bit[G_t + delta_{t-1}]

Over iterations the quantization errors telescope instead of compounding,
which is what Theorem 1 bounds.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.serialize import decode_quantized, encode_quantized
from repro.compression.quantization import BucketQuantizer, QuantizedMatrix
from repro.core.messages import ChannelKey, ChannelMessage, ExchangePolicy

__all__ = ["ResECPolicy"]


class ResECPolicy(ExchangePolicy):
    """Backward-pass exchange with responding-end error feedback."""

    def __init__(self, bits: int):
        self._quantizer = BucketQuantizer(bits)
        self._residual: dict[ChannelKey, np.ndarray] = {}

    @property
    def name(self) -> str:
        return f"resec{self._quantizer.bits}"

    @property
    def bits(self) -> int:
        return self._quantizer.bits

    def residual_norm(self, key: ChannelKey) -> float:
        """L2 norm of the stored residual (Theorem 1 instrumentation)."""
        residual = self._residual.get(key)
        return float(np.linalg.norm(residual)) if residual is not None else 0.0

    def residual_bytes(self, worker: int) -> int:
        """Bytes of the residuals ``worker`` keeps as a responding end."""
        return sum(
            residual.nbytes for key, residual in self._residual.items()
            if key.responder == worker
        )

    def respond(
        self,
        key: ChannelKey,
        rows: np.ndarray,
        t: int,
        rows_mask: np.ndarray | None = None,
    ) -> ChannelMessage:
        rows = np.ascontiguousarray(rows, dtype=np.float32)
        residual = self._residual.get(key)
        if rows_mask is None:
            if residual is None or residual.shape != rows.shape:
                residual = np.zeros_like(rows)
            compensated = rows + residual
            quantized, residual = self._quantize(compensated)
            self._residual[key] = residual
        else:
            # Sampled training: residual state spans the channel's full
            # vertex list; only the masked rows participate this round.
            if residual is None:
                residual = self._residual[key] = np.zeros(
                    (rows_mask.size, rows.shape[1]), dtype=np.float32
                )
            compensated = rows + residual[rows_mask]
            quantized, residual[rows_mask] = self._quantize(compensated)
        if self.health is not None:
            # The full-channel residual is what Theorem 1 bounds.
            self.health.record_residual(
                key.layer,
                float(np.linalg.norm(residual)),
                float(np.linalg.norm(rows)),
                self._quantizer.bits,
            )
        return ChannelMessage(kind="quant", frame=encode_quantized(quantized))

    def _quantize(
        self, compensated: np.ndarray
    ) -> tuple[QuantizedMatrix, np.ndarray]:
        """Quantize the compensated rows; returns the wire matrix and the
        new residual ``compensated - C_bit[compensated]`` (Eq. 11).

        The dequantized rows come from :meth:`QuantizedMatrix.decode`,
        which gathers one packed byte at a time at widths below a byte
        (bit-equal to gathering the ids, in under half the time); the
        residual overwrites them.
        """
        quantizer = self._quantizer
        ids, reps, lo, hi = quantizer.encode_ids(compensated)
        quantized = quantizer.from_ids(ids, compensated.shape, reps, lo, hi)
        residual = quantized.decode()
        np.subtract(compensated, residual, out=residual)
        return quantized, residual

    def receive(
        self, key: ChannelKey, message: ChannelMessage, t: int
    ) -> np.ndarray:
        return decode_quantized(message.frame).decode()

    # ------------------------------------------------------------------
    # Fault tolerance (driven by the NAC)
    # ------------------------------------------------------------------
    def on_delivery_failure(
        self,
        key: ChannelKey,
        message: ChannelMessage,
        rows_mask: np.ndarray | None = None,
    ) -> bool:
        """Fold an undeliverable gradient into the channel residual.

        Error feedback makes drop tolerance nearly free: the decoded
        payload the requester never received is added to ``delta``, so
        the next iteration's compensated message re-ships the lost
        information instead of silently discarding it (the same
        telescoping argument as Eq. 11).
        """
        lost = decode_quantized(message.frame).decode()
        residual = self._residual.get(key)
        if rows_mask is None:
            if residual is None or residual.shape != lost.shape:
                self._residual[key] = lost.astype(np.float32)
            else:
                residual += lost
        else:
            # respond allocated the full-channel residual.
            residual[rows_mask] += lost
        return True

    # ------------------------------------------------------------------
    # Elastic membership (driven by the PartitionReassigner)
    # ------------------------------------------------------------------
    def export_residuals(
        self, workers
    ) -> list[tuple[ChannelKey, np.ndarray]]:
        """Remove and return residuals on channels touching ``workers``.

        Used on membership change: channels touching a worker whose
        vertex set moved no longer exist, but their residuals are queued
        gradient information — the reassigner remaps the rows onto the
        replacement channels instead of silently dropping the gap. Keys
        come out sorted so the carry is deterministic.
        """
        targets = set(workers)
        stale = sorted(
            key for key in self._residual
            if key.responder in targets or key.requester in targets
        )
        return [(key, self._residual.pop(key)) for key in stale]

    def seed_residual(self, key: ChannelKey, residual: np.ndarray) -> None:
        """Install a carried residual on a (possibly new) channel."""
        self._residual[key] = np.ascontiguousarray(
            residual, dtype=np.float32
        )

    def invalidate_worker(self, worker: int) -> None:
        """Zero the residuals on channels touching ``worker`` (crash
        recovery): the rebuilt process
        starts with ``delta = 0``, exactly the Theorem-1 initial state.

        Zeroed in place, not dropped, so a partition move still carries
        the channel's full-channel rows; a respond adds the same zeros a
        missing residual would have been allocated as.
        """
        for key, residual in self._residual.items():
            if worker in (key.responder, key.requester):
                residual.fill(0.0)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        self._residual.clear()
