"""Top-k sparsification (Stich et al., cited by the paper as [32]).

Keeps only the ``k`` largest-magnitude entries per row and ships
``(column index, value)`` pairs. Included as the classic compression
baseline against which bucket quantization is positioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.codec import EncodedMatrix
from repro.compression.quantization import FRAME_HEADER_BYTES

__all__ = ["TopKPayload", "TopKCodec"]


@dataclass
class TopKPayload:
    """Sparse representation: per-row column indices and values."""

    shape: tuple[int, int]
    indices: np.ndarray  # (rows, k) int32
    values: np.ndarray  # (rows, k) float32


class TopKCodec:
    """Per-row top-k magnitude sparsification."""

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k

    @property
    def name(self) -> str:
        return f"topk{self.k}"

    def encode(self, matrix: np.ndarray) -> EncodedMatrix:
        data = np.ascontiguousarray(matrix, dtype=np.float32)
        if data.ndim != 2:
            raise ValueError("TopKCodec expects a 2-D matrix")
        rows, cols = data.shape
        k = min(self.k, cols)
        if k == cols:
            indices = np.tile(np.arange(cols, dtype=np.int32), (rows, 1))
            values = data.copy()
        else:
            # argpartition gives the k largest |values| per row in O(cols).
            part = np.argpartition(-np.abs(data), k - 1, axis=1)[:, :k]
            indices = np.sort(part, axis=1).astype(np.int32)
            values = np.take_along_axis(data, indices, axis=1)
        payload = TopKPayload(shape=(rows, cols), indices=indices, values=values)
        # Each kept entry travels as (int32 index, float32 value).
        size = FRAME_HEADER_BYTES + indices.nbytes + values.nbytes
        return EncodedMatrix(
            payload=payload,
            payload_bytes=size,
            shape=data.shape,
            codec_name=self.name,
        )

    def decode(self, encoded: EncodedMatrix) -> np.ndarray:
        payload = encoded.payload
        if not isinstance(payload, TopKPayload):
            raise ValueError(f"not a top-k payload: {encoded.codec_name}")
        out = np.zeros(payload.shape, dtype=np.float32)
        rows = np.arange(payload.shape[0])[:, None]
        out[rows, payload.indices] = payload.values
        return out
