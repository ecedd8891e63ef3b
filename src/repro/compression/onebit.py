"""1-bit quantization (Seide et al., the paper's reference [31]).

Each element is reduced to its sign; the decoder scales signs by the mean
magnitude of the positive and negative halves respectively, which is the
standard reconstruction for 1-bit SGD. Included as a baseline codec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.codec import EncodedMatrix
from repro.compression.quantization import (
    FRAME_HEADER_BYTES,
    pack_bits,
    unpack_bits,
)

__all__ = ["OneBitPayload", "OneBitCodec"]


@dataclass
class OneBitPayload:
    """Sign bits plus the two reconstruction magnitudes."""

    shape: tuple[int, ...]
    packed_signs: np.ndarray
    positive_mean: float
    negative_mean: float


class OneBitCodec:
    """Sign quantization with mean-magnitude reconstruction."""

    name = "onebit"

    def encode(self, matrix: np.ndarray) -> EncodedMatrix:
        data = np.ascontiguousarray(matrix, dtype=np.float32)
        flat = data.ravel()
        positive = flat >= 0
        pos_mean = float(flat[positive].mean()) if positive.any() else 0.0
        neg_mean = float(flat[~positive].mean()) if (~positive).any() else 0.0
        packed = pack_bits(positive.astype(np.uint32), 1)
        payload = OneBitPayload(
            shape=data.shape,
            packed_signs=packed,
            positive_mean=pos_mean,
            negative_mean=neg_mean,
        )
        # header + bits + two float32 means
        size = FRAME_HEADER_BYTES + packed.size + 8
        return EncodedMatrix(
            payload=payload,
            payload_bytes=size,
            shape=data.shape,
            codec_name=self.name,
        )

    def decode(self, encoded: EncodedMatrix) -> np.ndarray:
        payload = encoded.payload
        if not isinstance(payload, OneBitPayload):
            raise ValueError(f"not a 1-bit payload: {encoded.codec_name}")
        count = 1
        for dim in payload.shape:
            count *= dim
        signs = unpack_bits(payload.packed_signs, 1, count).astype(bool)
        out = np.where(signs, payload.positive_mean, payload.negative_mean)
        return out.reshape(payload.shape).astype(np.float32)
