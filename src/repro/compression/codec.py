"""Codec interface: every matrix message goes through one of these.

A codec turns a float32 matrix into an :class:`EncodedMatrix` with an
exact wire-size in bytes, and back. The cluster's traffic meter charges
``payload_bytes`` for every message, so wire size — not a modelled
estimate — is what the communication-time model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.compression.quantization import (
    MATRIX_PREFIX_BYTES,
    BucketQuantizer,
    QuantizedMatrix,
)

__all__ = ["EncodedMatrix", "Codec", "IdentityCodec", "Float16Codec",
           "QuantizingCodec"]


@dataclass
class EncodedMatrix:
    """An encoded matrix plus its exact wire size."""

    payload: object
    payload_bytes: int
    shape: tuple[int, ...]
    codec_name: str


class Codec(Protocol):
    """Matrix encoder/decoder with byte-accurate size accounting."""

    name: str

    def encode(self, matrix: np.ndarray) -> EncodedMatrix: ...

    def decode(self, encoded: EncodedMatrix) -> np.ndarray: ...


class IdentityCodec:
    """No compression: raw float32, the paper's ``Non-cp`` configuration."""

    name = "identity"

    def encode(self, matrix: np.ndarray) -> EncodedMatrix:
        data = np.ascontiguousarray(matrix, dtype=np.float32)
        return EncodedMatrix(
            payload=data,
            payload_bytes=MATRIX_PREFIX_BYTES + data.nbytes,
            shape=data.shape,
            codec_name=self.name,
        )

    def decode(self, encoded: EncodedMatrix) -> np.ndarray:
        if encoded.codec_name != self.name:
            raise ValueError(f"not an identity payload: {encoded.codec_name}")
        return encoded.payload


class Float16Codec:
    """Half-precision truncation — a simple 2x lossy baseline."""

    name = "float16"

    def encode(self, matrix: np.ndarray) -> EncodedMatrix:
        data = np.ascontiguousarray(matrix, dtype=np.float16)
        return EncodedMatrix(
            payload=data,
            payload_bytes=MATRIX_PREFIX_BYTES + data.nbytes,
            shape=data.shape,
            codec_name=self.name,
        )

    def decode(self, encoded: EncodedMatrix) -> np.ndarray:
        if encoded.codec_name != self.name:
            raise ValueError(f"not a float16 payload: {encoded.codec_name}")
        return encoded.payload.astype(np.float32)


class QuantizingCodec:
    """Bucket quantization behind the codec interface.

    The bit width is mutable on purpose: the Bit-Tuner adjusts ``bits``
    between iterations and the next ``encode`` picks it up.
    """

    def __init__(self, bits: int, table_mode: str = "table"):
        self._table_mode = table_mode
        self._quantizer = BucketQuantizer(bits, table_mode)

    @property
    def name(self) -> str:
        return f"quant{self._quantizer.bits}"

    @property
    def bits(self) -> int:
        return self._quantizer.bits

    @bits.setter
    def bits(self, value: int) -> None:
        if value != self._quantizer.bits:
            self._quantizer = BucketQuantizer(value, self._table_mode)

    def encode(
        self,
        matrix: np.ndarray,
        lo: float | None = None,
        hi: float | None = None,
    ) -> EncodedMatrix:
        quantized: QuantizedMatrix = self._quantizer.encode(matrix, lo=lo, hi=hi)
        return EncodedMatrix(
            payload=quantized,
            payload_bytes=quantized.payload_bytes(),
            shape=quantized.shape,
            codec_name=self.name,
        )

    def decode(self, encoded: EncodedMatrix) -> np.ndarray:
        if not isinstance(encoded.payload, QuantizedMatrix):
            raise ValueError(f"not a quantized payload: {encoded.codec_name}")
        return encoded.payload.decode()
