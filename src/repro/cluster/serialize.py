"""Binary wire format for every message the cluster exchanges.

The traffic meter charges sizes that the codecs *compute*; this module
provides the actual serialization (the stand-in for the original
system's protobuf layer) so those computed sizes can be validated
against real encoded bytes — tests assert the two agree. It also makes
the simulator honest about framing overhead: every frame carries a
16-byte header (magic, kind, flags, payload length).

Supported payload kinds:

* ``RAW``      — float32 matrix,
* ``QUANT``    — bucket-quantized matrix (bucket table + packed ids; flag
  bit 0 says the table is present and must be set),
* ``EXACT``    — ReqEC-FP trend message (exact rows; flag bit 0 says the
  changing rate derives from the previously delivered snapshot),
* ``SELECTOR`` — ReqEC-FP selector message (2-bit selector + quantized
  subset + proportion).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression.quantization import (
    FRAME_HEADER_BYTES,
    SHAPE_WORD_BYTES,
    SUPPORTED_BITS,
    QuantizedMatrix,
)

__all__ = [
    "HEADER_BYTES",
    "encode_raw",
    "decode_raw",
    "encode_quantized",
    "decode_quantized",
    "encode_exact",
    "decode_exact",
    "encode_selector",
    "decode_selector",
]

HEADER_BYTES = FRAME_HEADER_BYTES
_MAGIC = 0xEC6A
_KIND_RAW = 1
_KIND_QUANT = 2
_KIND_EXACT = 3
_KIND_SELECTOR = 4

_HEADER = struct.Struct("<HHIQ")  # magic, kind, flags, payload length


def _frame(kind: int, payload: bytes, flags: int = 0) -> bytes:
    return _HEADER.pack(_MAGIC, kind, flags, len(payload)) + payload


def _unframe(frame: bytes, expected_kind: int) -> tuple[bytes, int]:
    if len(frame) < HEADER_BYTES:
        raise ValueError("frame shorter than header")
    magic, kind, flags, length = _HEADER.unpack_from(frame)
    if magic != _MAGIC:
        raise ValueError(f"bad magic 0x{magic:04X}")
    if kind != expected_kind:
        raise ValueError(f"expected kind {expected_kind}, got {kind}")
    payload = frame[HEADER_BYTES:HEADER_BYTES + length]
    if len(payload) != length:
        raise ValueError("truncated frame")
    return payload, flags


def _pack_shape(shape: tuple[int, ...]) -> bytes:
    if len(shape) > 2:
        raise ValueError("wire format supports at most 2-D matrices")
    if len(shape) == 2 and shape[1] == 0:
        # cols == 0 is how the shape word spells a 1-D shape.
        raise ValueError(f"wire format cannot carry a zero-column shape {shape}")
    rows = shape[0] if len(shape) >= 1 else 0
    cols = shape[1] if len(shape) == 2 else 0
    return struct.pack("<II", rows, cols)


def _unpack_shape(buffer: bytes, offset: int) -> tuple[tuple[int, ...], int]:
    if len(buffer) < offset + SHAPE_WORD_BYTES:
        raise ValueError("frame payload too short for its shape word")
    rows, cols = struct.unpack_from("<II", buffer, offset)
    shape = (rows,) if cols == 0 else (rows, cols)
    return shape, offset + SHAPE_WORD_BYTES


def _shape_elements(shape: tuple[int, ...]) -> int:
    count = 1
    for dim in shape:
        count *= dim
    return count


def _float_rows(payload: bytes, kind: str) -> np.ndarray:
    """The shape word and float32 rows a RAW or EXACT payload holds; a
    payload that is not exactly that long is a wire-format error."""
    shape, offset = _unpack_shape(payload, 0)
    expected = offset + _shape_elements(shape) * 4
    if len(payload) != expected:
        raise ValueError(
            f"{kind} frame payload holds {len(payload)} bytes but shape "
            f"{shape} needs exactly {expected}"
        )
    rows = np.frombuffer(payload, dtype=np.float32, offset=offset)
    return rows.reshape(shape).copy()


# ----------------------------------------------------------------------
# RAW
# ----------------------------------------------------------------------
def encode_raw(matrix: np.ndarray) -> bytes:
    """Frame a float32 matrix."""
    data = np.ascontiguousarray(matrix, dtype=np.float32)
    return _frame(_KIND_RAW, _pack_shape(data.shape) + data.tobytes())


def decode_raw(frame: bytes) -> np.ndarray:
    """Decode a RAW frame; any flag bit or a payload that is not exactly
    shape word + ``rows * cols`` float32 values is a wire-format
    ``ValueError``."""
    payload, flags = _unframe(frame, _KIND_RAW)
    if flags:
        raise ValueError(f"RAW frame carries unknown flag bits 0x{flags:X}")
    return _float_rows(payload, "RAW")


# ----------------------------------------------------------------------
# QUANT
# ----------------------------------------------------------------------
def encode_quantized(quantized: QuantizedMatrix) -> bytes:
    """Frame a bucket-quantized matrix: the bucket representatives ship
    explicitly (paper Fig. 3), announced by flag bit 0."""
    parts = [
        _pack_shape(quantized.shape),
        struct.pack("<Bff", quantized.bits, quantized.lo, quantized.hi),
        quantized.bucket_values.astype(np.float32).tobytes(),
        np.ascontiguousarray(quantized.packed).tobytes(),
    ]
    return _frame(_KIND_QUANT, b"".join(parts), flags=1)


def decode_quantized(frame: bytes) -> QuantizedMatrix:
    """Decode a QUANT frame, validating every length against its header.

    A corrupted frame (the fault-injection path flips wire bytes) must
    surface as a wire-format ``ValueError``, never as a bare numpy
    buffer error: the flags must be exactly bit 0 (bucket table
    present), the bit width must be one of ``SUPPORTED_BITS``, the bucket
    table must be fully present, and the packed-id buffer must hold *exactly*
    ``ceil(shape_elements * bits / 8)`` bytes.
    """
    payload, flags = _unframe(frame, _KIND_QUANT)
    if flags != 1:
        raise ValueError(
            f"QUANT frame flags 0x{flags:X}: bit 0 (bucket table) must be "
            "the only one set"
        )
    shape, offset = _unpack_shape(payload, 0)
    meta = struct.calcsize("<Bff")
    if len(payload) < offset + meta:
        raise ValueError("QUANT frame truncated before bits/lo/hi metadata")
    bits, lo, hi = struct.unpack_from("<Bff", payload, offset)
    offset += meta
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"QUANT frame carries invalid bit width {bits}")
    buckets = 1 << bits
    if len(payload) - offset < buckets * 4:
        raise ValueError(
            f"QUANT frame truncated: bucket table needs {buckets * 4} "
            f"bytes, {len(payload) - offset} remain"
        )
    table = np.frombuffer(
        payload, dtype=np.float32, count=buckets, offset=offset
    ).copy()
    offset += buckets * 4
    expected = (_shape_elements(shape) * bits + 7) // 8
    remaining = len(payload) - offset
    if remaining != expected:
        raise ValueError(
            f"QUANT frame packed ids hold {remaining} bytes but shape "
            f"{shape} at {bits} bits needs exactly {expected}"
        )
    packed = np.frombuffer(payload, dtype=np.uint8, offset=offset).copy()
    return QuantizedMatrix(
        shape=shape, bits=bits, packed=packed, lo=lo, hi=hi,
        bucket_values=table,
    )


# ----------------------------------------------------------------------
# EXACT (ReqEC-FP trend boundary)
# ----------------------------------------------------------------------
def encode_exact(rows: np.ndarray, has_base: bool) -> bytes:
    """Frame the exact embeddings of a trend boundary. ``M_cr`` is not
    shipped: flag bit 0 (``has_base``) tells the requester to derive it
    from the snapshot it already holds; clear, it starts from zeros."""
    data = np.ascontiguousarray(rows, dtype=np.float32)
    return _frame(
        _KIND_EXACT, _pack_shape(data.shape) + data.tobytes(),
        flags=int(bool(has_base)),
    )


def decode_exact(frame: bytes) -> tuple[np.ndarray, bool]:
    """Decode an EXACT frame into ``(rows, has_base)``; an unknown flag
    bit or a payload that is not exactly shape word + ``rows * cols``
    float32 values is a wire-format ``ValueError``."""
    payload, flags = _unframe(frame, _KIND_EXACT)
    if flags & ~1:
        raise ValueError(f"EXACT frame carries unknown flag bits 0x{flags:X}")
    return _float_rows(payload, "EXACT"), bool(flags)


# ----------------------------------------------------------------------
# SELECTOR (ReqEC-FP in-group message)
# ----------------------------------------------------------------------
def encode_selector(
    selection: np.ndarray,
    quantized: QuantizedMatrix,
    proportion: float,
) -> bytes:
    """Frame a Selector message: 2-bit ids + quantized subset + stats."""
    from repro.compression.quantization import pack_bits

    packed_sel = pack_bits(selection, 2)
    quant_frame = encode_quantized(quantized)
    payload = (
        _pack_shape(selection.shape)
        + struct.pack("<fI", proportion, packed_sel.size)
        + packed_sel.tobytes()
        + quant_frame
    )
    return _frame(_KIND_SELECTOR, payload)


def decode_selector(frame: bytes) -> tuple[np.ndarray, QuantizedMatrix, float]:
    """Decode a SELECTOR frame, bounds-checking the embedded lengths.

    The flags must be clear, and the ``sel_bytes`` field is untrusted
    wire data: it must equal the exact 2-bit-packed size the selection
    shape implies and fit inside the payload, or the frame is rejected as
    corrupt.
    """
    from repro.compression.quantization import unpack_bits

    payload, flags = _unframe(frame, _KIND_SELECTOR)
    if flags:
        raise ValueError(
            f"SELECTOR frame carries unknown flag bits 0x{flags:X}"
        )
    shape, offset = _unpack_shape(payload, 0)
    meta = struct.calcsize("<fI")
    if len(payload) < offset + meta:
        raise ValueError("SELECTOR frame truncated before its metadata")
    proportion, sel_bytes = struct.unpack_from("<fI", payload, offset)
    offset += meta
    count = _shape_elements(shape)
    expected = (2 * count + 7) // 8
    if sel_bytes != expected:
        raise ValueError(
            f"SELECTOR frame claims {sel_bytes} selector bytes but shape "
            f"{shape} needs exactly {expected}"
        )
    if len(payload) - offset < sel_bytes:
        raise ValueError(
            f"SELECTOR frame truncated: selector needs {sel_bytes} bytes, "
            f"{len(payload) - offset} remain"
        )
    packed_sel = np.frombuffer(
        payload, dtype=np.uint8, count=sel_bytes, offset=offset
    )
    offset += sel_bytes
    selection = unpack_bits(packed_sel, 2, count).reshape(shape)
    quantized = decode_quantized(payload[offset:])
    return selection, quantized, float(proportion)
