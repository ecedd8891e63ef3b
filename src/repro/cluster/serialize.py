"""The wire format: every message the cluster exchanges is a frame here.

A policy's ``respond`` builds its message with an encoder below and its
``receive`` parses it with the matching decoder, so the size the traffic
meter charges is the length of a real frame; nothing else in ``src/``
sizes a message. (It stands in for the original system's protobuf
layer.) A :class:`Frame` is scatter-gather, as an RPC layer sends it:
the header bytes, then byte views of the payload arrays, never a copy;
the decoders read the same buffers back as array views. Every frame
opens with a 16-byte header (magic, kind, flags, payload length), and a
matrix payload with an 8-byte shape word (rows, cols; cols 0 spells a
vector). The kinds, and what their flag bits say:

* ``RAW``      — float32 rows; bit 0: float16 rows, bit 1: an indexed
  block, its int32 row ids first;
* ``QUANT``    — bucket-quantized matrix: bits, lo, hi, the bucket table
  and the packed ids; bit 0 (the table is present) must be set;
* ``EXACT``    — ReqEC-FP trend boundary rows; bit 0: ``M_cr`` derives
  from the previously delivered snapshot;
* ``SELECTOR`` — ReqEC-FP in-group message: proportion, 2-bit selector,
  then a nested QUANT frame of the rows not predicted;
* ``TOPK``     — int32 column ids, then float32 values, of each row's k
  kept entries; the flags word is k;
* ``ONEBIT``   — the positive and negative means, then a sign bit per
  element.

Decoders check every length against the header and the shape word: a
damaged frame raises ``ValueError``, never a numpy or struct error.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from repro.compression.quantization import (
    SUPPORTED_BITS,
    QuantizedMatrix,
    _pack_ids,
    packed_size,
    unpack_bits,
)

__all__ = [
    "FRAME_HEADER_BYTES", "SHAPE_WORD_BYTES", "MATRIX_PREFIX_BYTES",
    "Frame",
    "encode_raw", "decode_raw", "decode_rows",
    "encode_quantized", "decode_quantized",
    "encode_exact", "decode_exact",
    "encode_selector", "decode_selector",
    "encode_topk", "decode_topk",
    "encode_onebit", "decode_onebit",
]

_MAGIC = 0xEC6A
_KIND_RAW = 1
_KIND_QUANT = 2
_KIND_EXACT = 3
_KIND_SELECTOR = 4
_KIND_TOPK = 5
_KIND_ONEBIT = 6
_HALF = 1  # RAW: float16 rows
_INDEXED = 2  # RAW: int32 row ids before the rows

_HEADER = struct.Struct("<HHIQ")  # magic, kind, flags, payload length
_SHAPE = struct.Struct("<II")  # rows, cols
_QUANT_META = struct.Struct("<Bff")  # bits, lo, hi
_SELECTOR_META = struct.Struct("<fI")  # proportion, selector bytes
_MEANS = struct.Struct("<ff")  # ONEBIT: positive, negative mean

FRAME_HEADER_BYTES = _HEADER.size
SHAPE_WORD_BYTES = _SHAPE.size
MATRIX_PREFIX_BYTES = FRAME_HEADER_BYTES + SHAPE_WORD_BYTES


class Frame:
    """One frame as the buffers a scatter-gather send hands the network:
    the header bytes, then a byte view of each payload array. ``len()``
    is its size in bytes, ``size``; ``bytes()`` joins it (a copy)."""

    __slots__ = ("parts", "_size")

    def __init__(self, parts: tuple, size: int):
        self.parts = parts
        self._size = size

    def __len__(self) -> int:
        return self._size

    def __bytes__(self) -> bytes:
        return b"".join(self.parts)


def _frame(kind: int, flags: int, head: bytes, *bodies) -> Frame:
    """``head`` (the payload's fixed fields), then ``bodies`` — arrays,
    each shared as a byte view, or nested frames — under one header."""
    parts = []
    for body in bodies:
        if isinstance(body, Frame):
            parts.extend(body.parts)
        else:
            parts.append(memoryview(body.reshape(-1).view(np.uint8)))
    length = len(head) + sum(map(len, parts))
    header = _HEADER.pack(_MAGIC, kind, flags, length) + head
    return Frame((header, *parts), FRAME_HEADER_BYTES + length)


def _shape(shape: tuple[int, ...]) -> bytes:
    if len(shape) > 2:
        raise ValueError("wire format supports at most 2-D matrices")
    if len(shape) == 2 and shape[1] == 0:
        # cols == 0 is how the shape word spells a 1-D shape.
        raise ValueError(f"wire format cannot carry a zero-column shape {shape}")
    return _SHAPE.pack(*shape, *(0,) * (2 - len(shape)))


class _Reader:
    """Reads a frame's fields in order, as views of its buffers; a field
    past the frame's end is a wire-format ``ValueError``."""

    def __init__(self, frame: Frame | bytes):
        parts = frame.parts if isinstance(frame, Frame) else (frame,)
        self._parts = list(map(memoryview, parts))
        self.left = sum(map(len, self._parts))

    def take(self, size: int, what: str) -> memoryview:
        if size > self.left:
            raise ValueError(
                f"frame truncated before its {what}: it needs {size} "
                f"bytes, {self.left} remain"
            )
        self.left -= size
        parts = self._parts
        while not len(parts[0]) and len(parts) > 1:
            parts.pop(0)
        if len(parts[0]) < size:  # a field split across buffers: join
            parts[:] = [memoryview(b"".join(parts))]
        field, parts[0] = parts[0][:size], parts[0][size:]
        return field

    def fields(self, layout: struct.Struct, what: str) -> tuple:
        return layout.unpack(self.take(layout.size, what))

    def array(self, dtype, count: int, what: str) -> np.ndarray:
        size = count * np.dtype(dtype).itemsize
        return np.frombuffer(self.take(size, what), dtype=dtype)

    def shape(self) -> tuple[int, ...]:
        rows, cols = self.fields(_SHAPE, "shape word")
        return (rows,) if cols == 0 else (rows, cols)

    def rest(self, dtype, shape: tuple[int, ...], what: str) -> np.ndarray:
        """The remaining bytes as a ``shape`` array; they must fill it
        exactly."""
        size = math.prod(shape) * np.dtype(dtype).itemsize
        if size != self.left:
            raise ValueError(
                f"{what} holds {self.left} bytes but shape {shape} needs "
                f"exactly {size}"
            )
        return np.frombuffer(self.take(size, what), dtype).reshape(shape)


def _check_frame(
    frame, kind: int, allowed: int | None = 0
) -> tuple[_Reader, int]:
    """A reader past ``frame``'s header, and its flags word, which may
    carry only the ``allowed`` bits (None: any value)."""
    reader = frame if isinstance(frame, _Reader) else _Reader(frame)
    magic, got, flags, length = reader.fields(_HEADER, "header")
    if magic != _MAGIC:
        raise ValueError(f"bad magic 0x{magic:04X}")
    if got != kind:
        raise ValueError(f"expected kind {kind}, got {got}")
    if length > reader.left:
        raise ValueError(f"truncated frame: {length} bytes announced, "
                         f"{reader.left} present")
    if length < reader.left:
        raise ValueError(f"{reader.left - length} bytes past the frame")
    if allowed is not None and flags & ~allowed:
        raise ValueError(f"frame kind {kind} carries unknown flag bits "
                         f"0x{flags:X}")
    return reader, flags


# ----------------------------------------------------------------------
# RAW
# ----------------------------------------------------------------------
def encode_raw(matrix: np.ndarray, index: np.ndarray | None = None) -> Frame:
    """Frame rows: float16 ones at half width (flag bit 0), any other
    dtype as float32; with ``index``, a block of rows preceded by their
    int32 row ids (flag bit 1)."""
    data = np.ascontiguousarray(matrix)
    flags = _HALF if data.dtype == np.float16 else 0
    if not flags:
        data = data.astype(np.float32, copy=False)
    if index is None:
        return _frame(_KIND_RAW, flags, _shape(data.shape), data)
    ids = np.ascontiguousarray(index, dtype=np.int32)
    return _frame(_KIND_RAW, flags | _INDEXED, _shape(data.shape), ids, data)


def decode_rows(
    frame, *, half: bool = False, indexed: bool = False
) -> tuple[np.ndarray | None, np.ndarray]:
    """Decode a RAW frame into ``(row ids or None, rows)``. It may carry
    float16 rows only if ``half``, and row ids only if ``indexed``."""
    allowed = (_HALF if half else 0) | (_INDEXED if indexed else 0)
    reader, flags = _check_frame(frame, _KIND_RAW, allowed)
    shape = reader.shape()
    index = None
    if flags & _INDEXED:
        index = reader.array(np.int32, shape[0], "row ids")
    dtype = np.float16 if flags & _HALF else np.float32
    return index, reader.rest(dtype, shape, "RAW frame payload")


def decode_raw(frame) -> np.ndarray:
    """Decode a plain float32 RAW frame (no flag bit set)."""
    return decode_rows(frame)[1]


# ----------------------------------------------------------------------
# QUANT
# ----------------------------------------------------------------------
def encode_quantized(quantized: QuantizedMatrix) -> Frame:
    """Frame a bucket-quantized matrix: the bucket representatives ship
    explicitly (paper Fig. 3), announced by flag bit 0."""
    head = _shape(quantized.shape) + _QUANT_META.pack(
        quantized.bits, quantized.lo, quantized.hi
    )
    table = np.ascontiguousarray(quantized.bucket_values, dtype=np.float32)
    return _frame(_KIND_QUANT, 1, head, table, quantized.packed)


def decode_quantized(frame) -> QuantizedMatrix:
    """Decode a QUANT frame. The flags must be exactly bit 0 (bucket
    table present), the bit width one of ``SUPPORTED_BITS``, the table
    complete and the packed ids exactly ``ceil(elements * bits / 8)``
    bytes. Training never damages a frame (fault injection's
    ``FATE_CORRUPT`` is a detected loss that is retransmitted); these
    checks are for hostile input."""
    reader, flags = _check_frame(frame, _KIND_QUANT, None)
    if flags != 1:
        raise ValueError(
            f"QUANT frame flags 0x{flags:X}: bit 0 (bucket table) must be "
            "the only one set"
        )
    shape = reader.shape()
    bits, lo, hi = reader.fields(_QUANT_META, "bits/lo/hi metadata")
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"QUANT frame carries invalid bit width {bits}")
    table = reader.array(np.float32, 1 << bits, "bucket table")
    packed = reader.rest(
        np.uint8, (packed_size(math.prod(shape), bits),),
        "QUANT frame packed ids",
    )
    return QuantizedMatrix(
        shape=shape, bits=bits, packed=packed, lo=lo, hi=hi,
        bucket_values=table,
    )


# ----------------------------------------------------------------------
# EXACT (ReqEC-FP trend boundary)
# ----------------------------------------------------------------------
def encode_exact(rows: np.ndarray, has_base: bool) -> Frame:
    """Frame the exact embeddings of a trend boundary. ``M_cr`` is not
    shipped: flag bit 0 (``has_base``) tells the requester to derive it
    from the snapshot it already holds; clear, it starts from zeros."""
    data = np.ascontiguousarray(rows, dtype=np.float32)
    return _frame(_KIND_EXACT, int(bool(has_base)), _shape(data.shape), data)


def decode_exact(frame) -> tuple[np.ndarray, bool]:
    """Decode an EXACT frame into ``(rows, has_base)``."""
    reader, flags = _check_frame(frame, _KIND_EXACT, 1)
    shape = reader.shape()
    return reader.rest(np.float32, shape, "EXACT frame payload"), bool(flags)


# ----------------------------------------------------------------------
# SELECTOR (ReqEC-FP in-group message)
# ----------------------------------------------------------------------
def encode_selector(
    selection: np.ndarray,
    quantized: QuantizedMatrix,
    proportion: float,
) -> Frame:
    """Frame a Selector message: 2-bit ids + quantized subset + stats."""
    packed = _pack_ids(selection, 2)
    head = _shape(selection.shape) + _SELECTOR_META.pack(
        proportion, packed.size
    )
    return _frame(
        _KIND_SELECTOR, 0, head, packed, encode_quantized(quantized)
    )


def decode_selector(frame) -> tuple[np.ndarray, QuantizedMatrix, float]:
    """Decode a SELECTOR frame. Its selector length field is untrusted:
    it must equal the 2-bit-packed size the selection shape implies, and
    the nested subset must ship one row per id that is not 1."""
    reader, _ = _check_frame(frame, _KIND_SELECTOR)
    shape = reader.shape()
    proportion, sel_bytes = reader.fields(_SELECTOR_META, "metadata")
    count = math.prod(shape)
    if sel_bytes != packed_size(count, 2):
        raise ValueError(
            f"SELECTOR frame claims {sel_bytes} selector bytes but shape "
            f"{shape} needs exactly {packed_size(count, 2)}"
        )
    packed = reader.array(np.uint8, sel_bytes, "selector")
    selection = unpack_bits(packed, 2, count).reshape(shape)
    subset = decode_quantized(reader)
    shipped = count - np.count_nonzero(selection == 1)  # 1: predicted
    if subset.shape[0] != shipped:
        raise ValueError(f"SELECTOR frame ships {subset.shape[0]} rows "
                         f"but its selector names {shipped}")
    return selection, subset, float(proportion)


# ----------------------------------------------------------------------
# TOPK and ONEBIT (the compression baselines)
# ----------------------------------------------------------------------
def encode_topk(cols: int, ids: np.ndarray, values: np.ndarray) -> Frame:
    """Frame each row's ``k`` kept entries of a ``(rows, cols)`` matrix:
    ``(rows, k)`` int32 column ids, then their float32 values; ``k``
    rides in the flags word."""
    ids = np.ascontiguousarray(ids, dtype=np.int32)
    values = np.ascontiguousarray(values, dtype=np.float32)
    return _frame(
        _KIND_TOPK, ids.shape[1], _shape((ids.shape[0], cols)), ids, values
    )


def decode_topk(frame) -> tuple[tuple[int, int], np.ndarray, np.ndarray]:
    """Decode a TOPK frame into ``(shape, ids, values)``; every column
    id must lie inside the shape."""
    reader, k = _check_frame(frame, _KIND_TOPK, None)
    shape = reader.shape()
    if len(shape) != 2 or not 1 <= k <= shape[1]:
        raise ValueError(f"TOPK frame keeps {k} columns of shape {shape}")
    ids = reader.array(np.int32, shape[0] * k, "column ids")
    values = reader.rest(np.float32, (shape[0], k), "TOPK frame values")
    if ids.size and not 0 <= ids.min() <= ids.max() < shape[1]:
        raise ValueError(f"TOPK frame names a column outside shape {shape}")
    return shape, ids.reshape(shape[0], k), values


def encode_onebit(
    signs: np.ndarray, positive_mean: float, negative_mean: float
) -> Frame:
    """Frame a 1-bit matrix: the two reconstruction means, then the
    sign of each element of ``signs`` (bool, at most 2-D), bit-packed."""
    head = _shape(signs.shape) + _MEANS.pack(positive_mean, negative_mean)
    return _frame(_KIND_ONEBIT, 0, head, _pack_ids(signs, 1))


def decode_onebit(frame) -> tuple[np.ndarray, float, float]:
    """Decode a ONEBIT frame into ``(signs, positive, negative)``; the
    signs come back as 0/1 ``uint8`` of the framed shape."""
    reader, _ = _check_frame(frame, _KIND_ONEBIT)
    shape = reader.shape()
    positive, negative = reader.fields(_MEANS, "means")
    count = math.prod(shape)
    packed = reader.rest(
        np.uint8, (packed_size(count, 1),), "ONEBIT frame signs"
    )
    return unpack_bits(packed, 1, count).reshape(shape), positive, negative
