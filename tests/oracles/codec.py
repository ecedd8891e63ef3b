"""The bit packers and the quantizer id/decode paths before their
rewrites: bit-matrix ``pack_bits``/``unpack_bits`` and the uint32
``encode_ids``/``decode``. The wire layout is a compatibility contract,
so the rewrites must match these byte for byte."""

import numpy as np


def _reference_pack_bits(values, bits):
    """Original bit-matrix ``pack_bits``; layout-identical, slower."""
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    flat = np.ascontiguousarray(values, dtype=np.uint32).ravel()
    if flat.size and int(flat.max()) >= (1 << bits):
        raise ValueError(f"value {int(flat.max())} does not fit in {bits} bits")
    shifts = np.arange(bits, dtype=np.uint32)
    bit_matrix = ((flat[:, None] >> shifts) & 1).astype(np.uint8)
    return np.packbits(bit_matrix.ravel(), bitorder="little")


def _reference_unpack_bits(buffer, bits, count):
    """Original bit-matrix ``unpack_bits``; layout-identical, slower."""
    if not 1 <= bits <= 16:
        raise ValueError(f"bits must be in [1, 16], got {bits}")
    raw = np.unpackbits(
        np.ascontiguousarray(buffer, dtype=np.uint8),
        count=count * bits,
        bitorder="little",
    )
    bit_matrix = raw.reshape(count, bits).astype(np.uint32)
    powers = (np.uint32(1) << np.arange(bits, dtype=np.uint32))
    return bit_matrix @ powers


def _reference_encode_ids(bits, matrix, lo=None, hi=None):
    """Verbatim copy of ``BucketQuantizer.encode_ids`` before the
    narrow-dtype rewrite: float32 -> int64 -> integer clip -> uint32."""
    data = np.asarray(matrix, dtype=np.float32)
    buckets = 1 << bits
    if data.size == 0:
        return np.zeros(0, dtype=np.uint32)
    domain_lo = float(data.min()) if lo is None else float(lo)
    domain_hi = float(data.max()) if hi is None else float(hi)
    span = domain_hi - domain_lo
    if span <= 0.0:
        return np.zeros(data.size, dtype=np.uint32)
    width = span / buckets
    scaled = (data.ravel() - domain_lo) / width
    return np.clip(scaled.astype(np.int64), 0, buckets - 1).astype(np.uint32)


def _reference_decode(quantized):
    """Verbatim copy of ``QuantizedMatrix.decode`` before the rewrite,
    over the original bit-matrix unpack."""
    ids = _reference_unpack_bits(
        quantized.packed, quantized.bits, quantized.num_elements
    )
    return quantized.bucket_values[ids].reshape(quantized.shape).astype(
        np.float32
    )
