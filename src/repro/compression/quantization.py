"""B-bit bucket quantization — the paper's ``C_bits`` operator (section IV-A).

A matrix is compressed by dividing its value domain into ``2^B`` equal
buckets; every element is replaced by the ``B``-bit id of the bucket that
contains it, and the reply message carries the bucket representative
values so the requesting end can decode. Bucket ids are bit-packed, so a
``d``-dimensional float32 embedding shrinks from ``32 d`` bits to
``B d + 2^B * 32`` bits (the table cost amortizes over the vertices in a
message, as the paper notes).

The responder ships the ``2^B`` representative values explicitly,
exactly as Fig. 3 describes; that table is the one wire format (the
requester never rebuilds midpoints from ``(lo, hi)``).

The codec touches every element the minimum number of times at the
minimum width. Bucket ids are born narrow (``uint8`` up to 8 bits,
``uint16`` for 16) from one in-place float chain, so 8/16-bit packing
is a reinterpretation of the id buffer, 2/4-bit packing is a pairwise
shift-or over the ids viewed as 16-bit words, and decoding widths that divide
a byte is a single gather per *byte* of packed ids from a 256-row table
of pre-gathered representatives. ``SUPPORTED_BITS`` is the one width
set: the packer, the decoder and the wire format accept no other. No
``(n, bits)`` bit matrix is ever materialized (that original
implementation is kept as the ``reference_pack_bits`` /
``reference_unpack_bits`` test fixtures in ``tests/conftest.py``, the
byte-identity oracle). The packed layout is little-endian-bit-first,
byte-identical to ``np.packbits(..., bitorder="little")`` on the
expanded bits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = ["pack_bits", "unpack_bits", "QuantizedMatrix", "BucketQuantizer"]

# The widths the Bit-Tuner steps through (paper section IV-B) and the
# only ones anything here packs, decodes or frames.
SUPPORTED_BITS = (1, 2, 4, 8, 16)

# Cached float64 midpoint offsets ``arange(2^B) + 0.5`` per bucket count;
# representative tables are ``lo + offsets * width``, so the arange is the
# only per-call allocation worth hoisting (the arithmetic must stay
# identical to keep decoded values bit-exact across calls).
_MIDPOINT_OFFSETS: dict[int, np.ndarray] = {}


def _midpoint_offsets(buckets: int) -> np.ndarray:
    offsets = _MIDPOINT_OFFSETS.get(buckets)
    if offsets is None:
        offsets = np.arange(buckets, dtype=np.float64) + 0.5
        offsets.setflags(write=False)
        _MIDPOINT_OFFSETS[buckets] = offsets
    return offsets


def packed_size(count: int, bits: int) -> int:
    """Bytes needed to pack ``count`` values of ``bits`` bits each."""
    return (count * bits + 7) // 8


# Bucket ids are born at this width. Little-endian on purpose: a 16-bit
# id buffer viewed as bytes *is* its wire form.
_ID_DTYPE = {
    bits: np.dtype(np.uint8 if bits <= 8 else "<u2") for bits in SUPPORTED_BITS
}


def _pack_ids(ids: np.ndarray, bits: int) -> np.ndarray:
    """Pack ids the program produced itself: the quantizer's bucket ids,
    a ReqEC-FP selector, 1-bit signs.

    ``bits`` is a ``SUPPORTED_BITS`` width and ``ids`` are in range by
    construction (a clip, or the choices made), so this skips the
    ``max()`` scan :func:`pack_bits` owes to outside input. 8/16-bit
    results are views of ``ids``.
    """
    ids = np.ascontiguousarray(ids, dtype=_ID_DTYPE[bits]).ravel()
    if bits == 8:
        return ids
    if bits == 16:
        return ids.view(np.uint8)
    if bits == 1:
        # The values are the bits; packbits needs no expansion here.
        return np.packbits(ids, bitorder="little")
    per_byte = 8 // bits
    if ids.size % per_byte:
        # Zero-fill the last byte.
        ids = np.concatenate((ids, np.zeros(-ids.size % per_byte, ids.dtype)))
    # Pairwise tree merge on the ids viewed as 16-bit words: each level
    # fuses the two ``width``-bit fields of adjacent bytes (the high
    # byte's field shifted down next to the low byte's) and narrows back
    # to one byte per pair, until a byte is full.
    width = bits
    while width < 8:
        words = ids.view("<u2")
        fused = words >> (8 - width)
        fused |= words
        ids = fused.astype(np.uint8)
        width *= 2
    return ids


def pack_bits(values: np.ndarray, bits: int) -> np.ndarray:
    """Pack unsigned ``bits``-wide integers into a dense uint8 buffer.

    Values are laid out little-endian-bit-first; :func:`unpack_bits`
    inverts the layout exactly. Values must fit in ``bits`` bits; any
    integer dtype is accepted and narrowed once, after the range check.
    """
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"bits must be in {SUPPORTED_BITS}, got {bits}")
    flat = np.ascontiguousarray(values).ravel()
    if flat.dtype.kind != "u":
        # Signed input goes through uint32 so a negative value wraps
        # high and fails the range check instead of narrowing silently.
        flat = flat.astype(np.uint32)
    if flat.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if int(flat.max()) >= (1 << bits):
        raise ValueError(f"value {int(flat.max())} does not fit in {bits} bits")
    # astype copies, so the 8/16-bit views never alias the input.
    return _pack_ids(flat.astype(_ID_DTYPE[bits]), bits)


def _check_packed(buffer: np.ndarray, bits: int, count: int) -> np.ndarray:
    """``buffer`` as flat bytes, refused unless it holds exactly ``count``
    values of ``bits`` bits."""
    if bits not in SUPPORTED_BITS:
        raise ValueError(f"bits must be in {SUPPORTED_BITS}, got {bits}")
    buf = np.ascontiguousarray(buffer, dtype=np.uint8).ravel()
    needed = packed_size(count, bits)
    if buf.size != needed:
        raise ValueError(
            f"packed buffer holds {buf.size} bytes but {count} values of "
            f"{bits} bits need exactly {needed}"
        )
    return buf


def unpack_bits(buffer: np.ndarray, bits: int, count: int) -> np.ndarray:
    """Invert :func:`pack_bits`, recovering ``count`` integers.

    The buffer length must match ``count`` exactly: a short buffer cannot
    hold the promised values and a long one means the caller mis-sliced
    the wire payload — both raise ``ValueError`` instead of silently
    reading (or ignoring) stray bytes.

    Ids come back at id width (``uint8``, or ``uint16`` for 16 bits) and
    the 8/16-bit results are views of ``buffer``.
    """
    buf = _check_packed(buffer, bits, count)
    if bits == 8:
        return buf
    if bits == 16:
        return buf.view(_ID_DTYPE[16])
    if bits == 1:
        return np.unpackbits(buf, count=count, bitorder="little")
    # The inverse tree: each level widens bytes to 16-bit words and
    # splits every byte into its low and high ``width``-bit halves.
    fields, width = buf, 4
    while width >= bits:
        words = fields.astype("<u2")
        split = words << (8 - width)
        split |= words
        split &= ((1 << width) - 1) * 0x0101
        fields = split.view(np.uint8)
        width //= 2
    return fields[:count]


@functools.cache
def _byte_ids(bits: int) -> np.ndarray:
    """Read-only ``(256, 8 // bits)`` table: row ``b`` is the ids packed
    in byte value ``b`` (see :meth:`QuantizedMatrix.decode`)."""
    per_byte = 8 // bits
    ids = unpack_bits(np.arange(256, dtype=np.uint8), bits, 256 * per_byte)
    ids.setflags(write=False)
    return ids.reshape(256, per_byte)


@dataclass
class QuantizedMatrix:
    """A bucket-quantized matrix ready for the wire.

    Attributes:
        shape: Original matrix shape.
        bits: Bucket id width ``B``.
        packed: Bit-packed bucket ids (uint8 buffer).
        lo / hi: Value-domain bounds used by the quantizer.
        bucket_values: ``(2^B,)`` representative values (bucket midpoints).
    """

    shape: tuple[int, ...]
    bits: int
    packed: np.ndarray
    lo: float
    hi: float
    bucket_values: np.ndarray

    @property
    def num_elements(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count

    def decode(self) -> np.ndarray:
        """Reconstruct the approximate matrix."""
        count = self.num_elements
        table = np.asarray(self.bucket_values, dtype=np.float32)
        if self.bits == 16:
            ids = unpack_bits(self.packed, self.bits, count)
            return np.take(table, ids).reshape(self.shape)
        packed = _check_packed(self.packed, self.bits, count)
        # Widths that divide a byte never unpack: row ``b`` of the
        # gathered table holds the representatives of the ids packed in
        # byte value ``b``, so one gather per packed *byte* writes its
        # 8 // bits floats straight into the result.
        by_byte = table[_byte_ids(self.bits)]
        flat = np.take(by_byte, packed, axis=0).ravel()
        return flat[:count].reshape(self.shape)


class BucketQuantizer:
    """The paper's ``C_bits``: uniform bucket quantization with B bits.

    The forward pass quantizes embeddings whose domain the paper treats as
    ``[0, 1]``; gradients are not normalized, so the responding end first
    computes ``(min, max)`` (Algorithm 6 lines 4-5). This implementation
    always derives the domain from the data unless explicit bounds are
    given, which covers both uses.
    """

    def __init__(self, bits: int):
        if bits not in SUPPORTED_BITS:
            raise ValueError(
                f"bits must be one of {SUPPORTED_BITS}, got {bits}"
            )
        self.bits = bits

    @property
    def num_buckets(self) -> int:
        return 1 << self.bits

    def representatives(self, lo: float, hi: float) -> np.ndarray:
        """The ``2^B`` bucket midpoints for the domain ``[lo, hi]``."""
        buckets = self.num_buckets
        span = hi - lo
        if span <= 0.0:
            return np.full(buckets, lo, dtype=np.float32)
        width = span / buckets
        # A non-finite domain (NaN/Inf in the data) yields NaN
        # representatives; that is the answer, not worth a warning.
        with np.errstate(invalid="ignore"):
            return (lo + _midpoint_offsets(buckets) * width).astype(
                np.float32
            )

    def encode_ids(
        self,
        matrix: np.ndarray,
        lo: float | None = None,
        hi: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, float, float]:
        """Quantize without packing: ``(flat ids, representatives, lo, hi)``.

        The hot half of :meth:`encode`, exposed so callers that need the
        raw bucket ids (candidate scoring, subset slicing in ReqEC-FP)
        quantize exactly once instead of encode-decode-re-encode.
        """
        data = np.asarray(matrix, dtype=np.float32)
        id_dtype = _ID_DTYPE[self.bits]
        if data.size == 0:
            # An empty matrix still carries its domain on the wire: the
            # all-predicted ReqEC selector message ships zero rows but
            # the requester may rely on (lo, hi) being the true bounds.
            domain_lo = 0.0 if lo is None else float(lo)
            domain_hi = 0.0 if hi is None else float(hi)
            if domain_hi < domain_lo:
                raise ValueError(
                    f"invalid domain: [{domain_lo}, {domain_hi}]"
                )
            reps = self.representatives(domain_lo, domain_hi)
            return np.zeros(0, dtype=id_dtype), reps, domain_lo, domain_hi
        domain_lo = float(data.min()) if lo is None else float(lo)
        domain_hi = float(data.max()) if hi is None else float(hi)
        if domain_hi < domain_lo:
            raise ValueError(f"invalid domain: [{domain_lo}, {domain_hi}]")

        buckets = self.num_buckets
        span = domain_hi - domain_lo
        if not 0.0 < span < np.inf:
            # Degenerate (lo == hi) or non-finite domain — a NaN or Inf
            # element makes the data-derived span NaN or Inf — puts
            # every element in bucket 0.
            ids = np.zeros(data.size, dtype=id_dtype)
        else:
            # One float32 scratch, three in-place passes, one narrowing
            # cast. Clipping in the float domain and then truncating
            # gives the id that truncating and then clipping would.
            width = span / buckets
            scaled = np.subtract(data.ravel(), domain_lo)
            np.divide(scaled, width, out=scaled)
            if lo is not None or hi is not None:
                # Only explicit bounds can leave NaN/Inf elements in a
                # finite domain; they land in bucket 0 like the rest of
                # the non-finite cases.
                scaled[~np.isfinite(scaled)] = 0.0
            np.clip(scaled, 0, buckets - 1, out=scaled)
            ids = scaled.astype(id_dtype)
        reps = self.representatives(domain_lo, domain_hi)
        return ids, reps, domain_lo, domain_hi

    def encode(
        self,
        matrix: np.ndarray,
        lo: float | None = None,
        hi: float | None = None,
    ) -> QuantizedMatrix:
        """Quantize ``matrix`` into bucket ids plus representatives.

        Args:
            matrix: Any-shape float array.
            lo / hi: Optional explicit domain; defaults to the data range.
                A degenerate domain (``lo == hi``) still round-trips: all
                elements land in bucket 0 whose representative is ``lo``.
                Explicit bounds are honored even for an empty matrix.
        """
        data = np.asarray(matrix, dtype=np.float32)
        ids, reps, domain_lo, domain_hi = self.encode_ids(data, lo, hi)
        return QuantizedMatrix(
            shape=data.shape,
            bits=self.bits,
            packed=_pack_ids(ids, self.bits),
            lo=domain_lo,
            hi=domain_hi,
            bucket_values=reps,
        )

    def from_ids(
        self,
        ids: np.ndarray,
        shape: tuple[int, ...],
        reps: np.ndarray,
        lo: float,
        hi: float,
    ) -> QuantizedMatrix:
        """Pack pre-computed bucket ids into a wire-ready matrix.

        ``ids`` must come from :meth:`encode_ids` with the same domain —
        slicing a subset of those ids is wire-identical to re-encoding
        the corresponding value subset with explicit ``(lo, hi)``.
        """
        return QuantizedMatrix(
            shape=shape,
            bits=self.bits,
            packed=_pack_ids(ids, self.bits),
            lo=lo,
            hi=hi,
            bucket_values=reps,
        )

    def quantize(self, matrix: np.ndarray, **kwargs) -> np.ndarray:
        """Encode then immediately decode (the error operator ``C_bits``)."""
        return self.encode(matrix, **kwargs).decode()
