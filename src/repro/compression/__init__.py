"""Message compression: the paper's B-bit bucket quantization.

The baselines it is compared against (float16, top-k, 1-bit) are
exchange policies in :mod:`repro.core.policies`.
"""

from repro.compression.quantization import (
    SUPPORTED_BITS,
    BucketQuantizer,
    QuantizedMatrix,
    pack_bits,
    unpack_bits,
)

__all__ = [
    "SUPPORTED_BITS",
    "BucketQuantizer",
    "QuantizedMatrix",
    "pack_bits",
    "unpack_bits",
]
