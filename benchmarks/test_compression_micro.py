"""Microbenchmarks — codec throughput and message sizes.

Classic pytest-benchmark timing (multiple rounds) for the quantizer
kernels that sit on EC-Graph's critical path, plus a size table comparing
every message policy at a representative embedding-matrix shape. Not a
paper table, but the numbers explain the ``CODEC_SPEEDUP`` substitution
documented in DESIGN.md.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.reporting import format_table
from repro.cluster.serialize import encode_quantized
from repro.compression.quantization import BucketQuantizer, pack_bits, unpack_bits
from repro.core.messages import ChannelKey, RawPolicy
from repro.core.policies import (
    CompressPolicy,
    Float16Policy,
    OneBitPolicy,
    TopKPolicy,
)

ROWS, DIM = 2048, 128


@pytest.fixture(scope="module")
def matrix():
    rng = np.random.default_rng(0)
    return rng.standard_normal((ROWS, DIM)).astype(np.float32)


@pytest.mark.parametrize("bits", [2, 8])
def test_quantizer_encode_throughput(benchmark, matrix, bits):
    quantizer = BucketQuantizer(bits)
    encoded = benchmark(quantizer.encode, matrix)
    assert len(encode_quantized(encoded)) < matrix.nbytes


@pytest.mark.parametrize("bits", [2, 8])
def test_quantizer_decode_throughput(benchmark, matrix, bits):
    quantizer = BucketQuantizer(bits)
    encoded = quantizer.encode(matrix)
    decoded = benchmark(encoded.decode)
    assert decoded.shape == matrix.shape


def test_pack_unpack_roundtrip_throughput(benchmark, matrix):
    rng = np.random.default_rng(1)
    ids = rng.integers(0, 16, size=ROWS * DIM, dtype=np.uint32)

    def roundtrip():
        return unpack_bits(pack_bits(ids, 4), 4, ids.size)

    out = benchmark(roundtrip)
    np.testing.assert_array_equal(out, ids)


def test_codec_size_table(benchmark, matrix):
    policies = [
        RawPolicy(),
        Float16Policy(),
        CompressPolicy(bits=8),
        CompressPolicy(bits=2),
        OneBitPolicy(),
        TopKPolicy(k=16),
    ]
    key = ChannelKey(layer=1, responder=0, requester=1)

    def respond_all():
        return {p.name: p.respond(key, matrix, 0).nbytes for p in policies}

    sizes = benchmark(respond_all)
    rows = []
    for name, nbytes in sizes.items():
        rows.append([name, nbytes, f"{matrix.nbytes / nbytes:.1f}x"])
    print()
    print(format_table(
        ["policy", "bytes", "ratio"],
        rows,
        title=f"Message sizes for a {ROWS}x{DIM} float32 embedding matrix",
    ))
    assert sizes["compress2"] < sizes["compress8"]
