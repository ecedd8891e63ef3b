"""Wire-size invariants: every byte count a policy *charges* must equal
the length of the bytes the serializer actually *produces*.

The traffic meter bills the computed ``nbytes`` of each message, so any
drift between the accounting arithmetic and the real frames would skew
every traffic figure the reproduction reports. These tests pin exact
equality — no tolerances — across granularities, bit widths, matrix
shapes, and the all-predicted (empty subset) selector edge case.
"""

import numpy as np
import pytest

from repro.cluster.serialize import (
    encode_exact,
    encode_quantized,
    encode_selector,
)
from repro.compression.quantization import SUPPORTED_BITS, BucketQuantizer
from repro.core.bit_tuner import BitTuner
from repro.core.messages import ChannelKey
from repro.core.reqec_fp import SELECT_PREDICTED, ReqECPolicy
from reqec_owners import bind


@pytest.fixture
def rows():
    rng = np.random.default_rng(0)
    return rng.uniform(-2.0, 3.0, size=(19, 7)).astype(np.float32)


def _policy(granularity, bits=4):
    return bind(ReqECPolicy(
        BitTuner(initial_bits=bits, enabled=False),
        trend_period=4,
        granularity=granularity,
    ), {(0, 1): 19})


class TestQuantizedPayloadBytes:
    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    @pytest.mark.parametrize("shape", [None, (1, 1), (13,)])
    def test_payload_bytes_equals_frame_length(self, rows, bits, shape):
        if shape is not None:
            rows = rows.reshape(-1)[: int(np.prod(shape))].reshape(shape)
        quantized = BucketQuantizer(bits).encode(rows)
        assert quantized.payload_bytes() == len(encode_quantized(quantized))

    def test_empty_matrix_payload_bytes(self):
        quantized = BucketQuantizer(4).encode(
            np.zeros((0, 7), dtype=np.float32), lo=-1.0, hi=2.0
        )
        assert quantized.payload_bytes() == len(encode_quantized(quantized))


class TestReqECAccounting:
    @pytest.mark.parametrize("granularity", ["vertex", "element", "matrix"])
    def test_boundary_message_is_exact_frame(self, rows, granularity):
        policy = _policy(granularity)
        for t, based in ((3, False), (7, True)):
            message = policy.respond(ChannelKey(0, 0, 1), rows, t=t)
            assert message.kind == "exact"
            sent, has_base = message.payload
            assert has_base is based
            assert message.nbytes == len(encode_exact(sent, has_base))

    @pytest.mark.parametrize("granularity", ["vertex", "element", "matrix"])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_selector_message_is_selector_frame(self, rows, granularity, bits):
        policy = _policy(granularity, bits=bits)
        key = ChannelKey(0, 0, 1)
        policy.respond(key, rows, t=3)  # boundary primes the trend
        message = policy.respond(key, rows + 0.05, t=4)
        assert message.kind == "selector"
        frame = encode_selector(*message.payload)
        assert message.nbytes == len(frame)

    @pytest.mark.parametrize("granularity", ["vertex", "element", "matrix"])
    def test_first_group_message_is_quant_frame(self, rows, granularity):
        # t inside the first trend group, before any boundary: the
        # responder has no snapshot and ships plain compressed rows.
        policy = _policy(granularity)
        message = policy.respond(ChannelKey(0, 0, 1), rows, t=1)
        assert message.kind == "quant"
        assert message.nbytes == len(encode_quantized(message.payload))

    @pytest.mark.parametrize("granularity", ["vertex", "element"])
    def test_all_predicted_selector_is_empty_but_sized(
        self, rows, granularity
    ):
        """The empty-mask edge: every vertex predicted, the quantized
        subset ships zero ids — the frame still carries the selector,
        the true (lo, hi) domain, and the accounting still matches."""
        policy = _policy(granularity)
        quantizer = BucketQuantizer(4)
        ids, reps, lo, hi = quantizer.encode_ids(rows)
        shape = rows.shape if granularity == "element" else rows.shape[:1]
        selection = np.full(shape, SELECT_PREDICTED, dtype=np.uint8)
        quantized, nbytes = policy._build_compressed_payload(
            rows, selection, quantizer, ids, reps, lo, hi
        )
        assert quantized.num_elements == 0
        assert quantized.lo == lo and quantized.hi == hi
        frame = encode_selector(selection, quantized, 1.0)
        assert nbytes == len(frame)


class TestFramesMatchPreRewriteCodec:
    """The narrow-id quantizer must put the same bytes on the wire as the
    ``uint32`` pipeline it replaced: the frame of ``encode(x)`` equals
    the frame built from the reference ids packed by the original
    bit-matrix kernel (the ``reference_pack_bits`` fixture)."""

    @pytest.mark.parametrize("size", [0, 1, 13, 2**16 + 3])
    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_quant_frame_bytes(
        self, bits, size, reference_encode_ids, reference_pack_bits
    ):
        from repro.compression.quantization import QuantizedMatrix

        x = np.random.default_rng(size % 991 + bits).uniform(
            -2.0, 3.0, size=size
        ).astype(np.float32)
        quantizer = BucketQuantizer(bits)
        for bounds in ({}, {"lo": -0.5, "hi": 1.5}, {"lo": 1.0, "hi": 1.0}):
            got = quantizer.encode(x, **bounds)
            want = QuantizedMatrix(
                shape=x.shape,
                bits=bits,
                packed=reference_pack_bits(
                    reference_encode_ids(bits, x, **bounds), bits
                ),
                lo=got.lo,
                hi=got.hi,
                bucket_values=quantizer.representatives(got.lo, got.hi),
            )
            assert encode_quantized(got) == encode_quantized(want)

    @pytest.mark.parametrize("granularity", ["vertex", "element", "matrix"])
    def test_selector_frame_bytes(self, rows, granularity,
                                  reference_pack_bits):
        """The 2-bit selector lanes now take the uint8 selection as is;
        the frame must equal the one the uint32 round trip produced."""
        import struct

        policy = _policy(granularity)
        key = ChannelKey(0, 0, 1)
        policy.respond(key, rows, t=3)
        message = policy.respond(key, rows + 0.05, t=4)
        selection, quantized, _ = message.payload
        frame = encode_selector(selection, quantized, 0.25)
        want_selector = reference_pack_bits(
            selection.astype(np.uint32).ravel(), 2
        ).tobytes()
        at = 16 + 8  # frame header + shape word
        assert struct.unpack_from("<fI", frame, at) == (
            0.25, len(want_selector)
        )
        assert frame[at + 8:at + 8 + len(want_selector)] == want_selector
        assert frame[at + 8 + len(want_selector):] == (
            encode_quantized(quantized)
        )


class TestFrameSizesHaveOneOwner:
    """The frame-header and shape-word sizes are defined once, in
    ``compression/quantization.py``; everything else imports them."""

    def test_sizes_are_what_the_serializer_writes(self):
        from repro.cluster.serialize import HEADER_BYTES, encode_raw
        from repro.compression.quantization import (
            FRAME_HEADER_BYTES,
            MATRIX_PREFIX_BYTES,
            SHAPE_WORD_BYTES,
        )

        empty = np.zeros((0, 3), dtype=np.float32)
        assert HEADER_BYTES == FRAME_HEADER_BYTES == 16
        assert len(encode_raw(empty)) == MATRIX_PREFIX_BYTES == (
            FRAME_HEADER_BYTES + SHAPE_WORD_BYTES
        )

    def test_no_module_spells_them_again(self):
        import ast
        from pathlib import Path

        import repro

        owner = Path(repro.__file__).parent / "compression" / "quantization.py"
        offenders = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                redefined = (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Constant)
                    and any(getattr(t, "id", "").endswith("HEADER_BYTES")
                            for t in node.targets)
                )
                # ``16 + 8 [+ ...]``: the prefix as literals.
                literal_prefix = (
                    isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Add)
                    and isinstance(node.right, ast.Constant)
                    and node.right.value == 8
                    and isinstance(node.left, ast.Constant)
                    and node.left.value == 16
                )
                if (redefined and path != owner) or literal_prefix:
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []
