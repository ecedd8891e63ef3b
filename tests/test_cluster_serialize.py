"""Unit tests for the binary wire format, which is also what every
policy ships: a message's size is its frame's length, and its
``receive`` decodes the frame. Frames are scatter-gather; the tests
that damage one edit its joined bytes, ``bytes(frame)``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.serialize import (
    FRAME_HEADER_BYTES,
    MATRIX_PREFIX_BYTES,
    decode_exact,
    decode_quantized,
    decode_raw,
    decode_rows,
    decode_selector,
    encode_exact,
    encode_quantized,
    encode_raw,
    encode_selector,
    selector_share,
)
from repro.compression.quantization import (
    SUPPORTED_BITS,
    BucketQuantizer,
    packed_size,
)
from repro.core.messages import ChannelKey, ChannelMessage
from repro.core.policies import Float16Policy, OneBitPolicy, TopKPolicy


@pytest.fixture
def matrix():
    rng = np.random.default_rng(0)
    return rng.standard_normal((17, 9)).astype(np.float32)


class TestRawFrames:
    def test_roundtrip(self, matrix):
        np.testing.assert_array_equal(decode_raw(encode_raw(matrix)), matrix)

    def test_vector_roundtrip(self):
        v = np.arange(5, dtype=np.float32)
        np.testing.assert_array_equal(decode_raw(encode_raw(v)), v)

    def test_frame_size_matches_policy_accounting(self, matrix):
        from repro.core.messages import ChannelKey, RawPolicy

        frame = encode_raw(matrix)
        message = RawPolicy().respond(
            ChannelKey(1, 0, 1), matrix, t=0
        )
        assert len(frame) == message.nbytes

    def test_decoders_read_views_of_the_frame(self, matrix):
        """Encoding shares the payload array and decoding reads it in
        place: neither copies the rows. The joined bytes decode alike."""
        frame = encode_raw(matrix)
        rows = decode_raw(frame)
        assert np.shares_memory(rows, matrix)
        np.testing.assert_array_equal(decode_raw(bytes(frame)), rows)
        index = np.array([1, 4], dtype=np.int64)
        frame = encode_raw(matrix[index], index=index)
        ids, block = decode_rows(frame, indexed=True)
        assert ids.dtype == np.int32
        np.testing.assert_array_equal(ids, index)
        np.testing.assert_array_equal(block, matrix[index])

    def test_half_width_and_indexed_frames(self, matrix):
        """float16 rows are the RAW layout at half width (flag bit 0);
        an indexed block puts int32 row ids first (flag bit 1)."""
        half = matrix.astype(np.float16)
        frame = encode_raw(half)
        assert len(frame) == MATRIX_PREFIX_BYTES + half.nbytes
        ids, rows = decode_rows(frame, half=True)
        assert ids is None and rows.dtype == np.float16
        np.testing.assert_array_equal(rows, half)
        block = encode_raw(matrix[:3], index=np.arange(3))
        assert len(block) == MATRIX_PREFIX_BYTES + 3 * 4 + matrix[:3].nbytes
        # A decoder takes only the flag bits its caller names.
        for flagged, other in ((frame, {"indexed": True}),
                               (block, {"half": True})):
            for decode in (decode_raw, lambda f: decode_rows(f, **other)):
                with pytest.raises(ValueError, match="flag bits"):
                    decode(flagged)

    def test_empty_indexed_block_keeps_its_index(self, matrix):
        """A block of no rows is still a block: the flag, not the row
        count, says whether the frame carries row ids."""
        frame = encode_raw(matrix[:0], index=np.arange(0))
        for framed in (frame, bytes(frame)):
            ids, rows = decode_rows(framed, indexed=True)
            assert ids is not None and ids.dtype == np.int32
            assert ids.shape == (0,) and rows.shape == (0, matrix.shape[1])

    def test_bad_magic_rejected(self, matrix):
        frame = bytearray(bytes(encode_raw(matrix)))
        frame[0] ^= 0xFF
        with pytest.raises(ValueError, match="magic"):
            decode_raw(bytes(frame))

    def test_truncated_frame_rejected(self, matrix):
        frame = bytes(encode_raw(matrix))
        with pytest.raises(ValueError, match="truncated"):
            decode_raw(frame[:-4])

    def test_wrong_kind_rejected(self, matrix):
        frame = encode_raw(matrix)
        with pytest.raises(ValueError, match="kind"):
            decode_quantized(frame)

    def test_payload_length_must_match_shape(self, matrix):
        import struct

        frame = bytes(encode_raw(matrix))
        for payload in (
            frame[16:-4],              # one value short
            frame[16:] + b"\0" * 4,    # one value long
            frame[16:20],              # not even a shape word
        ):
            header = struct.pack("<HHIQ", 0xEC6A, 1, 0, len(payload))
            with pytest.raises(ValueError, match="needs exactly|shape word"):
                decode_raw(header + payload)

    def test_zero_column_shape_rejected(self):
        # The shape word spells a 1-D shape as cols == 0, so a (5, 0)
        # frame would decode as (5,) and fail its own length check.
        with pytest.raises(ValueError, match="zero-column"):
            encode_raw(np.zeros((5, 0), np.float32))


class TestQuantFrames:
    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    @pytest.mark.parametrize("shape", [None, (0, 4), (1, 1), (13,)])
    def test_roundtrip(self, matrix, bits, shape):
        if shape is not None:
            matrix = np.linspace(
                -1.0, 1.0, int(np.prod(shape)), dtype=np.float32
            ).reshape(shape)
        quantized = BucketQuantizer(bits).encode(matrix)
        decoded = decode_quantized(encode_quantized(quantized))
        assert decoded.shape == matrix.shape
        np.testing.assert_allclose(
            decoded.decode(), quantized.decode(), atol=1e-6
        )
        assert decoded.bits == bits
        np.testing.assert_array_equal(
            decoded.bucket_values, quantized.bucket_values
        )

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_policy_charge_is_the_quant_layout(self, matrix, bits):
        """What the traffic meter charges a compressed message is its
        frame: header + shape word, (bits, lo, hi), the bucket table and
        the packed ids."""
        from repro.core.policies import CompressPolicy

        frame = encode_quantized(BucketQuantizer(bits).encode(matrix))
        message = CompressPolicy(bits).respond(
            ChannelKey(1, 0, 1), matrix, t=0
        )
        assert message.nbytes == len(frame) == (
            MATRIX_PREFIX_BYTES + 9 + 4 * (1 << bits)
            + packed_size(matrix.size, bits)
        )


class TestExactFrames:
    @pytest.mark.parametrize("has_base", [False, True])
    def test_roundtrip(self, matrix, has_base):
        rows_out, flag_out = decode_exact(encode_exact(matrix, has_base))
        np.testing.assert_array_equal(rows_out, matrix)
        assert flag_out is has_base

    def test_size_matches_reqec_accounting(self, matrix):
        """Header + shape word + the rows once — to the byte, with or
        without a base (the flag rides in the header's flags word)."""
        from repro.core.bit_tuner import BitTuner
        from repro.core.messages import ChannelKey
        from repro.core.reqec_fp import ReqECPolicy

        from reqec_owners import bind

        policy = bind(ReqECPolicy(BitTuner(initial_bits=2, enabled=False),
                                  trend_period=2), {(0, 1): len(matrix)})
        for t in (1, 3):
            message = policy.respond(ChannelKey(1, 0, 1), matrix, t=t)
            frame = encode_exact(*decode_exact(message.frame))
            assert len(frame) == FRAME_HEADER_BYTES + 8 + matrix.nbytes
            assert message.nbytes == len(frame)

    def test_flag_is_header_bit_zero(self, matrix):
        import struct

        plain, flagged = (
            bytes(encode_exact(matrix, b)) for b in (False, True)
        )
        assert len(plain) == len(flagged)
        assert struct.unpack_from("<HHIQ", plain)[2] == 0
        assert struct.unpack_from("<HHIQ", flagged)[2] == 1
        assert plain[FRAME_HEADER_BYTES:] == flagged[FRAME_HEADER_BYTES:]

    def test_unknown_flag_bits_rejected(self, matrix):
        import struct

        frame = bytearray(bytes(encode_exact(matrix, True)))
        for flags in (2, 3, 1 << 31):
            struct.pack_into("<I", frame, 4, flags)
            with pytest.raises(ValueError, match="unknown flag bits"):
                decode_exact(bytes(frame))

    def test_payload_length_must_match_shape(self, matrix):
        import struct

        frame = bytes(encode_exact(matrix, False))
        for payload in (
            frame[16:-4],              # one value short
            frame[16:] + b"\0" * 4,    # one value long
            frame[16:20],              # not even a shape word
        ):
            header = struct.pack("<HHIQ", 0xEC6A, 3, 0, len(payload))
            with pytest.raises(ValueError, match="needs exactly|shape word"):
                decode_exact(header + payload)
        hostile = bytearray(frame)
        struct.pack_into("<II", hostile, 16, 2**31, 2**31)
        with pytest.raises(ValueError, match="needs exactly"):
            decode_exact(bytes(hostile))

    def test_zero_column_shape_rejected(self):
        with pytest.raises(ValueError, match="zero-column"):
            encode_exact(np.zeros((5, 0), np.float32), False)


class TestSelectorFrames:
    def test_roundtrip(self, matrix):
        rng = np.random.default_rng(1)
        selection = rng.integers(0, 3, size=matrix.shape[0]).astype(np.uint8)
        quantized = BucketQuantizer(4).encode(matrix[selection != 1])
        frame = encode_selector(selection, quantized)
        sel_out, quant_out, predicted = decode_selector(frame)
        np.testing.assert_array_equal(sel_out, selection)
        np.testing.assert_allclose(
            quant_out.decode(), quantized.decode(), atol=1e-6
        )
        # The count of predicted entries is derived from the selection.
        assert predicted == np.count_nonzero(selection == 1)

    @pytest.mark.parametrize("shape", [(0,), (1,), (5,), (17,), (6, 7)])
    def test_selector_lanes_roundtrip_as_uint8(self, shape):
        """The selector rides the 2-bit lanes at id width: whatever the
        integer dtype going in, uint8 of the same shape comes out, for
        counts that do and do not fill the last byte."""
        rng = np.random.default_rng(5)
        selection = rng.integers(0, 3, size=shape)
        # The subset ships one value per id that is not 1 (predicted).
        shipped = np.zeros(np.count_nonzero(selection != 1), np.float32)
        quantized = BucketQuantizer(4).encode(shipped)
        frames = {
            bytes(encode_selector(selection.astype(dtype), quantized))
            for dtype in (np.uint8, np.uint32, np.int64)
        }
        assert len(frames) == 1
        sel_out, _, _ = decode_selector(frames.pop())
        assert sel_out.dtype == np.uint8 and sel_out.shape == shape
        np.testing.assert_array_equal(sel_out, selection)

    def test_size_matches_reqec_accounting(self, matrix):
        """The selector-message size charged by ReqEC-FP is the frame
        length of what it ships."""
        from repro.core.bit_tuner import BitTuner
        from repro.core.messages import ChannelKey
        from repro.core.reqec_fp import ReqECPolicy

        from reqec_owners import bind

        policy = bind(ReqECPolicy(BitTuner(initial_bits=4, enabled=False),
                                  trend_period=4), {(0, 1): len(matrix)})
        key = ChannelKey(1, 0, 1)
        policy.respond(key, matrix, t=3)  # boundary primes the trend
        message = policy.respond(key, matrix + 0.05, t=4)
        assert message.kind == "selector"
        frame = encode_selector(*decode_selector(message.frame)[:2])
        assert len(frame) == message.nbytes


    def test_share_is_read_from_the_fixed_fields(self, matrix):
        """The Bit-Tuner's input is the count over the entries, equal to
        the float64 mean of the selection to the bit, and it is read
        without unpacking the payload: a frame whose nested subset is
        damaged still answers it."""
        rng = np.random.default_rng(4)
        selection = rng.integers(0, 3, size=matrix.shape).astype(np.uint8)
        quantized = BucketQuantizer(4).encode(matrix[selection != 1])
        frame = encode_selector(selection, quantized)
        share = float((selection == 1).mean())
        assert repr(selector_share(frame)) == repr(share)
        damaged = bytearray(bytes(frame))
        nested = len(frame.parts[0]) + len(frame.parts[1])  # QUANT magic
        damaged[nested] ^= 0xFF
        with pytest.raises(ValueError, match="bad magic"):
            decode_selector(bytes(damaged))
        assert repr(selector_share(bytes(damaged))) == repr(share)

    def test_share_of_a_damaged_count_is_a_value_error(self):
        """The share reads untrusted fields: a count above the entries,
        or a frame with no entries, is refused, not divided."""
        import struct

        for selection, count in ((np.ones(4, np.uint8), 5),
                                 (np.zeros(0, np.uint8), 0)):
            nothing = BucketQuantizer(4).encode(np.zeros((0, 3), np.float32))
            frame = bytearray(bytes(encode_selector(selection, nothing)))
            struct.pack_into("<I", frame, MATRIX_PREFIX_BYTES, count)
            with pytest.raises(ValueError, match="predicted entries"):
                selector_share(bytes(frame))


class TestPropertyRoundTrips:
    @given(
        data=arrays(
            np.float32,
            st.tuples(st.integers(1, 12), st.integers(1, 6)),
            elements=st.floats(-50, 50, width=32),
        ),
        bits=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=40, deadline=None)
    def test_quant_frame_roundtrip_property(self, data, bits):
        quantized = BucketQuantizer(bits).encode(data)
        decoded = decode_quantized(encode_quantized(quantized))
        np.testing.assert_allclose(
            decoded.decode(), quantized.decode(), atol=1e-6
        )


KEY = ChannelKey(layer=1, responder=0, requester=1)


def _through(policy):
    """A baseline's encoder and decoder as training runs them: its
    ``respond`` builds the frame and its ``receive`` decodes it."""
    def encode(data, has_base):
        return policy.respond(KEY, data, 0).frame

    def decode(frame):
        message = ChannelMessage(kind="quant", frame=frame)
        return policy.receive(KEY, message, 0), False

    return encode, decode


def _encode_selector(data, has_base):
    selection = (np.arange(len(data)) % 3).astype(np.uint8)  # 1: predicted
    subset = BucketQuantizer(4).encode(data[selection != 1])
    return encode_selector(selection, subset)


def _decode_selector(frame):
    selection, subset, _ = decode_selector(frame)
    return np.concatenate(
        [selection.ravel().astype(np.float32), subset.decode().ravel()]
    ), False


# kind -> (encode(data, has_base) -> frame, decode(frame) -> (rows, flag))
FRAMES = {
    "exact": (encode_exact, decode_exact),
    "raw": (lambda data, _: encode_raw(data),
            lambda frame: (decode_raw(frame), False)),
    "block": (lambda data, _: encode_raw(data, index=np.arange(len(data))),
              lambda frame: (decode_rows(frame, indexed=True)[1], False)),
    "quant": (lambda data, _: encode_quantized(BucketQuantizer(4).encode(data)),
              lambda frame: (decode_quantized(frame).decode(), False)),
    "selector": (_encode_selector, _decode_selector),
    "float16": _through(Float16Policy()),
    "topk": _through(TopKPolicy(k=2)),
    "onebit": _through(OneBitPolicy()),
}
LOSSLESS = ("exact", "raw", "block")


def _framed_count(kind, frame: bytes) -> int:
    """The element count a well-formed ``frame`` states in its shape
    word(s): a selector's ids plus its nested subset's elements."""
    import struct

    def count(at):
        rows, cols = struct.unpack_from("<II", frame, at)
        return rows * (cols or 1)

    if kind != "selector":
        return count(FRAME_HEADER_BYTES)
    sel_bytes = struct.unpack_from("<I", frame, MATRIX_PREFIX_BYTES + 4)[0]
    nested = MATRIX_PREFIX_BYTES + 8 + sel_bytes + FRAME_HEADER_BYTES
    return count(FRAME_HEADER_BYTES) + count(nested)


@pytest.mark.parametrize("kind", sorted(FRAMES))
class TestExactFrameProperties:
    """Every frame kind training ships round-trips, and any truncation or
    single bit flip is either rejected as a wire-format ``ValueError`` or
    decodes to the framed element count — never a numpy or struct
    error. The baselines decode through their policy's ``receive``.

    EXACT and RAW (one layout: a shape word, then float32 rows) are
    pinned closer: only EXACT has a flag (``has_base``), a RAW frame's
    flags must be clear, and a rejected flip lies in the header or the
    shape word. Derandomised: CI and every other host see one case
    list."""

    _matrices = arrays(
        np.float32,
        st.tuples(st.integers(0, 9), st.integers(1, 5)),
        elements=st.floats(-50, 50, width=32),
    )

    @given(data=_matrices, has_base=st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_roundtrip_property(self, kind, data, has_base):
        encode, decode = FRAMES[kind]
        has_base = has_base and kind == "exact"
        frame = encode(data, has_base)
        rows, flag = decode(frame)
        again, _ = decode(bytes(frame))
        assert again.tobytes() == rows.tobytes() and flag is has_base
        if kind in LOSSLESS:
            assert rows.dtype == np.float32 and rows.shape == data.shape
            assert rows.tobytes() == data.tobytes()
        if kind in ("exact", "raw"):
            assert len(frame) == FRAME_HEADER_BYTES + 8 + data.nbytes

    @given(data=_matrices, has_base=st.booleans(), cut=st.integers(1, 64))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_truncation_is_a_value_error(self, kind, data, has_base, cut):
        encode, decode = FRAMES[kind]
        frame = bytes(encode(data, has_base))
        with pytest.raises(ValueError):
            decode(frame[:max(0, len(frame) - cut)])

    @given(data=_matrices, has_base=st.booleans(), where=st.data())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_bit_flip_never_escapes_the_wire_format(
        self, kind, data, has_base, where
    ):
        encode, decode = FRAMES[kind]
        has_base = has_base and kind == "exact"
        frame = bytearray(bytes(encode(data, has_base)))
        assert decode(bytes(frame))[0].size == _framed_count(kind, frame)
        bit = where.draw(st.integers(0, len(frame) * 8 - 1))
        frame[bit // 8] ^= 1 << (bit % 8)
        try:
            rows, flag = decode(bytes(frame))
        except ValueError:
            if kind in ("exact", "raw"):
                assert bit < (FRAME_HEADER_BYTES + 8) * 8  # header, shape
            return
        assert rows.size == _framed_count(kind, bytes(frame))
        if kind not in ("exact", "raw"):
            return
        # Accepted: the flip hit EXACT's has_base bit, a row value, or the
        # shape word in a way that keeps the element count (0 rows, or
        # cols 1 -> 0 which reads back as a vector).
        assert rows.dtype == np.float32 and rows.size == data.size
        assert bit == 32 or bit >= FRAME_HEADER_BYTES * 8
        assert (flag is not has_base) == (bit == 32)


class TestCorruptFrames:
    """Damaged frames (hostile input: the fault injector's corruption is
    a modelled, detected loss that flips no byte) must fail as
    wire-format ValueErrors, never as raw numpy buffer errors."""

    def _quant_frame(self, matrix, bits=4):
        return bytes(encode_quantized(BucketQuantizer(bits).encode(matrix)))

    def test_flipped_bits_byte_invalid_width(self, matrix):
        frame = bytearray(self._quant_frame(matrix))
        frame[24] = 0  # bits field: header (16) + shape (8)
        with pytest.raises(ValueError, match="invalid bit width"):
            decode_quantized(bytes(frame))
        frame[24] = 200
        with pytest.raises(ValueError, match="invalid bit width"):
            decode_quantized(bytes(frame))

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_only_ladder_widths_decode(self, bits, reference_pack_bits):
        """A well-formed frame at any width 1-16 — table and ids sized
        for it, ids laid out by the reference packer — decodes only if
        the width is one the quantizer writes."""
        import struct

        rng = np.random.default_rng(bits)
        ids = rng.integers(0, 1 << bits, size=12, dtype=np.uint32)
        table = np.arange(1 << bits, dtype=np.float32)
        payload = (
            struct.pack("<II", 3, 4)
            + struct.pack("<Bff", bits, 0.0, 1.0)
            + table.tobytes()
            + reference_pack_bits(ids, bits).tobytes()
        )
        frame = struct.pack("<HHIQ", 0xEC6A, 2, 1, len(payload)) + payload
        if bits not in SUPPORTED_BITS:
            with pytest.raises(ValueError, match="invalid bit width"):
                decode_quantized(frame)
            return
        decoded = decode_quantized(frame)
        assert decoded.bits == bits
        np.testing.assert_array_equal(
            decoded.decode(), table[ids].reshape(3, 4)
        )

    def test_flipped_bits_byte_wrong_payload_size(self, matrix):
        # 2 is a legal width, but the table and the packed ids were
        # sized for 4 bits.
        frame = bytearray(self._quant_frame(matrix, bits=4))
        frame[24] = 2
        with pytest.raises(ValueError, match="needs exactly"):
            decode_quantized(bytes(frame))

    def test_truncated_bucket_table(self, matrix):
        # Inflating the bits field makes the promised 2^B table far
        # larger than the bytes that follow.
        frame = bytearray(self._quant_frame(matrix, bits=4))
        frame[24] = 16
        with pytest.raises(ValueError, match="bucket table"):
            decode_quantized(bytes(frame))

    def test_short_packed_ids(self, matrix):
        import struct

        frame = self._quant_frame(matrix)
        payload = frame[16:-3]  # drop trailing packed bytes ...
        header = struct.pack("<HHIQ", 0xEC6A, 2, 1, len(payload))
        with pytest.raises(ValueError, match="needs exactly"):
            decode_quantized(header + payload)  # ... with a fixed header

    def test_truncated_before_metadata(self):
        import struct

        payload = struct.pack("<II", 3, 4)  # shape word only
        header = struct.pack("<HHIQ", 0xEC6A, 2, 1, len(payload))
        with pytest.raises(ValueError, match="truncated before"):
            decode_quantized(header + payload)

    @pytest.mark.parametrize("flags", [0, 2, 3])
    def test_quant_flags_other_than_the_table_bit_rejected(self, matrix, flags):
        """Flag bit 0 announces the bucket table, the one QUANT format;
        a frame without it (or with an unknown bit) is malformed."""
        frame = bytearray(self._quant_frame(matrix))
        assert frame[4] == 1  # flags word: magic (2) + kind (2)
        frame[4] = flags
        with pytest.raises(ValueError, match="flags"):
            decode_quantized(bytes(frame))

    @pytest.mark.parametrize("flags", [1, 2, 0xFFFF])
    def test_raw_flags_rejected(self, matrix, flags):
        """The RAW encoder sets no flag; a frame carrying one is
        malformed."""
        frame = bytearray(bytes(encode_raw(matrix)))
        assert frame[4] == 0  # flags word: magic (2) + kind (2)
        frame[4:6] = flags.to_bytes(2, "little")
        with pytest.raises(ValueError, match="flag bits"):
            decode_raw(bytes(frame))

    @pytest.mark.parametrize("flags", [1, 7])
    def test_selector_flags_rejected(self, matrix, flags):
        selection = np.zeros(matrix.shape[0], dtype=np.uint8)
        quantized = BucketQuantizer(4).encode(matrix)
        frame = bytearray(bytes(encode_selector(selection, quantized)))
        assert frame[4] == 0
        frame[4] = flags
        with pytest.raises(ValueError, match="flag bits"):
            decode_selector(bytes(frame))

    def test_corrupt_selector_sel_bytes(self, matrix):
        rng = np.random.default_rng(2)
        selection = rng.integers(0, 3, size=matrix.shape[0]).astype(np.uint8)
        quantized = BucketQuantizer(4).encode(matrix[selection != 1])
        frame = bytearray(bytes(encode_selector(selection, quantized)))
        # sel_bytes field: header (16) + shape (8) + predicted count (4).
        frame[28] = frame[28] + 1 & 0xFF
        with pytest.raises(ValueError, match="selector bytes"):
            decode_selector(bytes(frame))

    def test_hostile_selector_shape_hits_the_length_check(self, matrix):
        """A shape word that promises more selector ids than the lanes
        hold is refused by the wire-format check, before the 2-bit word
        view could read past (or numpy complain about) the buffer."""
        import struct

        selection = np.zeros(matrix.shape[0], dtype=np.uint8)
        quantized = BucketQuantizer(4).encode(matrix)
        frame = bytearray(bytes(encode_selector(selection, quantized)))
        for rows in (matrix.shape[0] + 4, 2**31):
            struct.pack_into("<II", frame, 16, rows, 0)
            with pytest.raises(ValueError, match="selector bytes"):
                decode_selector(bytes(frame))

    def test_hostile_lane_lengths_raise_value_error(self):
        """The 2/4-bit lanes view packed bytes as 16/32-bit words; a
        count the buffer cannot hold must fail the exact-length check,
        never surface as a numpy view or reshape error."""
        from repro.compression.quantization import unpack_bits

        for bits, nbytes, count in (
            (2, 3, 16), (2, 3, 8), (4, 5, 11), (4, 5, 8), (16, 3, 2),
        ):
            with pytest.raises(ValueError, match="need exactly"):
                unpack_bits(np.zeros(nbytes, dtype=np.uint8), bits, count)

    def test_selector_and_subset_must_agree(self, matrix):
        """The nested QUANT frame ships exactly the rows the selector
        does not predict (id 1); a selector that names more or fewer is
        refused before the requester could scatter them."""
        selection = np.zeros(matrix.shape[0], dtype=np.uint8)
        quantized = BucketQuantizer(4).encode(matrix)
        decode_selector(encode_selector(selection, quantized))
        selection[0] = 1  # one row predicted, yet every row ships
        with pytest.raises(ValueError, match="selector names"):
            decode_selector(encode_selector(selection, quantized))

    @given(
        selection=arrays(
            np.uint8, st.integers(0, 40), elements=st.integers(0, 2)
        ),
        delta=st.integers(1, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_selector_count_must_match_the_selection(self, selection, delta):
        """The predicted count feeds the Bit-Tuner, so it is untrusted
        like every other field: a frame whose count is not its
        selector's number of 1s is refused."""
        import struct

        shipped = np.zeros(np.count_nonzero(selection != 1), np.float32)
        frame = bytearray(bytes(
            encode_selector(selection, BucketQuantizer(4).encode(shipped))
        ))
        # The count is the first field after the shape word.
        (count,) = struct.unpack_from("<I", frame, MATRIX_PREFIX_BYTES)
        struct.pack_into(
            "<I", frame, MATRIX_PREFIX_BYTES, (count + delta) % 2**32
        )
        with pytest.raises(ValueError, match="predicted entries"):
            decode_selector(bytes(frame))

    def test_corrupt_nested_quant_in_selector(self, matrix):
        rng = np.random.default_rng(3)
        selection = rng.integers(0, 3, size=matrix.shape[0]).astype(np.uint8)
        quantized = BucketQuantizer(4).encode(matrix[selection != 1])
        frame = bytearray(bytes(encode_selector(selection, quantized)))
        sel_bytes = (2 * selection.size + 7) // 8
        nested = 16 + 8 + 8 + sel_bytes  # nested QUANT frame's magic
        frame[nested] ^= 0xFF
        with pytest.raises(ValueError, match="bad magic"):
            decode_selector(bytes(frame))
