"""Unit + property tests for bucket quantization (the paper's C_bits)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster.serialize import encode_quantized
from repro.compression.quantization import (
    SUPPORTED_BITS,
    BucketQuantizer,
    pack_bits,
    unpack_bits,
)


def assert_width_refused(values, packed, bits):
    """A width outside ``SUPPORTED_BITS`` is refused by both kernels, even
    for in-range values and a buffer sized exactly for that width."""
    with pytest.raises(ValueError, match="bits must be in"):
        pack_bits(values, bits)
    with pytest.raises(ValueError, match="bits must be in"):
        unpack_bits(packed, bits, values.size)


class TestPackBits:
    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 7, 8, 11, 16])
    def test_roundtrip(self, bits, reference_pack_bits):
        rng = np.random.default_rng(bits)
        values = rng.integers(0, 1 << bits, size=100, dtype=np.uint32)
        if bits not in SUPPORTED_BITS:
            assert_width_refused(
                values, reference_pack_bits(values, bits), bits
            )
            return
        packed = pack_bits(values, bits)
        recovered = unpack_bits(packed, bits, 100)
        np.testing.assert_array_equal(recovered, values)

    def test_packed_size(self):
        values = np.arange(16, dtype=np.uint32) % 4
        packed = pack_bits(values, 2)
        assert packed.size == 4  # 16 values * 2 bits = 32 bits = 4 bytes

    def test_value_too_large_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            pack_bits(np.array([4], dtype=np.uint32), 2)

    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            pack_bits(np.array([0], dtype=np.uint32), 0)
        with pytest.raises(ValueError):
            unpack_bits(np.zeros(1, dtype=np.uint8), 17, 1)

    def test_empty(self):
        packed = pack_bits(np.array([], dtype=np.uint32), 4)
        assert unpack_bits(packed, 4, 0).size == 0

    @given(
        values=st.lists(st.integers(0, 255), min_size=0, max_size=200),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property_8bit(self, values):
        arr = np.array(values, dtype=np.uint32)
        np.testing.assert_array_equal(
            unpack_bits(pack_bits(arr, 8), 8, arr.size), arr
        )


class TestBucketQuantizer:
    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_error_bounded_by_half_bucket(self, bits):
        rng = np.random.default_rng(0)
        x = rng.uniform(-3, 5, size=(40, 16)).astype(np.float32)
        q = BucketQuantizer(bits)
        decoded = q.quantize(x)
        # Midpoint representatives: half a bucket width at worst.
        bound = (x.max() - x.min()) / (2 * q.num_buckets) + 1e-5
        assert np.abs(decoded - x).max() <= bound

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 8)).astype(np.float32)
        errors = [
            np.abs(BucketQuantizer(b).quantize(x) - x).mean()
            for b in (1, 2, 4, 8)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    def test_constant_matrix_exact(self):
        x = np.full((3, 3), 0.7, dtype=np.float32)
        decoded = BucketQuantizer(2).quantize(x)
        np.testing.assert_allclose(decoded, 0.7, atol=1e-6)

    def test_explicit_domain(self):
        x = np.array([[0.5]], dtype=np.float32)
        q = BucketQuantizer(1)
        encoded = q.encode(x, lo=0.0, hi=1.0)
        assert encoded.lo == 0.0 and encoded.hi == 1.0
        # 0.5 lands in bucket 1 of [0, 0.5)[0.5, 1); midpoint 0.75.
        assert encoded.decode()[0, 0] == pytest.approx(0.75)

    def test_same_domain_same_ids_for_subsets(self):
        """Re-encoding a row subset with the full-matrix domain must give
        the same decoded values (the ReqEC selector depends on this)."""
        rng = np.random.default_rng(2)
        x = rng.uniform(0, 1, size=(10, 4)).astype(np.float32)
        q = BucketQuantizer(4)
        full = q.encode(x)
        subset = q.encode(x[3:6], lo=full.lo, hi=full.hi)
        np.testing.assert_array_equal(full.decode()[3:6], subset.decode())

    def test_empty_matrix(self):
        q = BucketQuantizer(4)
        encoded = q.encode(np.zeros((0, 8), dtype=np.float32))
        assert encoded.decode().shape == (0, 8)

    def test_unsupported_bits_rejected(self):
        with pytest.raises(ValueError):
            BucketQuantizer(3)

    def test_invalid_domain_rejected(self):
        with pytest.raises(ValueError):
            BucketQuantizer(2).encode(np.ones((2, 2)), lo=1.0, hi=0.0)

    def test_payload_smaller_than_raw(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((200, 64)).astype(np.float32)
        for bits in (1, 2, 4, 8):
            encoded = BucketQuantizer(bits).encode(x)
            assert len(encode_quantized(encoded)) < x.nbytes

    @given(
        x=arrays(
            np.float32,
            st.tuples(st.integers(1, 20), st.integers(1, 8)),
            elements=st.floats(-100, 100, width=32),
        ),
        bits=st.sampled_from(SUPPORTED_BITS),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_error_bound(self, x, bits):
        q = BucketQuantizer(bits)
        decoded = q.quantize(x)
        span = float(x.max() - x.min())
        bound = span / (2 * (1 << bits)) + 1e-4 * max(1.0, span)
        assert np.abs(decoded - x).max() <= bound

    @given(
        x=arrays(
            np.float32,
            st.tuples(st.integers(1, 12), st.integers(1, 6)),
            elements=st.floats(-10, 10, width=32),
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_decode_within_domain(self, x):
        q = BucketQuantizer(4)
        decoded = q.quantize(x)
        assert decoded.min() >= x.min() - 1e-4
        assert decoded.max() <= x.max() + 1e-4

    def test_quantization_idempotent(self):
        """Quantizing an already-quantized matrix is a fixed point when
        the domain is unchanged (values sit at bucket midpoints)."""
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 1, size=(20, 5)).astype(np.float32)
        q = BucketQuantizer(4)
        once = q.quantize(x, lo=0.0, hi=1.0)
        twice = q.quantize(once, lo=0.0, hi=1.0)
        np.testing.assert_allclose(once, twice, atol=1e-6)


class TestKernelEquivalence:
    """The arithmetic kernels must be byte-identical to the original
    bit-matrix implementation (the ``reference_pack_bits`` fixture in
    conftest.py) — the wire layout is a compatibility contract, not an
    implementation detail. Widths outside ``SUPPORTED_BITS`` have no
    kernel: both refuse them."""

    @pytest.mark.parametrize("bits", list(range(1, 17)))
    def test_pack_byte_identical_to_reference(self, bits, reference_pack_bits):
        rng = np.random.default_rng(bits)
        for size in (0, 1, 3, 7, 8, 9, 15, 16, 17, 100, 1001):
            values = rng.integers(0, 1 << bits, size=size, dtype=np.uint32)
            if bits not in SUPPORTED_BITS:
                assert_width_refused(
                    values, reference_pack_bits(values, bits), bits
                )
                continue
            assert pack_bits(values, bits).tobytes() == (
                reference_pack_bits(values, bits).tobytes()
            ), f"bits={bits} size={size}"

    @pytest.mark.parametrize("bits", list(range(1, 17)))
    def test_unpack_inverts_reference_pack(self, bits, reference_pack_bits):
        rng = np.random.default_rng(100 + bits)
        for size in (1, 8, 9, 63, 100):
            values = rng.integers(0, 1 << bits, size=size, dtype=np.uint32)
            packed = reference_pack_bits(values, bits)
            if bits not in SUPPORTED_BITS:
                assert_width_refused(values, packed, bits)
                continue
            np.testing.assert_array_equal(
                unpack_bits(packed, bits, size), values
            )


class TestStrictBufferLength:
    """A buffer must hold exactly ``count`` values; a width outside
    ``SUPPORTED_BITS`` is refused before any length check."""

    @pytest.mark.parametrize("bits", [1, 3, 4, 8, 11, 16])
    def test_oversized_buffer_rejected(self, bits, reference_pack_bits):
        values = np.arange(10, dtype=np.uint32) % (1 << bits)
        if bits not in SUPPORTED_BITS:
            packed = reference_pack_bits(values, bits)
            padded = np.concatenate([packed, np.zeros(3, dtype=np.uint8)])
            assert_width_refused(values, padded, bits)
            return
        packed = pack_bits(values, bits)
        padded = np.concatenate([packed, np.zeros(3, dtype=np.uint8)])
        with pytest.raises(ValueError, match="exactly"):
            unpack_bits(padded, bits, 10)

    @pytest.mark.parametrize("bits", [1, 3, 4, 8, 11, 16])
    def test_short_buffer_rejected(self, bits, reference_pack_bits):
        values = np.arange(10, dtype=np.uint32) % (1 << bits)
        if bits not in SUPPORTED_BITS:
            packed = reference_pack_bits(values, bits)
            assert_width_refused(values, packed[:-1], bits)
            return
        packed = pack_bits(values, bits)
        with pytest.raises(ValueError, match="exactly"):
            unpack_bits(packed[:-1], bits, 10)


class TestEmptyMatrixBounds:
    def test_explicit_bounds_honored_for_empty_input(self):
        """Regression: an empty matrix used to discard the caller's
        (lo, hi) and encode a [0, 0] domain — the all-predicted ReqEC
        selector payload then shipped wrong bounds."""
        q = BucketQuantizer(4)
        encoded = q.encode(np.zeros((0, 8), dtype=np.float32), lo=-1.5, hi=3.0)
        assert encoded.lo == -1.5
        assert encoded.hi == 3.0
        np.testing.assert_array_equal(
            encoded.bucket_values, q.representatives(-1.5, 3.0)
        )

    def test_empty_input_default_bounds(self):
        q = BucketQuantizer(4)
        encoded = q.encode(np.zeros((0, 8), dtype=np.float32))
        assert encoded.lo == 0.0 and encoded.hi == 0.0

    def test_empty_input_invalid_bounds_rejected(self):
        q = BucketQuantizer(4)
        with pytest.raises(ValueError, match="invalid domain"):
            q.encode(np.zeros((0, 4), dtype=np.float32), lo=2.0, hi=-2.0)


class TestEncodeIds:
    def test_encode_ids_matches_encode(self):
        rng = np.random.default_rng(9)
        x = rng.uniform(-2, 2, size=(23, 7)).astype(np.float32)
        q = BucketQuantizer(4)
        ids, reps, lo, hi = q.encode_ids(x)
        via_encode = q.encode(x)
        assert (lo, hi) == (via_encode.lo, via_encode.hi)
        np.testing.assert_array_equal(reps, via_encode.bucket_values)
        assert pack_bits(ids, 4).tobytes() == via_encode.packed.tobytes()

    def test_sliced_ids_equal_subset_reencode(self):
        """Slicing full-matrix ids is wire-identical to re-encoding the
        value subset with the full matrix's explicit domain — the
        invariant the single-quantize ReqEC respond path relies on."""
        rng = np.random.default_rng(10)
        x = rng.uniform(-1, 4, size=(30, 5)).astype(np.float32)
        q = BucketQuantizer(8)
        ids, reps, lo, hi = q.encode_ids(x)
        mask = rng.random(30) < 0.5
        sub = x[mask]
        sliced = q.from_ids(
            ids.reshape(x.shape)[mask].ravel(), sub.shape, reps, lo, hi
        )
        direct = q.encode(sub, lo=lo, hi=hi)
        assert sliced.packed.tobytes() == direct.packed.tobytes()
        np.testing.assert_array_equal(
            sliced.bucket_values, direct.bucket_values
        )


# ----------------------------------------------------------------------
# The narrow-id pipeline against the pre-rewrite arithmetic (the
# ``reference_encode_ids`` / ``reference_decode`` fixtures in conftest.py
# are verbatim copies of the replaced code)
# ----------------------------------------------------------------------
# 13 and 2**16 + 3 are odd and no multiple of any lane count (2, 4, 8).
_DIFF_SIZES = (0, 1, 7, 13, 2**16 + 3)
_DIFF_DOMAINS = {
    "data-derived": {},
    "out-of-domain": {"lo": -0.75, "hi": 1.25},
    "degenerate": {"lo": 0.5, "hi": 0.5},
}


class TestNarrowPathMatchesReference:
    @pytest.mark.parametrize("domain", sorted(_DIFF_DOMAINS))
    @pytest.mark.parametrize("size", _DIFF_SIZES)
    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_ids_bytes_and_decode(
        self, bits, size, domain, reference_encode_ids, reference_decode,
        reference_pack_bits,
    ):
        bounds = _DIFF_DOMAINS[domain]
        rng = np.random.default_rng(bits * 1000 + size % 997)
        x = (rng.standard_normal(size) * 2.0).astype(np.float32)
        q = BucketQuantizer(bits)
        want_ids = reference_encode_ids(bits, x, **bounds)

        ids, _, _, _ = q.encode_ids(x, **bounds)
        assert ids.dtype.itemsize == (1 if bits <= 8 else 2)
        np.testing.assert_array_equal(
            ids.astype(np.int64), want_ids.astype(np.int64)
        )

        encoded = q.encode(x, **bounds)
        assert encoded.packed.dtype == np.uint8
        assert encoded.packed.tobytes() == (
            reference_pack_bits(want_ids, bits).tobytes()
        )
        got = encoded.decode()
        want = reference_decode(encoded)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_matrix_shape_survives(self, bits, reference_decode):
        x = np.random.default_rng(bits).random((37, 5)).astype(np.float32)
        encoded = BucketQuantizer(bits).encode(x)
        np.testing.assert_array_equal(
            encoded.decode(), reference_decode(encoded)
        )
        assert encoded.decode().shape == (37, 5)

    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_decode_rejects_wrong_buffer_length(self, bits):
        encoded = BucketQuantizer(bits).encode(
            np.linspace(0, 1, 24, dtype=np.float32)
        )
        encoded.packed = np.concatenate(
            [encoded.packed, np.zeros(2, dtype=np.uint8)]
        )
        with pytest.raises(ValueError, match="exactly"):
            encoded.decode()

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.int64])
    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_pack_bits_accepts_any_integer_dtype(
        self, bits, dtype, reference_pack_bits
    ):
        top = min(1 << bits, np.iinfo(dtype).max + 1)
        values = np.random.default_rng(bits).integers(0, top, size=101)
        assert pack_bits(values.astype(dtype), bits).tobytes() == (
            reference_pack_bits(values, bits).tobytes()
        )

    @pytest.mark.parametrize("bits", [1, 2, 4, 8])
    def test_pack_bits_still_rejects_out_of_range(self, bits):
        for dtype in (np.uint16, np.uint32, np.int64):
            with pytest.raises(ValueError, match="fit"):
                pack_bits(np.array([0, 1 << bits], dtype=dtype), bits)
        with pytest.raises(ValueError, match="fit"):
            pack_bits(np.array([0, -1], dtype=np.int64), bits)

    def test_public_pack_never_aliases_its_input(self):
        values = np.arange(8, dtype=np.uint8)
        packed = pack_bits(values, 8)
        packed[:] = 0
        np.testing.assert_array_equal(values, np.arange(8, dtype=np.uint8))


class TestNonFiniteInput:
    """Where NaN/Inf are resolved moved from the int64 cast to the float
    domain; the ids must not have. Non-finite elements (and every
    element of a non-finite data-derived domain) land in bucket 0, as
    the old ``NaN -> int64 -> clip`` chain put them on x86-64, and no
    cast warning escapes any more."""

    CASES = {
        "nan": [0.1, np.nan, 0.7, -0.3],
        "+inf": [0.1, np.inf, 0.7, -0.3],
        "-inf": [0.1, -np.inf, 0.7, -0.3],
        "mixed": [np.inf, -np.inf, 0.7, np.nan],
        "all-nan": [np.nan] * 5,
    }
    DOMAINS = {
        "data-derived": {},
        "explicit": {"lo": -1.0, "hi": 1.0},
        "degenerate": {"lo": 0.5, "hi": 0.5},
    }

    @pytest.mark.parametrize("domain", sorted(DOMAINS))
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("bits", SUPPORTED_BITS)
    def test_same_ids_as_before_and_no_warning(
        self, bits, case, domain, reference_encode_ids
    ):
        import warnings

        x = np.array(self.CASES[case], dtype=np.float32)
        bounds = self.DOMAINS[domain]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the old chain warned
            want = reference_encode_ids(bits, x, **bounds)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ids, reps, _, _ = BucketQuantizer(bits).encode_ids(x, **bounds)
            decoded = BucketQuantizer(bits).encode(x, **bounds).decode()
        np.testing.assert_array_equal(
            ids.astype(np.int64), want.astype(np.int64)
        )
        assert decoded.shape == x.shape
        # Every non-finite element sits in bucket 0 ...
        assert not ids[~np.isfinite(x)].any()
        if domain == "explicit":
            # ... and the finite ones still quantize normally.
            finite = np.isfinite(x)
            clean = reference_encode_ids(bits, x[finite], **bounds)
            np.testing.assert_array_equal(ids[finite], clean)
        elif domain == "data-derived":
            assert not ids.any() and not np.isfinite(reps).any()
