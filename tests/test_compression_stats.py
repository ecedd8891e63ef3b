"""Unit tests for the compression quality report."""

import numpy as np
import pytest

from repro.compression.quantization import BucketQuantizer
from repro.compression.stats import compression_report


@pytest.fixture
def matrix():
    rng = np.random.default_rng(0)
    return rng.standard_normal((30, 16)).astype(np.float32)


class TestCompressionReport:
    def test_ratio_and_errors(self, matrix):
        encoded = BucketQuantizer(2).encode(matrix)
        report = compression_report(
            matrix, encoded.decode(), encoded.payload_bytes()
        )
        assert report.ratio > 5
        assert report.l1_error > 0
        assert 0 < report.relative_l2 < 1

    def test_lossless_report(self, matrix):
        report = compression_report(matrix, matrix.copy(), matrix.nbytes)
        assert report.l2_error == 0.0
        assert report.ratio == pytest.approx(1.0)

    def test_shape_mismatch(self, matrix):
        with pytest.raises(ValueError):
            compression_report(matrix, matrix[:-1], 10)
