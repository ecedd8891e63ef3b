"""Unit tests for softmax cross-entropy and its gradient."""

import numpy as np
import pytest

from repro.nn.losses import log_softmax, softmax_cross_entropy


class TestLogSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        z = rng.standard_normal((10, 5))
        np.testing.assert_allclose(
            np.exp(log_softmax(z)).sum(axis=1), 1.0, atol=1e-6
        )

    def test_shift_invariance(self):
        z = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(
            log_softmax(z), log_softmax(z + 100.0), atol=1e-6
        )

    def test_large_logits_stable(self):
        z = np.array([[1e4, -1e4, 0.0]])
        s = log_softmax(z)
        assert np.isfinite(s).all()
        assert s[0, 0] == pytest.approx(0.0)


class TestCrossEntropy:
    def test_perfect_prediction_low_loss(self):
        logits = np.eye(3) * 50.0
        labels = np.arange(3)
        result = softmax_cross_entropy(logits, labels)
        assert result.loss < 1e-6
        assert result.accuracy == 1.0

    def test_uniform_prediction_loss_is_log_k(self):
        logits = np.zeros((4, 5))
        labels = np.zeros(4, dtype=np.int64)
        result = softmax_cross_entropy(logits, labels)
        assert result.loss == pytest.approx(np.log(5), abs=1e-5)

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((6, 4)).astype(np.float64)
        labels = rng.integers(0, 4, size=6)
        result = softmax_cross_entropy(logits, labels)
        eps = 1e-5
        for i in range(6):
            for j in range(4):
                bumped = logits.copy()
                bumped[i, j] += eps
                up = softmax_cross_entropy(bumped, labels).loss
                bumped[i, j] -= 2 * eps
                down = softmax_cross_entropy(bumped, labels).loss
                numeric = (up - down) / (2 * eps)
                assert result.grad[i, j] == pytest.approx(numeric, abs=1e-4)

    def test_mask_zeroes_excluded_rows(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, size=5)
        mask = np.array([True, False, True, False, False])
        result = softmax_cross_entropy(logits, labels, mask)
        assert result.count == 2
        assert not result.grad[~mask].any()

    def test_masked_labels_may_be_invalid(self):
        logits = np.zeros((3, 2))
        labels = np.array([0, -1, 1])  # -1 outside mask
        mask = np.array([True, False, True])
        result = softmax_cross_entropy(logits, labels, mask)
        assert np.isfinite(result.loss)

    def test_empty_mask(self):
        logits = np.zeros((3, 2))
        labels = np.zeros(3, dtype=np.int64)
        result = softmax_cross_entropy(logits, labels, np.zeros(3, dtype=bool))
        assert result.loss == 0.0
        assert result.count == 0
        assert result.accuracy == 0.0

    def test_gradient_rows_sum_to_zero(self):
        # d(sum_k CE)/dz sums to zero per row: softmax minus one-hot.
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((7, 5))
        labels = rng.integers(0, 5, size=7)
        result = softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(result.grad.sum(axis=1), 0.0, atol=1e-6)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros((3, 2)), np.zeros(4, dtype=np.int64))

    def test_1d_logits_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(np.zeros(3), np.zeros(3, dtype=np.int64))

    def test_bad_mask_shape_rejected(self):
        with pytest.raises(ValueError):
            softmax_cross_entropy(
                np.zeros((3, 2)),
                np.zeros(3, dtype=np.int64),
                np.zeros(4, dtype=bool),
            )
