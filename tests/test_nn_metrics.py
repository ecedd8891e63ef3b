"""Unit tests for classification metrics."""

import numpy as np
import pytest

from repro.nn.metrics import accuracy


class TestAccuracy:
    def test_all_correct(self):
        y = np.array([0, 1, 2])
        assert accuracy(y, y) == 1.0

    def test_half_correct(self):
        assert accuracy(np.array([0, 1]), np.array([0, 0])) == 0.5

    def test_masked(self):
        pred = np.array([0, 1, 2, 0])
        true = np.array([0, 0, 2, 1])
        mask = np.array([True, False, True, False])
        assert accuracy(pred, true, mask) == 1.0

    def test_empty_returns_zero(self):
        assert accuracy(np.array([]), np.array([])) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros(3), np.zeros(4))
