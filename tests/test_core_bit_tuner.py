"""Unit tests for the adaptive Bit-Tuner."""

import pytest

from repro.compression.quantization import SUPPORTED_BITS
from repro.core.bit_tuner import BitTuner

PAIR = (0, 1)


class TestTuning:
    def test_initial_bits(self):
        tuner = BitTuner(initial_bits=4)
        assert tuner.bits(PAIR) == 4

    def test_high_proportion_doubles(self):
        tuner = BitTuner(initial_bits=4)
        assert tuner.update(PAIR, 0.7) == 8
        assert tuner.bits(PAIR) == 8

    def test_low_proportion_halves(self):
        tuner = BitTuner(initial_bits=4)
        assert tuner.update(PAIR, 0.3) == 2

    def test_middle_band_stable(self):
        tuner = BitTuner(initial_bits=4)
        assert tuner.update(PAIR, 0.5) == 4

    def test_thresholds_exclusive(self):
        # Exactly 0.6 / 0.4 do not trigger (paper: "more than", "below").
        tuner = BitTuner(initial_bits=4)
        assert tuner.update(PAIR, 0.6) == 4
        assert tuner.update(PAIR, 0.4) == 4

    def test_ceiling_at_16(self):
        tuner = BitTuner(initial_bits=16)
        assert tuner.update(PAIR, 0.99) == 16

    def test_floor_at_1(self):
        tuner = BitTuner(initial_bits=1)
        assert tuner.update(PAIR, 0.0) == 1

    def test_ladder_walk(self):
        tuner = BitTuner(initial_bits=1)
        widths = [tuner.update(PAIR, 0.9) for _ in range(6)]
        assert widths == [2, 4, 8, 16, 16, 16]
        assert all(w in SUPPORTED_BITS for w in widths)

    def test_per_pair_independence(self):
        tuner = BitTuner(initial_bits=4)
        tuner.update((0, 1), 0.9)
        assert tuner.bits((0, 1)) == 8
        assert tuner.bits((2, 1)) == 4

    def test_disabled_tuner_never_moves(self):
        tuner = BitTuner(initial_bits=4, enabled=False)
        assert tuner.update(PAIR, 0.99) == 4
        assert tuner.update(PAIR, 0.0) == 4

    def test_history_records_changes(self):
        tuner = BitTuner(initial_bits=4)
        tuner.update(PAIR, 0.9)
        tuner.update(PAIR, 0.5)
        tuner.update(PAIR, 0.1)
        assert tuner.history() == [(PAIR, 8), (PAIR, 4)]

    def test_reset(self):
        tuner = BitTuner(initial_bits=4)
        tuner.update(PAIR, 0.9)
        tuner.reset()
        assert tuner.bits(PAIR) == 4
        assert tuner.history() == []


class TestValidation:
    def test_off_ladder_initial(self):
        with pytest.raises(ValueError):
            BitTuner(initial_bits=3)

    def test_bad_thresholds(self):
        with pytest.raises(ValueError):
            BitTuner(raise_threshold=0.4, lower_threshold=0.6)

    def test_bad_proportion(self):
        tuner = BitTuner()
        with pytest.raises(ValueError):
            tuner.update(PAIR, 1.5)
