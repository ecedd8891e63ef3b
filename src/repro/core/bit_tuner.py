"""The adaptive Bit-Tuner (paper section IV-B, Algorithm 3 lines 13-18).

The tuner watches, per (responder, requester) worker pair, the proportion
of vertices for which the Selector chose the *predicted* approximation.
A high proportion means the trend extrapolation is beating the quantizer —
i.e. the compressed embeddings are too lossy — so the bit width doubles;
a low proportion means quantization is already accurate enough and the
width halves to save bandwidth. The ladder is the paper's
``{1, 2, 4, 8, 16}``: the quantizer's ``SUPPORTED_BITS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.compression.quantization import SUPPORTED_BITS

__all__ = [
    "BitTuner",
    "DEFAULT_RAISE_THRESHOLD",
    "DEFAULT_LOWER_THRESHOLD",
]

# The paper's tuning thresholds on the predicted proportion (section
# IV-B): double the width above 60%, halve it below 40%. These are the
# single source of truth — ``ECGraphConfig.tuner_raise``/``tuner_lower``
# default to them.
DEFAULT_RAISE_THRESHOLD = 0.6
DEFAULT_LOWER_THRESHOLD = 0.4


@dataclass
class BitTuner:
    """Per-channel-pair adaptive bit widths.

    Attributes:
        initial_bits: Starting width for every pair.
        raise_threshold: Double ``B`` when the predicted proportion
            exceeds this (paper: 0.6).
        lower_threshold: Halve ``B`` when it drops below this (paper: 0.4).
        enabled: When False the tuner always reports ``initial_bits``
            (the fixed-bit configurations of Figs. 6-8).
    """

    initial_bits: int = 4
    raise_threshold: float = DEFAULT_RAISE_THRESHOLD
    lower_threshold: float = DEFAULT_LOWER_THRESHOLD
    enabled: bool = True
    # Called as ``observer(pair, new_bits)`` on every width change; the
    # telemetry health monitor hooks in here to audit the trajectory.
    observer: Callable[[tuple[int, int], int], None] | None = field(
        default=None, repr=False, compare=False
    )
    _bits: dict[tuple[int, int], int] = field(default_factory=dict)
    _history: list[tuple[tuple[int, int], int]] = field(default_factory=list)

    def __post_init__(self):
        if self.initial_bits not in SUPPORTED_BITS:
            raise ValueError(
                f"initial_bits must be one of {SUPPORTED_BITS}, got {self.initial_bits}"
            )
        if not 0.0 <= self.lower_threshold < self.raise_threshold <= 1.0:
            raise ValueError("need 0 <= lower < raise <= 1")

    def bits(self, pair: tuple[int, int]) -> int:
        """Current width for a (responder, requester) pair."""
        return self._bits.get(pair, self.initial_bits)

    def update(self, pair: tuple[int, int], predicted_proportion: float) -> int:
        """Apply one tuning step; returns the (possibly new) width.

        Called once per iteration per pair, with the proportion observed
        at the last forward layer (Algorithm 3, ``l == L``).
        """
        if not 0.0 <= predicted_proportion <= 1.0:
            raise ValueError(
                f"proportion must be in [0, 1], got {predicted_proportion}"
            )
        current = self.bits(pair)
        if not self.enabled:
            return current
        new = current
        if predicted_proportion > self.raise_threshold and current < SUPPORTED_BITS[-1]:
            new = current * 2
        elif predicted_proportion < self.lower_threshold and current > SUPPORTED_BITS[0]:
            new = current // 2
        if new != current:
            self._bits[pair] = new
            self._history.append((pair, new))
            if self.observer is not None:
                self.observer(pair, new)
        return new

    def escalate(
        self,
        pairs,
        bits: int = SUPPORTED_BITS[-1],
    ) -> list[tuple[int, int]]:
        """Force the given pairs to (at least) ``bits`` wide.

        The convergence watchdog calls this after a divergence trip:
        post-rollback, the affected channels re-run at high precision so
        compression error cannot re-trigger the divergence. Unlike
        :meth:`update` this ignores ``enabled`` — a safety override must
        apply to fixed-bit configurations too. Returns the pairs whose
        width actually changed.
        """
        if bits not in SUPPORTED_BITS:
            raise ValueError(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
        changed = []
        for pair in sorted(pairs):
            if self.bits(pair) >= bits:
                continue
            self._bits[pair] = bits
            self._history.append((pair, bits))
            if self.observer is not None:
                self.observer(pair, bits)
            changed.append(pair)
        return changed

    def history(self) -> list[tuple[tuple[int, int], int]]:
        """All width changes, in order (for the ablation benchmarks)."""
        return list(self._history)

    def reset(self) -> None:
        self._bits.clear()
        self._history.clear()
