"""Classification metrics used in the evaluation (Table V reports accuracy)."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


def accuracy(
    predictions: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray | None = None,
) -> float:
    """Fraction of masked vertices whose prediction matches the label."""
    if predictions.shape != labels.shape:
        raise ValueError(
            f"shape mismatch: predictions {predictions.shape} vs labels {labels.shape}"
        )
    if mask is not None:
        predictions = predictions[mask]
        labels = labels[mask]
    if predictions.size == 0:
        return 0.0
    return float((predictions == labels).mean())
