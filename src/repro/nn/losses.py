"""Loss functions for vertex classification.

The paper trains GCN with softmax + cross-entropy over the labelled
training vertices (Algorithm 1, lines 12-13). The distributed backward pass
starts from ``dL/dZ^L`` which for softmax cross-entropy is the well-known
``softmax(Z) - onehot(y)`` restricted to the training mask, so the loss here
returns both the scalar loss and that gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["log_softmax", "LossResult", "softmax_cross_entropy"]


def log_softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = z - np.max(z, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


@dataclass(frozen=True)
class LossResult:
    """Scalar loss together with the gradient w.r.t. the logits.

    Attributes:
        loss: Mean cross-entropy over the masked vertices.
        grad: ``dL/dZ`` with the same shape as the logits; rows outside the
            mask are zero so unlabelled vertices contribute no gradient.
        correct: Number of masked vertices whose argmax matches the label.
        count: Number of masked vertices.
    """

    loss: float
    grad: np.ndarray
    correct: int
    count: int

    @property
    def accuracy(self) -> float:
        return self.correct / self.count if self.count else 0.0


def softmax_cross_entropy(
    logits: np.ndarray,
    labels: np.ndarray,
    mask: np.ndarray | None = None,
) -> LossResult:
    """Mean softmax cross-entropy over masked rows, with gradient.

    Args:
        logits: ``(n, num_classes)`` raw scores ``Z^L``.
        labels: ``(n,)`` integer class ids. Entries outside the mask may be
            arbitrary (e.g. ``-1`` for unlabelled vertices).
        mask: Optional boolean ``(n,)`` selecting the rows that contribute
            to the loss. ``None`` means all rows.

    Returns:
        A :class:`LossResult`. The gradient is already divided by the mask
        size, matching the mean reduction, so the caller feeds it directly
        into the backward recursion of Eq. (4).
    """
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    n = logits.shape[0]
    if labels.shape != (n,):
        raise ValueError(
            f"labels shape {labels.shape} does not match logits rows {n}"
        )
    if mask is None:
        mask = np.ones(n, dtype=bool)
    elif mask.shape != (n,):
        raise ValueError(f"mask shape {mask.shape} does not match logits rows {n}")

    count = int(mask.sum())
    grad = np.zeros_like(logits, dtype=np.float32)
    if count == 0:
        return LossResult(loss=0.0, grad=grad, correct=0, count=0)

    masked_logits = logits[mask]
    masked_labels = labels[mask]
    logp = log_softmax(masked_logits, axis=1)
    picked = logp[np.arange(count), masked_labels]
    loss = float(-picked.mean())

    probs = np.exp(logp)
    probs[np.arange(count), masked_labels] -= 1.0
    grad[mask] = (probs / count).astype(np.float32)

    predictions = masked_logits.argmax(axis=1)
    correct = int((predictions == masked_labels).sum())
    return LossResult(loss=loss, grad=grad, correct=correct, count=count)
