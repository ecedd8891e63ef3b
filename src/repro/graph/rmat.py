"""R-MAT (recursive matrix) graph specification.

The planted-partition graphs of :mod:`repro.graph.generators` carry
learnable community structure; R-MAT produces the opposite stress case —
heavily skewed, community-free graphs like web crawls — which is the
worst case for edge-cut partitioners and a good adversarial input for
the communication layer (huge hubs concentrate halo traffic on few
workers). :func:`repro.graph.streaming.stream_rmat_graph` builds it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RMATSpec"]


@dataclass(frozen=True)
class RMATSpec:
    """Parameters of an R-MAT graph.

    Attributes:
        scale: ``log2`` of the vertex count.
        edge_factor: Directed edges per vertex (before dedup).
        a / b / c: Quadrant probabilities (``d = 1 - a - b - c``). The
            classic Graph500 skew is (0.57, 0.19, 0.19).
        feature_dim / num_classes: Attribute generation (labels are
            random — R-MAT has no community signal to learn).
        seed: Generator seed.
    """

    scale: int = 10
    edge_factor: int = 8
    a: float = 0.57
    b: float = 0.19
    c: float = 0.19
    feature_dim: int = 16
    num_classes: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.scale < 2 or self.scale > 26:
            raise ValueError("scale must be in [2, 26] (one vertex per split)")
        if self.edge_factor < 1:
            raise ValueError("edge_factor must be >= 1")
        total = self.a + self.b + self.c
        if min(self.a, self.b, self.c) < 0 or total >= 1.0:
            raise ValueError("need a, b, c >= 0 and a + b + c < 1")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if not 2 <= self.num_classes <= self.num_vertices:
            raise ValueError(
                f"num_classes must be in [2, {self.num_vertices}]"
            )

    @property
    def num_vertices(self) -> int:
        return 1 << self.scale
