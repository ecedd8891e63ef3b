"""Synthetic attributed-graph specifications.

The paper's experiments run on public graphs (Cora, Pubmed, Reddit,
OGBN-Products, OGBN-Papers) that cannot be downloaded in this offline
environment, so we generate graphs with matched statistics instead (see
DESIGN.md section 2). GCN behaviour on these benchmarks is driven by

* **homophily** — most edges connect same-class vertices; this is what a
  localized spectral convolution exploits,
* **degree** — the paper's key axis: high-degree graphs (Reddit, 492) are
  far more sensitive to message quantization than sparse ones (Cora, 3.9),
* **feature informativeness** — noisy class-conditional features.

A :class:`GraphSpec` describes one such graph: a planted community
structure (a degree-corrected stochastic block model) with Gaussian
class-centroid features. :func:`repro.graph.streaming.stream_graph`
builds it, in RAM or straight into an on-disk store.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GraphSpec", "power_law_degrees"]


@dataclass(frozen=True)
class GraphSpec:
    """Parameters for one synthetic attributed graph.

    Attributes:
        name: Dataset name used in reports.
        num_vertices: Vertex count ``n``.
        avg_degree: Target mean (undirected) degree; the generated directed
            graph stores both arcs, so ``num_edges ~ n * avg_degree``.
        feature_dim: Dimensionality of ``X_V``.
        num_classes: Number of planted communities / label classes.
        homophily: Probability that a sampled edge stays inside the class.
        feature_noise: Std-dev of the Gaussian noise added to the class
            centroid for each vertex (centroids have unit-ish norm).
        power_law: If > 0, degrees follow a Pareto-like distribution with
            this shape parameter (smaller = heavier tail); 0 gives
            near-uniform degrees.
        label_noise: Fraction of vertices whose *observed* label is
            resampled uniformly at random. Structure and features follow
            the true labels, so this sets an irreducible accuracy ceiling
            of ``1 - label_noise * (1 - 1/num_classes)`` — the knob used
            to match each paper dataset's published test accuracy.
        train / val / test: Split sizes (vertex counts).
        seed: Generator seed; two calls with equal specs give equal graphs.
    """

    name: str
    num_vertices: int
    avg_degree: float
    feature_dim: int
    num_classes: int
    homophily: float = 0.8
    feature_noise: float = 1.0
    power_law: float = 0.0
    label_noise: float = 0.0
    train: int = 0
    val: int = 0
    test: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.num_vertices < 3:
            raise ValueError("need at least three vertices (one per split)")
        if not 0.0 <= self.homophily <= 1.0:
            raise ValueError("homophily must be in [0, 1]")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.num_classes > self.num_vertices:
            raise ValueError("num_classes must not exceed num_vertices")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        if self.avg_degree <= 0:
            raise ValueError("avg_degree must be positive")
        if self.power_law < 0:
            raise ValueError("power_law must be >= 0 (0 = uniform degrees)")
        if self.feature_noise < 0:
            raise ValueError("feature_noise must be >= 0")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError("label_noise must be in [0, 1)")


def power_law_degrees(
    num_vertices: int,
    avg_degree: float,
    shape: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample integer target degrees with a heavy-tailed distribution.

    A Pareto sample is rescaled to the requested mean and clipped to
    ``[1, num_vertices - 1]``. ``shape`` around 1.5-2.5 resembles social
    graphs; larger shapes concentrate the distribution.
    """
    if shape <= 0:
        raise ValueError("shape must be positive")
    raw = rng.pareto(shape, size=num_vertices) + 1.0
    scaled = raw * (avg_degree / raw.mean())
    return np.clip(np.round(scaled), 1, num_vertices - 1).astype(np.int64)
