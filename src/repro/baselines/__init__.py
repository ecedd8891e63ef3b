"""Baseline systems reimplemented on the shared simulated substrate:
standalone DGL/PyG, DistGNN (delayed aggregation), DistDGL (online
sampling), AGL and AliGraph-FG (ML-centered), plus EC-Graph's own
ablation arms.
"""

from repro.baselines.ml_centered import CachedKHopBackend, capped_khop_subgraph
from repro.baselines.systems import (
    SYSTEMS,
    default_fanouts,
    run_system,
    system_names,
)

__all__ = [
    "CachedKHopBackend",
    "capped_khop_subgraph",
    "SYSTEMS",
    "default_fanouts",
    "run_system",
    "system_names",
]
