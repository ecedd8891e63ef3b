"""Graph partitioning: Hash (the paper's default) and a METIS-like
multilevel edge-cut partitioner (the paper's Fig. 11 axis), plus quality
statistics.
"""

from repro.partition.base import Partition, Partitioner
from repro.partition.hashing import HashPartitioner
from repro.partition.metis_like import MetisLikePartitioner
from repro.partition.stats import PartitionStats, partition_stats

__all__ = [
    "Partition",
    "Partitioner",
    "HashPartitioner",
    "MetisLikePartitioner",
    "PartitionStats",
    "partition_stats",
    "make_partitioner",
    "partitioner_names",
]

_REGISTRY = {
    "hash": lambda seed: HashPartitioner(),
    "metis": lambda seed: MetisLikePartitioner(seed=seed),
}


def partitioner_names() -> list[str]:
    """Names :func:`make_partitioner` accepts: hash first, the default."""
    return list(_REGISTRY)


def make_partitioner(name: str, seed: int = 0) -> Partitioner:
    """Build a partitioner by name (hash or metis)."""
    try:
        return _REGISTRY[name.lower()](seed)
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown partitioner {name!r}; known: {known}") from None
