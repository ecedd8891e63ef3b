"""Graph partitioning: Hash (the paper's default), streaming BFS/LDG, a
METIS-like multilevel edge-cut partitioner and recursive spectral
bisection, plus quality statistics.
"""

from repro.partition.base import Partition, Partitioner
from repro.partition.bfs import BFSPartitioner
from repro.partition.hashing import HashPartitioner
from repro.partition.metis_like import MetisLikePartitioner
from repro.partition.spectral import SpectralPartitioner
from repro.partition.stats import PartitionStats, partition_stats

__all__ = [
    "Partition",
    "Partitioner",
    "BFSPartitioner",
    "HashPartitioner",
    "MetisLikePartitioner",
    "SpectralPartitioner",
    "PartitionStats",
    "partition_stats",
    "make_partitioner",
]


def make_partitioner(name: str, seed: int = 0):
    """Build a partitioner by name (hash, bfs, metis or spectral)."""
    registry = {
        "hash": lambda: HashPartitioner(),
        "bfs": lambda: BFSPartitioner(seed=seed),
        "metis": lambda: MetisLikePartitioner(seed=seed),
        "spectral": lambda: SpectralPartitioner(seed=seed),
    }
    try:
        return registry[name.lower()]()
    except KeyError:
        known = ", ".join(sorted(registry))
        raise KeyError(f"unknown partitioner {name!r}; known: {known}") from None
