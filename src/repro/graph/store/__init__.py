"""Graph & feature storage behind one abstraction.

``GraphStore`` (CSR topology) + ``FeatureStore`` (row-addressable dense
data) with two backends: ``memory`` (wraps resident arrays; ``memory_bundle``
builds a resident graph) and ``mmap`` (npy chunk
files + manifest + LRU residency). See ``docs/storage.md``.
"""

from repro.graph.store.base import FeatureStore, GraphStore, GraphStoreBundle
from repro.graph.store.builder import StoreBuilder
from repro.graph.store.external import ChunkedEdgeArray, ExternalSorter
from repro.graph.store.memory import (
    MemoryFeatureStore,
    MemoryGraphStore,
    memory_bundle,
)
from repro.graph.store.mmapstore import (
    ChunkCache,
    MmapFeatureStore,
    MmapGraphStore,
    MmapStoreWriter,
    open_bundle,
    read_manifest,
    to_mmap_bundle,
)
from repro.graph.store.normalized import NormalizedGraphStore

__all__ = [
    "FeatureStore",
    "GraphStore",
    "GraphStoreBundle",
    "StoreBuilder",
    "ChunkedEdgeArray",
    "ExternalSorter",
    "MemoryFeatureStore",
    "MemoryGraphStore",
    "memory_bundle",
    "ChunkCache",
    "MmapFeatureStore",
    "MmapGraphStore",
    "MmapStoreWriter",
    "NormalizedGraphStore",
    "open_bundle",
    "read_manifest",
    "to_mmap_bundle",
]
