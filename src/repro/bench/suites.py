"""The out-of-core bench tier: a million-vertex graph through the mmap
store.

Epoch time and wire bytes are measured by the end-to-end benchmark in
``bench/`` (``python3 bench/run.py``); this tier covers what it does not
— the store-native set-up pipeline at a scale whose feature matrix
exceeds the chunk cache, with the process's peak resident set recorded
against the on-disk feature bytes.
"""

from __future__ import annotations

import resource
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.partition.hashing import HashPartitioner

__all__ = ["run_bench", "bench_large", "peak_rss_bytes"]

# ``repro bench``: stream an R-MAT graph straight to an mmap store, then
# drive the store-native pipeline steps over it. Full is the paper-scale
# 2^20 = 1,048,576 vertices with a 512 MiB on-disk feature matrix — deliberately bigger
# than the LRU residency budget, so the peak-RSS check below is a real
# out-of-core claim. Smoke shrinks everything to a CI-sized graph
# (seconds, not minutes); its RSS number is dominated by the
# interpreter, so only the full tier asserts RSS < feature bytes.
_LARGE_SMOKE = dict(scale=14, edge_factor=8, feature_dim=32,
                    num_workers=4, chunk_vertices=1 << 12,
                    resident_blocks=4, gather_parts=2)
_LARGE_FULL = dict(scale=20, edge_factor=8, feature_dim=128,
                   num_workers=8, chunk_vertices=1 << 16,
                   resident_blocks=4, gather_parts=2)


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kibibytes on Linux and bytes on macOS; the high-
    water mark covers the whole process lifetime, which is exactly the
    semantics the out-of-core check wants (nothing before the tier may
    have materialized the features either).
    """
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak if sys.platform == "darwin" else peak * 1024


def bench_large(params: dict) -> dict:
    """The million-vertex out-of-core tier, end to end.

    Streams an R-MAT graph into an mmap :class:`GraphStoreBundle` in a
    temporary directory and times the store-native pipeline a real run
    performs: generation, adjacency-free hash partitioning, streaming
    partition statistics (the halo plan's cost model), one worker's
    induced subgraph, and gathering that worker's feature rows through
    the chunk cache. No step is allowed to materialize the feature
    matrix — ``rss_below_features`` records whether the process
    high-water mark indeed stayed under the on-disk feature bytes.
    """
    from repro.graph.rmat import RMATSpec
    from repro.graph.streaming import stream_rmat_graph
    from repro.graph.subgraph import induced_subgraph
    from repro.partition.stats import partition_stats

    spec = RMATSpec(
        scale=params["scale"], edge_factor=params["edge_factor"],
        feature_dim=params["feature_dim"], seed=17,
    )
    results: dict = {
        "num_vertices": spec.num_vertices,
        "feature_dim": spec.feature_dim,
        "num_workers": params["num_workers"],
    }
    with tempfile.TemporaryDirectory(prefix="ecgraph-bench-large-") as root:
        start = time.perf_counter()
        bundle = stream_rmat_graph(
            spec, backend="mmap", out_dir=root,
            chunk_vertices=params["chunk_vertices"],
            max_resident_blocks=params["resident_blocks"],
        )
        results["generate_seconds"] = time.perf_counter() - start
        results["num_edges"] = bundle.num_edges

        store = bundle.feature_store
        feature_bytes = (
            int(np.prod(store.shape, dtype=np.int64)) * store.dtype.itemsize
        )
        results["feature_bytes_on_disk"] = feature_bytes
        results["store_bytes_on_disk"] = sum(
            p.stat().st_size for p in Path(root).rglob("*") if p.is_file()
        )

        start = time.perf_counter()
        partition = HashPartitioner().partition(
            bundle.adjacency, params["num_workers"]
        )
        results["partition_seconds"] = time.perf_counter() - start

        start = time.perf_counter()
        stats = partition_stats(bundle.adjacency, partition)
        results["stats_seconds"] = time.perf_counter() - start
        results["edge_cut_ratio"] = stats.edge_cut_ratio
        results["total_halo"] = stats.total_halo

        # Each step below models a fresh worker's bootstrap; dropping
        # the LRU residency between them keeps one step's cached chunks
        # from inflating the next step's resident footprint.
        bundle.adjacency.cache.drop_all()

        start = time.perf_counter()
        sub = induced_subgraph(bundle.adjacency, partition.part_vertices(0))
        results["subgraph_seconds"] = time.perf_counter() - start
        results["part0_local"] = len(sub.local_vertices)
        results["part0_remote"] = len(sub.remote_vertices)
        del sub
        bundle.adjacency.cache.drop_all()

        gathered_rows = 0
        gathered_bytes = 0
        start = time.perf_counter()
        for part in range(min(params["gather_parts"], partition.num_parts)):
            rows = store.rows(partition.part_vertices(part))
            gathered_rows += rows.shape[0]
            gathered_bytes += rows.nbytes
            del rows
        gather_seconds = time.perf_counter() - start
        results["gather_seconds"] = gather_seconds
        results["gather_rows"] = gathered_rows
        if gather_seconds > 0:
            results["gather_mb_per_second"] = (
                gathered_bytes / gather_seconds / 1e6
            )
        results["feature_cache"] = store.cache.stats()

    peak = peak_rss_bytes()
    results["peak_rss_bytes"] = peak
    results["rss_to_feature_ratio"] = (
        peak / feature_bytes if feature_bytes else 0.0
    )
    results["rss_below_features"] = bool(peak < feature_bytes)
    return results


def run_bench(smoke: bool = False) -> dict:
    """Run the out-of-core tier; returns the report dict.

    Nothing else runs in the process, so the peak-RSS measurement is
    attributable to this tier alone.
    """
    params = _LARGE_SMOKE if smoke else _LARGE_FULL
    return {
        "profile": "large-smoke" if smoke else "large",
        "large": bench_large(params),
    }
