"""The bench suites: codec micro-kernels, halo exchange, full epochs.

Three levels of the same hot path, so a regression can be localized:

* ``kernels`` — ``pack_bits`` / ``unpack_bits`` per bit width, new
  kernels against the bit-matrix references
  (:mod:`repro.bench.reference`), in ns/element;
* ``exchange`` — one full halo exchange through
  :class:`~repro.engine.transport.HaloTransport` under
  ``CompressPolicy``;
* ``epoch`` — wall seconds of ``ECGraphTrainer.run_epoch`` with the
  default config, against the same epoch on the reference codec;
* ``epoch_multiprocess`` — the same epoch under
  ``execution="multiprocess"`` (real worker processes + shared memory)
  vs the inline engine.

Timing samples are funnelled through a
:class:`~repro.obs.registry.MetricsRegistry` so the report carries the
same summary-stat shape (count/mean/min/max) as the telemetry exports.
"""

from __future__ import annotations

import resource
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.bench.harness import SCHEMA, best_seconds
from repro.bench.reference import pack_bits_reference, unpack_bits_reference
from repro.cluster.engine import ClusterRuntime
from repro.cluster.topology import ClusterSpec
from repro.compression.quantization import pack_bits, unpack_bits
from repro.core.policies import CompressPolicy
from repro.core.worker import build_worker_states
from repro.engine.transport import HaloTransport
from repro.graph.datasets import load_dataset
from repro.graph.normalize import gcn_normalize
from repro.obs.registry import MetricsRegistry
from repro.partition.hashing import HashPartitioner

__all__ = [
    "run_bench", "bench_codec", "bench_exchange", "bench_epoch",
    "bench_epoch_multiprocess", "bench_large", "peak_rss_bytes",
]

_SMOKE = dict(elements=20_000, widths=(2, 4, 8), repeats=3,
              profile="tiny", epochs=2, exchange_repeats=3)
_FULL = dict(elements=400_000, widths=(1, 2, 3, 4, 8, 16), repeats=9,
             profile="bench", epochs=3, exchange_repeats=5)

# The out-of-core tier (``repro bench --profile large``): stream an
# R-MAT graph straight to an mmap store, then drive the store-native
# pipeline steps over it. Full is the paper-scale 2^20 = 1,048,576
# vertices with a 256 MiB on-disk feature matrix — deliberately bigger
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
    semantics the out-of-core check wants (nothing before the large
    suite may have materialized the features either).
    """
    peak = int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return peak if sys.platform == "darwin" else peak * 1024


def bench_codec(params: dict, metrics: MetricsRegistry) -> dict:
    """Time pack/unpack per width, new kernels vs references."""
    kernels: dict[str, dict] = {}
    rng = np.random.default_rng(7)
    n = params["elements"]
    for bits in params["widths"]:
        ids = rng.integers(0, 1 << bits, size=n, dtype=np.uint32)
        packed = pack_bits(ids, bits)
        cases = {
            f"pack_bits[bits={bits}]": (
                lambda ids=ids, bits=bits: pack_bits(ids, bits),
                lambda ids=ids, bits=bits: pack_bits_reference(ids, bits),
            ),
            f"unpack_bits[bits={bits}]": (
                lambda packed=packed, bits=bits: unpack_bits(packed, bits, n),
                lambda packed=packed, bits=bits: (
                    unpack_bits_reference(packed, bits, n)
                ),
            ),
        }
        for name, (new, reference) in cases.items():
            new_s = best_seconds(new, repeats=params["repeats"])
            ref_s = best_seconds(reference, repeats=params["repeats"])
            entry = {
                "ns_per_element": new_s / n * 1e9,
                "reference_ns_per_element": ref_s / n * 1e9,
                "speedup_vs_reference": ref_s / new_s if new_s > 0 else 0.0,
            }
            kernels[name] = entry
            metrics.observe("bench_kernel_ns", entry["ns_per_element"],
                            kernel=name)
    return kernels


def bench_exchange(params: dict, metrics: MetricsRegistry) -> dict:
    """One full halo exchange through the transport."""
    dim = 32
    graph = load_dataset("cora", profile="tiny", seed=3)
    normalized = gcn_normalize(graph.adjacency)
    partition = HashPartitioner().partition(graph.adjacency, 3)
    workers = build_worker_states(graph, normalized, partition)
    transport = HaloTransport(
        ClusterRuntime(ClusterSpec(num_workers=3)), workers
    )
    rng = np.random.default_rng(11)
    values = [rng.random((s.num_local, dim)).astype(np.float32)
              for s in workers]
    policy = CompressPolicy(bits=4)

    def one_exchange():
        transport.exchange(
            layer=1, t=0, rows_of=lambda s: values[s.worker_id],
            policy=policy, category="fp_embeddings", dim=dim,
        )

    seconds = best_seconds(one_exchange, repeats=params["exchange_repeats"])
    metrics.observe("bench_exchange_seconds", seconds, variant="sequential")
    return {"sequential_seconds": seconds}


def _epoch_seconds(graph, overrides: dict, epochs: int) -> float:
    from repro.cluster import ClusterSpec as ApiClusterSpec
    from repro.core import ECGraphTrainer, ModelConfig
    from repro.core.config import ECGraphConfig

    trainer = ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=32),
        ApiClusterSpec(num_workers=3), ECGraphConfig(**overrides),
    )
    trainer.setup()
    trainer.run_epoch(0)  # warm-up epoch: caches, first-hop reuse
    start = time.perf_counter()
    for t in range(1, epochs + 1):
        trainer.run_epoch(t)
    seconds = (time.perf_counter() - start) / epochs
    trainer.close()
    return seconds


def _stage_profile(graph, epochs: int) -> dict:
    """Per-stage wall seconds of one instrumented trainer.

    Runs with only the stage profiler enabled (no tracing, health or
    ledger) so the per-stage numbers carry minimal instrumentation
    overhead; the warm-up epoch is profiled too but discarded with a
    ``profiler.reset()`` so caches don't pollute the steady state.
    """
    from repro.cluster import ClusterSpec as ApiClusterSpec
    from repro.core import ECGraphTrainer, ModelConfig
    from repro.core.config import ECGraphConfig
    from repro.obs import ObsConfig

    trainer = ECGraphTrainer(
        graph, ModelConfig(num_layers=2, hidden_dim=32),
        ApiClusterSpec(num_workers=3),
        ECGraphConfig(obs=ObsConfig(
            enabled=True, trace=False, health=False, ledger=False,
            epoch_snapshots=False,
        )),
    )
    trainer.setup()
    trainer.run_epoch(0)  # warm-up epoch: caches, first-hop reuse
    trainer.obs.profiler.reset()
    rounds = max(epochs, 3)
    for t in range(1, rounds + 1):
        trainer.run_epoch(t)
    profile = trainer.obs.profiler.profile()
    # Same noise-rejection idiom as the kernels' best-of-repeats: a
    # scheduler hiccup landing between stages of a sub-millisecond
    # epoch envelope can only ever *lower* coverage, so the
    # least-disturbed epoch is the honest measurement.
    best_coverage = max(t.coverage for t in profile.epochs)
    return {
        "stages": {
            stage: agg["wall_seconds"] / rounds
            for stage, agg in profile.stage_totals().items()
        },
        "stage_coverage": best_coverage,
    }


def bench_epoch(params: dict, metrics: MetricsRegistry) -> dict:
    """Measured (not modelled) wall seconds per training epoch.

    ``reference_codec`` runs the same trainer with the old bit-matrix
    pack/unpack kernels swapped back in — the "before" of the packing
    rewrite, on identical everything else (byte-dividing widths decode
    by one gather per packed byte and have no unpack step to swap).
    ``default`` is the shipped configuration. ``stages``
    attributes the default configuration's epoch to the five engine
    stages (per-epoch wall seconds, profiler-measured), so a
    ``--compare`` regression can be localized to the stage that moved.
    """
    from repro.compression import quantization

    graph = load_dataset("cora", profile=params["profile"], seed=3)
    epochs = params["epochs"]
    results = {}

    with mock.patch.multiple(
        quantization,
        pack_bits=pack_bits_reference,
        _pack_ids=pack_bits_reference,
        unpack_bits=unpack_bits_reference,
    ):
        results["reference_codec_seconds"] = _epoch_seconds(graph, {}, epochs)

    results["default_seconds"] = _epoch_seconds(graph, {}, epochs)
    for variant in ("reference_codec", "default"):
        metrics.observe("bench_epoch_seconds",
                        results[f"{variant}_seconds"], variant=variant)
    if results["default_seconds"] > 0:
        results["speedup_vs_reference_codec"] = (
            results["reference_codec_seconds"] / results["default_seconds"]
        )
    results.update(_stage_profile(graph, epochs))
    for stage, seconds in results["stages"].items():
        metrics.observe("bench_stage_seconds", seconds, stage=stage)
    return results


def bench_epoch_multiprocess(params: dict, metrics: MetricsRegistry) -> dict:
    """Epoch wall seconds with real worker processes vs the inline
    engine, on this host.

    Two configurations of the identical training run: ``sequential``
    (the default inline engine) and ``multiprocess``
    (``execution="multiprocess"``: one OS process per worker over
    shared memory). ``host_cpus`` is recorded because the
    multiprocess numbers are only meaningful relative to it — on a
    single-CPU host the processes time-slice one core and pay IPC on
    top, so ``speedup_multiprocess`` < 1 there is the host's ceiling,
    not a code regression (see docs/execution.md).
    """
    import os

    graph = load_dataset("cora", profile=params["profile"], seed=3)
    epochs = params["epochs"]
    results = {"host_cpus": os.cpu_count() or 1}
    results["sequential_seconds"] = _epoch_seconds(graph, {}, epochs)
    results["multiprocess_seconds"] = _epoch_seconds(
        graph, {"execution": "multiprocess"}, epochs
    )
    for variant in ("sequential", "multiprocess"):
        metrics.observe("bench_epoch_mp_seconds",
                        results[f"{variant}_seconds"], variant=variant)
    if results["multiprocess_seconds"] > 0:
        results["speedup_multiprocess"] = (
            results["sequential_seconds"] / results["multiprocess_seconds"]
        )
    return results


def bench_large(params: dict, metrics: MetricsRegistry) -> dict:
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
    for step in ("generate", "partition", "stats", "subgraph", "gather"):
        metrics.observe("bench_large_seconds", results[f"{step}_seconds"],
                        step=step)
    return results


def run_bench(
    smoke: bool = False,
    execution: str | None = None,
    profile: str = "core",
) -> dict:
    """Run the suites; returns the report dict (see harness docs).

    ``execution`` narrows the run: ``"multiprocess"`` runs only the
    multiprocess epoch suite, ``"sync"`` only the single-process suites,
    ``None`` (default) everything. ``profile="large"`` runs *only* the
    out-of-core tier — nothing else may run in the process, so its
    peak-RSS measurement is attributable to the large suite alone.
    Every report carries ``peak_rss_bytes`` for the whole run.
    """
    metrics = MetricsRegistry()
    if profile == "large":
        params = dict(_LARGE_SMOKE if smoke else _LARGE_FULL)
        report = {
            "schema": SCHEMA,
            "profile": "large-smoke" if smoke else "large",
            "large": bench_large(params, metrics),
        }
    elif profile == "core":
        params = dict(_SMOKE if smoke else _FULL)
        report = {
            "schema": SCHEMA,
            "profile": "smoke" if smoke else "full",
        }
        if execution != "multiprocess":
            report["kernels"] = bench_codec(params, metrics)
            report["exchange"] = bench_exchange(params, metrics)
            report["epoch"] = bench_epoch(params, metrics)
        if execution != "sync":
            report["epoch_multiprocess"] = bench_epoch_multiprocess(
                params, metrics
            )
    else:
        raise ValueError(f"unknown bench profile {profile!r}; "
                         "expected 'core' or 'large'")
    report["metrics"] = metrics.snapshot().as_dict()
    report["peak_rss_bytes"] = peak_rss_bytes()
    return report
