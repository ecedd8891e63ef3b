"""Per-layer numbers that spans cannot give: direct calls into a layer's
public functions on the workload's own data, and counters the program
already keeps. Names are ``repro.<module>`` layers (see ``metrics.py``).
"""

from __future__ import annotations

import resource
import statistics
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.cluster.serialize import (
    decode_quantized, decode_raw, encode_quantized, encode_raw,
)
from repro.compression.quantization import BucketQuantizer, pack_bits, unpack_bits
from repro.core.worker import build_worker_states
from repro.graph.normalize import normalized_adjacency
from repro.graph.store.mmapstore import open_bundle
from repro.partition import partition_stats

from measure import EpochSample, cycle_estimate, is_trend, median_time, percentile
from tracer import EXCHANGE_SPANS, POLICY_SPANS, ROUND_SPANS, STAGE_SPANS, Tracer
from workloads import MODEL

__all__ = [
    "proc_metrics", "epoch_metrics", "span_metrics", "codec_metrics",
    "graph_metrics", "store_metrics", "counter_metrics",
]


def _timed(fn: Any) -> tuple[float, Any]:
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def proc_metrics(samples: list[EpochSample], calib_s: float, rss_mb: float) -> dict:
    return {
        "proc.user_cpu_s_per_epoch": statistics.median(s.user_cpu for s in samples),
        "proc.sys_cpu_s_per_epoch": statistics.median(s.sys_cpu for s in samples),
        "proc.minor_faults_per_epoch": statistics.median(
            s.minor_faults for s in samples
        ),
        "proc.calib_s": calib_s,
        "proc.rss_after_setup_mb": rss_mb,
    }


def epoch_metrics(samples: list[EpochSample], period: int | None) -> dict:
    walls = [s.wall for s in samples]
    trend = [s.wall for s in samples if is_trend(s.t, period)]
    regular = [s.wall for s in samples if not is_trend(s.t, period)]
    return {
        "epoch.regular_wall_s": statistics.median(regular),
        "epoch.trend_wall_s": statistics.median(trend) if trend else 0.0,
        # Highest percentile that leaves a third of the samples beyond it.
        "epoch.wall_p67_s": percentile(walls, 67),
        "epoch.samples": len(samples),
        "epoch.compute_modelled_s": cycle_estimate(
            ((s.t, s.result.breakdown.compute_seconds) for s in samples), period
        ),
    }


def span_metrics(tracer: Tracer, ts: list[int], period: int | None) -> dict:
    """Per-epoch span times with the end-to-end estimator, so the layers
    add up to ``epoch_wall_s``. ``ts`` names the traced epochs in order;
    epoch 0 is warm-up and left out."""
    tables = [
        (t, table) for t, table in zip(ts, tracer.per_root("epoch")) if t > 0
    ]

    def per_epoch(names: tuple[str, ...] | str, field: str = "total") -> float:
        if isinstance(names, str):
            names = (names,)
        return cycle_estimate(
            ((t, sum(table.get(n, {}).get(field, 0.0) for n in names))
             for t, table in tables),
            period,
        )

    def share(names: tuple[str, ...]) -> float:
        return statistics.median(
            sum(table.get(n, {}).get("total", 0.0) for n in names)
            / table["epoch"]["total"]
            for _, table in tables
        )

    stages, rounds, policies, exchanges = (
        STAGE_SPANS, ROUND_SPANS, POLICY_SPANS, EXCHANGE_SPANS
    )
    out = {f"{span}_s": per_epoch(span) for span in stages + policies + exchanges}
    out.update({
        "engine.stage_coverage": share(stages),
        # Gather, scatter and metering: what is left of an exchange once
        # the policy spans inside it are taken out.
        "engine.exchange_self_s": per_epoch(exchanges, "self"),
        "engine.exchange_calls": per_epoch(exchanges, "calls"),
        "engine.kernel_fwd_s": per_epoch("executor.forward_kernels"),
        "engine.kernel_bwd_s": per_epoch(rounds[1:3]),
        "engine.loss_scan_s": per_epoch("executor.loss_scan"),
        "cluster.ps_pull_s": per_epoch("cluster.ps_pull"),
        "cluster.ps_push_s": per_epoch("cluster.ps_push"),
        "cluster.ps_apply_s": per_epoch("cluster.ps_apply"),
        "core.policy_calls": per_epoch(policies, "calls"),
        "trace.missing": len(tracer.missing),
        # Share of the epoch outside the kernel rounds: under mp the
        # workers idle for it, so it caps any multiprocess speed-up.
        "mp.supervisor_share": 1.0 - share(rounds),
    })
    return out


def counter_metrics(
    counters: dict, tuner: Any, samples: list[EpochSample]
) -> dict:
    """From the respond-hook tallies, the Bit-Tuner and the traffic meter."""

    def bits(direction: str) -> float:
        elements = counters[f"{direction}_elements"]
        return 8.0 * counters[f"{direction}_bytes"] / elements if elements else 0.0

    def category(*names: str) -> float:
        return statistics.mean(
            sum(s.result.breakdown.category_bytes.get(n, 0) for n in names)
            for s in samples
        )

    pairs = sorted(counters["pairs"])
    predicted = (
        counters["reqec_predicted_rows"] / counters["reqec_rows"]
        if counters["reqec_rows"] else 0.0
    )
    return {
        "core.fp_bits_per_elem": bits("fp"),
        "core.bp_bits_per_elem": bits("bp"),
        "core.reqec_predicted_share": predicted,
        "core.tuner_mean_bits": (
            statistics.mean(tuner.bits(pair) for pair in pairs)
            if pairs and counters["reqec_rows"] else 0.0
        ),
        "cluster.wire_bytes_fp": category("fp_embeddings"),
        "cluster.wire_bytes_bp": category("bp_gradients"),
        "cluster.wire_bytes_params": category("param_pull", "param_push"),
        "cluster.messages_per_epoch": statistics.median(s.messages for s in samples),
    }


def codec_metrics(workers: list, seed: int) -> dict:
    """Bit-packing, quantisation and framing on a float32 matrix shaped
    like the workload's largest forward channel."""
    rows = max(
        (served.size for state in workers for served in state.serves.values()),
        default=1,
    )
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, MODEL.hidden_dim)).astype(np.float32)
    n = matrix.size
    out = {}
    for b in (2, 4, 8):
        ids = rng.integers(0, 1 << b, size=n, dtype=np.uint32)
        packed = pack_bits(ids, b)
        out[f"compression.pack_ns_per_elem.b{b}"] = (
            median_time(lambda: pack_bits(ids, b)) / n * 1e9
        )
        out[f"compression.unpack_ns_per_elem.b{b}"] = (
            median_time(lambda: unpack_bits(packed, b, n)) / n * 1e9
        )
    quantizer = BucketQuantizer(4)
    quantized = quantizer.encode(matrix)
    out["compression.quantize_ns_per_elem.b4"] = (
        median_time(lambda: quantizer.encode_ids(matrix)) / n * 1e9
    )
    out["compression.dequantize_ns_per_elem.b4"] = (
        median_time(quantized.decode) / n * 1e9
    )
    quant_frame = encode_quantized(quantized)
    raw_frame = encode_raw(matrix)
    for name, fn, nbytes in (
        ("encode_quantized", lambda: encode_quantized(quantized), len(quant_frame)),
        ("decode_quantized", lambda: decode_quantized(quant_frame), len(quant_frame)),
        ("encode_raw", lambda: encode_raw(matrix), len(raw_frame)),
        ("decode_raw", lambda: decode_raw(raw_frame), len(raw_frame)),
    ):
        out[f"cluster.{name}_mb_per_s"] = nbytes / 1e6 / median_time(fn)
    return out


def graph_metrics(graph: Any, partition: Any) -> dict:
    """``graph``, ``partition`` and ``core`` set-up functions, called
    directly on the workload's own graph."""

    def normalize() -> Any:
        normalized = normalized_adjacency(graph.adjacency, "gcn")
        # The store view is lazy: touch every block so the work happens.
        for _ in normalized.iter_adjacency():
            pass
        return normalized

    normalize_s, normalized = _timed(normalize)
    stats_s, stats = _timed(lambda: partition_stats(graph.adjacency, partition))
    build_s, _ = _timed(lambda: build_worker_states(graph, normalized, partition))
    return {
        "graph.normalize_s": normalize_s,
        "partition.stats_s": stats_s,
        "partition.edge_cut_ratio": stats.edge_cut_ratio,
        "partition.total_halo": stats.total_halo,
        "core.build_workers_s": build_s,
    }


def _hit_ratio(cache: Any) -> float:
    if cache is None:
        return 0.0
    stats = cache.stats()
    lookups = stats["hits"] + stats["misses"]
    return stats["hits"] / lookups if lookups else 0.0


def store_metrics(graph: Any, partition: Any, store_dir: Path | None) -> dict:
    """Read the caches' lifetime counters first (they describe set-up and
    training), then gather one partition's feature rows cold."""
    features = graph.feature_store
    feature_cache = getattr(features, "cache", None)
    out = {
        "store.feature_cache_hit_ratio": _hit_ratio(feature_cache),
        "store.adj_cache_hit_ratio": _hit_ratio(
            getattr(graph.adjacency, "cache", None)
        ),
        "store.open_s": 0.0,
        "store.bytes_on_disk": 0,
    }
    ids = partition.part_vertices(0)
    if feature_cache is not None:
        feature_cache.drop_all()
    gather_s, _ = _timed(lambda: np.ascontiguousarray(features.rows(ids)))
    out["store.gather_rows_per_s"] = ids.size / gather_s
    if store_dir is not None:
        out["store.open_s"] = median_time(lambda: open_bundle(store_dir), repeats=3)
        out["store.bytes_on_disk"] = sum(
            p.stat().st_size for p in store_dir.rglob("*") if p.is_file()
        )
    return out


def children_rusage() -> tuple[float, float]:
    """(cpu seconds, peak RSS MiB) of every child waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0
