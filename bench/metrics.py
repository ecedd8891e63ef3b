"""Metric names, units and directions — the vocabulary later changes are
judged by. ``BENCHMARK.json`` at the repository root lists the same
names (``test_smoke.py`` checks the two agree); bounds live there.

A per-layer metric reads 0 on a workload that does not exercise its
layer (``mp.*`` on a sync row, ``store.*_cache_*`` on a memory store).
"""

from __future__ import annotations

__all__ = ["END_TO_END", "PER_LAYER", "DETERMINISTIC", "as_metrics"]

# (name, unit, better)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("epoch_wall_s", "s", "lower"),
    ("epoch_modelled_s", "s", "lower"),
    ("epoch_comm_modelled_s", "s", "lower"),
    ("wire_bytes_per_epoch", "bytes", "lower"),
    ("final_loss", "nats", "lower"),
    ("final_test_acc", "fraction", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

# Same seed => same value, to the last digit.
DETERMINISTIC = (
    "epoch_comm_modelled_s", "wire_bytes_per_epoch", "final_loss",
    "final_test_acc",
)

PER_LAYER = (
    # proc
    ("proc.user_cpu_s_per_epoch", "s", "lower"),
    ("proc.sys_cpu_s_per_epoch", "s", "lower"),
    ("proc.minor_faults_per_epoch", "count", "lower"),
    ("proc.calib_s", "s", "lower"),
    ("proc.rss_after_setup_mb", "MiB", "lower"),
    # epoch
    ("epoch.regular_wall_s", "s", "lower"),
    ("epoch.trend_wall_s", "s", "lower"),
    ("epoch.wall_p67_s", "s", "lower"),
    ("epoch.samples", "count", "higher"),
    ("epoch.compute_modelled_s", "s", "lower"),
    # setup
    ("setup.cold_s", "s", "lower"),
    ("setup.first_epoch_s", "s", "lower"),
    # graph
    ("graph.ingest_s", "s", "lower"),
    ("graph.normalize_s", "s", "lower"),
    # graph.store
    ("store.open_s", "s", "lower"),
    ("store.gather_rows_per_s", "rows/s", "higher"),
    ("store.feature_cache_hit_ratio", "ratio", "higher"),
    ("store.adj_cache_hit_ratio", "ratio", "higher"),
    ("store.bytes_on_disk", "bytes", "lower"),
    # partition
    ("partition.partition_s", "s", "lower"),
    ("partition.stats_s", "s", "lower"),
    ("partition.edge_cut_ratio", "ratio", "lower"),
    ("partition.total_halo", "count", "lower"),
    # core
    ("core.build_workers_s", "s", "lower"),
    ("core.fp_respond_s", "s", "lower"),
    ("core.fp_receive_s", "s", "lower"),
    ("core.bp_respond_s", "s", "lower"),
    ("core.bp_receive_s", "s", "lower"),
    ("core.policy_calls", "count", "lower"),
    ("core.fp_bits_per_elem", "bits/elem", "lower"),
    ("core.bp_bits_per_elem", "bits/elem", "lower"),
    ("core.reqec_predicted_share", "ratio", "higher"),
    ("core.tuner_mean_bits", "bits", "lower"),
    # compression
    ("compression.pack_ns_per_elem.b2", "ns/elem", "lower"),
    ("compression.pack_ns_per_elem.b4", "ns/elem", "lower"),
    ("compression.pack_ns_per_elem.b8", "ns/elem", "lower"),
    ("compression.unpack_ns_per_elem.b2", "ns/elem", "lower"),
    ("compression.unpack_ns_per_elem.b4", "ns/elem", "lower"),
    ("compression.unpack_ns_per_elem.b8", "ns/elem", "lower"),
    ("compression.quantize_ns_per_elem.b4", "ns/elem", "lower"),
    ("compression.dequantize_ns_per_elem.b4", "ns/elem", "lower"),
    # cluster
    ("cluster.ps_pull_s", "s", "lower"),
    ("cluster.ps_push_s", "s", "lower"),
    ("cluster.ps_apply_s", "s", "lower"),
    ("cluster.wire_bytes_fp", "bytes", "lower"),
    ("cluster.wire_bytes_bp", "bytes", "lower"),
    ("cluster.wire_bytes_params", "bytes", "lower"),
    ("cluster.messages_per_epoch", "count", "lower"),
    ("cluster.encode_quantized_mb_per_s", "MB/s", "higher"),
    ("cluster.decode_quantized_mb_per_s", "MB/s", "higher"),
    ("cluster.encode_raw_mb_per_s", "MB/s", "higher"),
    ("cluster.decode_raw_mb_per_s", "MB/s", "higher"),
    # engine
    ("engine.trainer_setup_s", "s", "lower"),
    ("engine.halo_plan_s", "s", "lower"),
    ("engine.forward_s", "s", "lower"),
    ("engine.backward_s", "s", "lower"),
    ("engine.optimize_s", "s", "lower"),
    ("engine.eval_s", "s", "lower"),
    ("engine.stage_coverage", "ratio", "higher"),
    ("engine.exchange_fp_s", "s", "lower"),
    ("engine.exchange_bp_s", "s", "lower"),
    ("engine.exchange_self_s", "s", "lower"),
    ("engine.exchange_calls", "count", "lower"),
    ("engine.kernel_fwd_s", "s", "lower"),
    ("engine.kernel_bwd_s", "s", "lower"),
    ("engine.loss_scan_s", "s", "lower"),
    # mp
    ("mp.spawn_s", "s", "lower"),
    ("mp.supervisor_share", "ratio", "lower"),
    ("mp.children_cpu_s_per_epoch", "s", "lower"),
    ("mp.worker_peak_rss_mb", "MiB", "lower"),
    ("mp.speedup_vs_sync", "ratio", "higher"),
    # obs
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("trace.missing", "count", "lower"),
)


def as_metrics(table: tuple, values: dict[str, float]) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` for every name in ``table``; a name
    without a value is a bug in the benchmark, not a 0."""
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit, _ in table
    }
