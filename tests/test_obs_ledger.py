"""Per-channel traffic ledger: unit hooks and meter reconciliation.

The ledger's contract is byte-exact agreement with the
:class:`~repro.cluster.network.TrafficMeter`: summing ``metered_bytes``
over one direction's channels must equal the meter's category total for
that direction, because both sides record the same charges (including
retransmissions, excluding intra-machine traffic). The golden configs
from ``test_engine_equivalence.py`` are re-run here with telemetry
enabled to check that contract across every trainer variant.
"""

import json

import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.messages import ChannelKey
from repro.core.trainer import ECGraphTrainer
from repro.engine import GATBackend, SampledGCNBackend
from repro.faults import FaultConfig
from repro.faults.config import MAX_RETRIES
from repro.graph.generators import GraphSpec
from repro.graph.streaming import stream_graph
from repro.obs import (
    NULL_LEDGER,
    ChannelLedger,
    NullChannelLedger,
    ObsConfig,
    direction_of_category,
)

KEY = ChannelKey(layer=1, responder=0, requester=2)


class TestLedgerHooks:
    def test_metered_vs_local_split(self):
        ledger = ChannelLedger()
        ledger.record_frame(KEY, "fp_embeddings", 100, metered=True)
        ledger.record_frame(KEY, "fp_embeddings", 40, metered=False)
        ((key, record),) = ledger.snapshot().channels
        assert key == (0, 2, 1, "fp")
        assert record.metered_bytes == 100
        assert record.local_bytes == 40
        assert record.wire_bytes == 140
        assert record.frames == 2
        assert record.retries == 0

    def test_retries_accumulate_bytes(self):
        ledger = ChannelLedger()
        ledger.record_frame(KEY, "bp_gradients", 64, metered=True)
        ledger.record_frame(KEY, "bp_gradients", 64, metered=True, retry=True)
        ledger.record_frame(KEY, "bp_gradients", 64, metered=True, retry=True)
        ((_, record),) = ledger.snapshot().channels
        assert record.frames == 3
        assert record.retries == 2
        assert record.retry_bytes == 128
        # Retransmissions consume bandwidth, so they count as metered.
        assert record.metered_bytes == 192

    def test_effective_bits(self):
        ledger = ChannelLedger()
        ledger.record_frame(KEY, "fp_embeddings", 100, metered=True)
        ledger.record_rows(KEY, "fp_embeddings", rows=10, elements=160)
        ((_, record),) = ledger.snapshot().channels
        assert record.rows == 10
        assert record.elements == 160
        assert record.effective_bits == pytest.approx(8.0 * 100 / 160)

    def test_effective_bits_without_elements_is_zero(self):
        ledger = ChannelLedger()
        ledger.record_frame(KEY, "fp_embeddings", 100, metered=True)
        ((_, record),) = ledger.snapshot().channels
        assert record.effective_bits == 0.0

    def test_degradation_kinds(self):
        ledger = ChannelLedger()
        ledger.record_degraded(KEY, "fp_embeddings", "predicted")
        ledger.record_degraded(KEY, "fp_embeddings", "cached")
        ledger.record_degraded(KEY, "fp_embeddings", "zero")
        ledger.record_degraded(KEY, "fp_embeddings", "zero")
        ((_, record),) = ledger.snapshot().channels
        assert record.degraded_predicted == 1
        assert record.degraded_cached == 1
        assert record.degraded_zero == 2
        assert record.degraded == 4

    def test_bytes_by_frame_kind_sum_to_wire_bytes(self):
        ledger = ChannelLedger()
        ledger.record_frame(KEY, "fp_embeddings", 100, True, kind="exact")
        ledger.record_frame(KEY, "fp_embeddings", 100, True, retry=True,
                            kind="exact")
        ledger.record_frame(KEY, "fp_embeddings", 30, False, kind="selector")
        ledger.record_frame(KEY, "fp_embeddings", 20, True, kind="quant")
        ledger.record_frame(KEY, "fp_embeddings", 7, True)  # default: raw
        ((_, record),) = ledger.snapshot().channels
        assert (record.exact_bytes, record.selector_bytes,
                record.quant_bytes, record.raw_bytes) == (200, 30, 20, 7)
        assert record.wire_bytes == 257
        assert record.as_dict()["exact_bytes"] == 200
        with pytest.raises(AttributeError):
            ledger.record_frame(KEY, "fp_embeddings", 1, True, kind="bogus")

    def test_direction_of_category(self):
        assert direction_of_category("fp_embeddings") == "fp"
        assert direction_of_category("bp_gradients") == "bp"
        assert direction_of_category("eval") == "eval"

    def test_metered_bytes_split_by_direction(self):
        ledger = ChannelLedger()
        ledger.record_frame(KEY, "fp_embeddings", 100, metered=True)
        ledger.record_frame(KEY, "bp_gradients", 30, metered=True)
        ledger.record_frame(KEY, "fp_embeddings", 7, metered=False)
        totals = ledger.snapshot().direction_totals()
        assert totals["fp"]["metered_bytes"] == 100  # metered only
        assert totals["bp"]["metered_bytes"] == 30
        assert "eval" not in totals


class TestSnapshot:
    def _populated(self) -> ChannelLedger:
        ledger = ChannelLedger()
        for layer in (2, 1):
            for responder, requester in ((1, 0), (0, 1)):
                key = ChannelKey(layer, responder, requester)
                ledger.record_frame(
                    key, "fp_embeddings", 10 * (layer + responder + 1),
                    metered=True,
                )
        return ledger

    def test_channels_sorted_by_key(self):
        snap = self._populated().snapshot()
        keys = [key for key, _ in snap.channels]
        assert keys == sorted(keys)
        assert keys[0] == (0, 1, 1, "fp")

    def test_snapshot_is_a_frozen_copy(self):
        ledger = self._populated()
        snap = ledger.snapshot()
        before = snap.direction_totals()
        ledger.record_frame(KEY, "fp_embeddings", 999, metered=True)
        assert snap.direction_totals() == before

    def test_top_channels_ranked_by_wire_bytes(self):
        snap = self._populated().snapshot()
        ranked = snap.top_channels(2)
        assert len(ranked) == 2
        assert ranked[0][1].wire_bytes >= ranked[1][1].wire_bytes

    def test_direction_totals(self):
        snap = self._populated().snapshot()
        totals = snap.direction_totals()
        assert totals["fp"]["channels"] == 4
        assert totals["fp"]["metered_bytes"] == sum(
            10 * (layer + responder + 1)
            for layer in (2, 1) for responder in (1, 0)
        )

    def test_as_dict_keys_and_determinism(self):
        snap = self._populated().snapshot()
        data = json.loads(json.dumps(snap.as_dict()))
        assert "0->1/L1/fp" in data["channels"]
        assert data == self._populated().snapshot().as_dict()

    def test_reset(self):
        ledger = self._populated()
        ledger.reset()
        assert ledger.snapshot().channels == ()


class TestNullLedger:
    def test_every_hook_is_a_noop(self):
        ledger = NullChannelLedger()
        assert not ledger.enabled
        ledger.record_frame(KEY, "fp_embeddings", 100, metered=True)
        ledger.record_rows(KEY, "fp_embeddings", 10, 160)
        ledger.record_degraded(KEY, "fp_embeddings", "zero")
        ledger.reset()
        assert ledger.snapshot().direction_totals() == {}
        assert ledger.snapshot().channels == ()

    def test_shared_singleton(self):
        assert isinstance(NULL_LEDGER, NullChannelLedger)


# ----------------------------------------------------------------------
# Reconciliation against the TrafficMeter, across the golden configs.
# ----------------------------------------------------------------------

EPOCHS = 6
SPEC = ClusterSpec(num_workers=3, num_servers=1)
MODEL = dict(num_layers=2, hidden_dim=16)
OBS = ObsConfig(enabled=True)


@pytest.fixture(scope="module")
def golden_graph():
    return stream_graph(GraphSpec(
        name="golden", num_vertices=96, avg_degree=6.0, feature_dim=12,
        num_classes=3, homophily=0.9, feature_noise=0.8,
        train=40, val=16, test=32, seed=7,
    ))


def _build_instrumented(name: str, graph):
    """The golden configs of test_engine_equivalence, telemetry on."""
    base = ECGraphConfig(seed=0, obs=OBS)
    if name == "ecgraph_default":
        return ECGraphTrainer(graph, ModelConfig(**MODEL), SPEC, base)
    if name == "raw":
        return ECGraphTrainer(
            graph, ModelConfig(**MODEL), SPEC, base.as_non_cp()
        )
    if name == "compress":
        return ECGraphTrainer(
            graph, ModelConfig(**MODEL), SPEC, base.as_cp_only()
        )
    if name == "delayed":
        return ECGraphTrainer(
            graph, ModelConfig(**MODEL), SPEC,
            ECGraphConfig(seed=0, obs=OBS, fp_mode="delayed",
                          bp_mode="delayed"),
        )
    if name == "sage":
        return ECGraphTrainer(
            graph, ModelConfig(model="sage", **MODEL), SPEC, base
        )
    if name == "gat":
        return ECGraphTrainer(
            graph, ModelConfig(**MODEL), SPEC,
            ECGraphConfig(seed=0, obs=OBS, fp_mode="compress"),
            backend=GATBackend(num_heads=2),
        )
    if name == "sampled_offline":
        return ECGraphTrainer(
            graph, ModelConfig(**MODEL), SPEC,
            ECGraphConfig(seed=0, obs=OBS, fp_mode="compress",
                          bp_mode="resec"),
            backend=SampledGCNBackend([4, 4]),
        )
    if name == "sampled_online":
        return ECGraphTrainer(
            graph, ModelConfig(**MODEL), SPEC,
            ECGraphConfig(seed=0, obs=OBS, fp_mode="compress",
                          bp_mode="resec"),
            backend=SampledGCNBackend([4, 4], online=True),
        )
    raise AssertionError(name)


GOLDEN_CONFIGS = (
    "ecgraph_default", "raw", "compress", "delayed",
    "sage", "gat", "sampled_offline", "sampled_online",
)


KIND_FIELDS = ("exact_bytes", "selector_bytes", "quant_bytes", "raw_bytes")


def _kind_totals(snapshot, direction):
    """Per-kind wire bytes over one direction's channels; every record's
    kinds must add up to its ``wire_bytes``."""
    totals = dict.fromkeys(KIND_FIELDS, 0)
    for (_, _, _, d), record in snapshot.channels:
        kinds = [getattr(record, field) for field in KIND_FIELDS]
        assert sum(kinds) == record.wire_bytes
        if d == direction:
            for field, value in zip(KIND_FIELDS, kinds):
                totals[field] += value
    return totals


class TestMeterReconciliation:
    @pytest.mark.parametrize("name", GOLDEN_CONFIGS)
    def test_ledger_reconciles_byte_exact(self, name, golden_graph):
        trainer = _build_instrumented(name, golden_graph)
        for t in range(EPOCHS):
            trainer.run_epoch(t)
        categories = trainer.runtime.meter.snapshot().category_bytes
        snap = trainer.obs.ledger.snapshot()
        totals = snap.direction_totals()
        assert totals["fp"]["metered_bytes"] == categories["fp_embeddings"]
        assert totals["bp"]["metered_bytes"] == categories["bp_gradients"]
        for direction in ("fp", "bp"):
            # One machine per worker here, so wire == metered.
            assert sum(_kind_totals(snap, direction).values()) == (
                totals[direction]["metered_bytes"]
            )
        # The kind is the policy's payload tag, not a guess.
        fp, bp = _kind_totals(snap, "fp"), _kind_totals(snap, "bp")
        if name in ("raw", "delayed"):
            assert fp["raw_bytes"] == categories["fp_embeddings"]
            assert bp["raw_bytes"] == categories["bp_gradients"]
        elif name in ("ecgraph_default", "sage"):
            # 6 epochs at T_tr = 10: first trend group, no boundary.
            assert fp["quant_bytes"] == categories["fp_embeddings"]
            assert bp["quant_bytes"] == categories["bp_gradients"]
        else:
            assert fp["quant_bytes"] == categories["fp_embeddings"]

    @pytest.mark.parametrize("execution", ["sync", "multiprocess"])
    def test_boundary_bytes_are_visible_by_kind(
        self, golden_graph, execution
    ):
        """Across trend boundaries (T_tr = 3, 9 epochs) the fp channels
        split into exact / selector / quant frames that still add up to
        the meter's category total; the exact share is rows-once."""
        trainer = ECGraphTrainer(
            golden_graph, ModelConfig(**MODEL), SPEC,
            ECGraphConfig(seed=0, obs=OBS, trend_period=3,
                          execution=execution),
        )
        try:
            for t in range(9):
                trainer.run_epoch(t)
            categories = trainer.runtime.meter.snapshot().category_bytes
            snap = trainer.obs.ledger.snapshot()
        finally:
            trainer.close()
        fp = _kind_totals(snap, "fp")
        assert sum(fp.values()) == categories["fp_embeddings"] == 45576
        assert fp["raw_bytes"] == 0
        assert all(fp[f] > 0 for f in KIND_FIELDS[:3])
        # 3 boundaries x (24-byte header + rows) per channel; the parent
        # frame shipped 31296 more (test_engine_equivalence).
        boundary_frames = 3 * sum(
            1 for (_, _, _, d), _ in snap.channels if d == "fp"
        )
        assert fp["exact_bytes"] == 31296 + 24 * boundary_frames
        bp = _kind_totals(snap, "bp")
        assert bp["quant_bytes"] == categories["bp_gradients"]

    def test_compressed_channels_report_sub_float_bits(self, golden_graph):
        trainer = _build_instrumented("compress", golden_graph)
        for t in range(EPOCHS):
            trainer.run_epoch(t)
        snap = trainer.obs.ledger.snapshot()
        fp = [r for (_, _, _, d), r in snap.channels if d == "fp"]
        assert fp
        for record in fp:
            assert 0.0 < record.effective_bits < 32.0

    def test_faulty_run_still_reconciles(self, small_graph):
        # Drops force retransmissions; both the meter and the ledger
        # charge every attempt, so the books must still balance.
        config = ECGraphConfig(
            seed=1, obs=OBS,
            faults=FaultConfig(enabled=True, seed=5, drop_prob=0.2),
        )
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=4, workers_per_machine=2), config,
        )
        trainer.train(3)
        categories = trainer.runtime.meter.snapshot().category_bytes
        snap = trainer.obs.ledger.snapshot()
        totals = snap.direction_totals()
        assert totals["fp"]["metered_bytes"] == categories["fp_embeddings"]
        assert totals["bp"]["metered_bytes"] == categories["bp_gradients"]
        _kind_totals(snap, "fp")  # retries keep kinds summing
        retries = sum(agg["retries"] for agg in totals.values())
        assert retries == trainer.fault_counters.retries
        assert retries > 0

    def test_degradations_match_fault_counters(self, small_graph):
        config = ECGraphConfig(
            seed=1, obs=OBS,
            # A message spends every attempt with probability 0.35.
            faults=FaultConfig(enabled=True, seed=9,
                               drop_prob=0.35 ** (1 / (MAX_RETRIES + 1))),
        )
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=4, workers_per_machine=2), config,
        )
        trainer.train(3)
        counters = trainer.fault_counters
        snap = trainer.obs.ledger.snapshot()
        degraded = sum(r.degraded for _, r in snap.channels)
        assert degraded == counters.degraded
        assert degraded > 0
