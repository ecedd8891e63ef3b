"""Bit-identity of the staged engine against the pre-refactor trainer.

The golden values below — full loss curves (exact float reprs), exact
TrafficMeter byte/message totals per category, and final exact-eval test
accuracy — were captured on main immediately before the trainer/NAC
monoliths were decomposed into the staged engine
(:mod:`repro.engine`). The refactor's contract is that every
configuration trains *bit-identically*: same float op order, same RNG
draw order, same wire bytes. Any drift here is a correctness
regression, not a tolerance issue, so comparisons are exact.
"""

from __future__ import annotations

import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.trainer import ECGraphTrainer
from repro.engine import GATBackend, SampledGCNBackend
from repro.graph.generators import GraphSpec
from repro.graph.store import to_mmap_bundle
from repro.graph.streaming import stream_graph

EPOCHS = 6

# Captured pre-refactor (commit 885d59a) with the graph/cluster below.
GOLDEN = {
    "ecgraph_default": {
        "losses": [
            "1.0977857947349547", "1.036339682340622", "1.0336278736591338",
            "0.971476310491562", "0.9145746827125549", "0.8591823935508729",
        ],
        "total_bytes": 44408,
        "total_messages": 174,
        "category_totals": {
            "bp_gradients": 4968, "feature_cache": 7920,
            "fp_embeddings": 5120, "param_pull": 13200, "param_push": 13200,
        },
        "final_test": "1.0",
    },
    "raw": {
        "losses": [
            "1.0938398241996765", "1.014786207675934", "0.943224734067917",
            "0.8782640933990479", "0.8198732972145081", "0.7669233202934265",
        ],
        "total_bytes": 110376,
        "total_messages": 174,
        "category_totals": {
            "bp_gradients": 12600, "feature_cache": 7920,
            "fp_embeddings": 63456, "param_pull": 13200, "param_push": 13200,
        },
        "final_test": "1.0",
    },
    "compress": {
        "losses": [
            "1.0977857947349547", "1.0177841365337372", "0.9481551349163055",
            "0.8842178225517274", "0.8286498486995697", "0.7764853537082672",
        ],
        "total_bytes": 50604,
        "total_messages": 174,
        "category_totals": {
            "bp_gradients": 4968, "feature_cache": 7920,
            "fp_embeddings": 11316, "param_pull": 13200, "param_push": 13200,
        },
        "final_test": "1.0",
    },
    "delayed": {
        "losses": [
            "1.0938398241996765", "1.0387981832027435", "0.9831118583679199",
            "0.9293251395225526", "0.8711061000823974", "0.8117950022220611",
        ],
        "total_bytes": 62128,
        "total_messages": 174,
        "category_totals": {
            "bp_gradients": 5428, "feature_cache": 7920,
            "fp_embeddings": 22380, "param_pull": 13200, "param_push": 13200,
        },
        "final_test": "1.0",
    },
    "sage": {
        "losses": [
            "1.5707411527633668", "1.3959121108055115", "1.2655068993568421",
            "1.1362760841846464", "1.019603967666626", "0.90932776927948",
        ],
        "total_bytes": 68216,
        "total_messages": 222,
        "category_totals": {
            "bp_gradients": 4968, "feature_cache": 7920,
            "fp_embeddings": 5120, "param_pull": 25104, "param_push": 25104,
        },
        "final_test": "0.875",
    },
    "gat": {
        "losses": [
            "1.0902566194534302", "1.0467941761016846", "1.0080687701702118",
            "0.9718242883682251", "0.9375437498092651", "0.9025300323963166",
        ],
        "total_bytes": 91128,
        "total_messages": 414,
        "category_totals": {
            "bp_gradients": 11316, "feature_cache": 7920,
            "fp_embeddings": 11316, "param_pull": 30288, "param_push": 30288,
        },
        "final_test": "0.75",
    },
    # The two sampled goldens follow ``sample_capped_rows``' stream (one
    # uniform key per candidate edge), not the pre-refactor sampler's.
    "sampled_offline": {
        "losses": [
            "1.0980702877044677", "1.022210419178009", "0.9510134041309357",
            "0.8907610297203065", "0.8326326370239258", "0.7797345161437987",
        ],
        "total_bytes": 48660,
        "total_messages": 174,
        "category_totals": {
            "bp_gradients": 4656, "feature_cache": 7920,
            "fp_embeddings": 9684, "param_pull": 13200, "param_push": 13200,
        },
        "final_test": "1.0",
    },
    "sampled_online": {
        "losses": [
            "1.0980702877044677", "1.014794921875", "0.9596091628074646",
            "0.8835092425346375", "0.8306011855602264", "0.7923318386077881",
        ],
        "total_bytes": 50958,
        "total_messages": 210,
        "category_totals": {
            "bp_gradients": 4658, "feature_cache": 7920,
            "fp_embeddings": 9676, "param_pull": 13200, "param_push": 13200,
            "sampling": 2304,
        },
        "final_test": "1.0",
    },
}


@pytest.fixture(scope="module", params=["memory", "mmap"])
def graph(request, tmp_path_factory):
    bundle = stream_graph(GraphSpec(
        name="golden", num_vertices=96, avg_degree=6.0, feature_dim=12,
        num_classes=3, homophily=0.9, feature_noise=0.8,
        train=40, val=16, test=32, seed=7,
    ))
    if request.param == "mmap":
        # Ragged chunks, so worker rows straddle chunk files.
        root = tmp_path_factory.mktemp("golden") / "g"
        bundle = to_mmap_bundle(bundle, root, chunk_vertices=29)
    return bundle


SPEC = ClusterSpec(num_workers=3, num_servers=1)
MODEL = dict(num_layers=2, hidden_dim=16)


def _build(name: str, graph):
    if name == "ecgraph_default":
        return ECGraphTrainer(
            graph, ModelConfig(**MODEL), SPEC, ECGraphConfig(seed=0)
        )
    if name == "raw":
        return ECGraphTrainer(
            graph, ModelConfig(**MODEL), SPEC,
            ECGraphConfig(seed=0).as_non_cp(),
        )
    if name == "compress":
        return ECGraphTrainer(
            graph, ModelConfig(**MODEL), SPEC,
            ECGraphConfig(seed=0).as_cp_only(),
        )
    if name == "delayed":
        return ECGraphTrainer(
            graph, ModelConfig(**MODEL), SPEC,
            ECGraphConfig(seed=0, fp_mode="delayed", bp_mode="delayed"),
        )
    if name == "sage":
        return ECGraphTrainer(
            graph, ModelConfig(model="sage", **MODEL), SPEC,
            ECGraphConfig(seed=0),
        )
    if name == "gat":
        return ECGraphTrainer(
            graph, ModelConfig(**MODEL), SPEC,
            ECGraphConfig(seed=0, fp_mode="compress"),
            backend=GATBackend(num_heads=2),
        )
    if name == "sampled_offline":
        return ECGraphTrainer(
            graph, ModelConfig(**MODEL), SPEC,
            ECGraphConfig(seed=0, fp_mode="compress", bp_mode="resec"),
            backend=SampledGCNBackend([4, 4]),
        )
    if name == "sampled_online":
        return ECGraphTrainer(
            graph, ModelConfig(**MODEL), SPEC,
            ECGraphConfig(seed=0, fp_mode="compress", bp_mode="resec"),
            backend=SampledGCNBackend([4, 4], online=True),
        )
    raise AssertionError(name)


class TestStagedEngineBitIdentity:
    """Loss curves and traffic accounting match main exactly."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_bit_identical_to_pre_refactor(self, name, graph):
        golden = GOLDEN[name]
        trainer = _build(name, graph)
        losses = [trainer.run_epoch(t).loss for t in range(EPOCHS)]

        assert [repr(float(x)) for x in losses] == golden["losses"]

        meter = trainer.runtime.meter
        assert int(meter.total_bytes) == golden["total_bytes"]
        assert int(meter.total_messages) == golden["total_messages"]
        assert {
            k: int(v) for k, v in sorted(meter.snapshot().category_bytes.items())
        } == golden["category_totals"]

        final = trainer.evaluate_exact()["test"]
        assert repr(float(final)) == golden["final_test"]


class TestMultiprocessBitIdentity:
    """``execution="multiprocess"`` trains bit-identically to sync.

    The process backend keeps the entire exchange path (policies,
    tuner, fault injection, traffic metering) on the supervisor and
    ships only the numeric kernels to worker processes, so every
    golden value — losses, wire bytes, message counts, final exact
    eval — must match the sync goldens exactly, not approximately.
    """

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_bit_identical_to_sync(self, name, graph):
        import dataclasses

        golden = GOLDEN[name]
        trainer = _build(name, graph)
        trainer.config = dataclasses.replace(
            trainer.config, execution="multiprocess"
        )
        try:
            losses = [trainer.run_epoch(t).loss for t in range(EPOCHS)]

            assert [repr(float(x)) for x in losses] == golden["losses"]

            meter = trainer.runtime.meter
            assert int(meter.total_bytes) == golden["total_bytes"]
            assert int(meter.total_messages) == golden["total_messages"]
            assert {
                k: int(v) for k, v in sorted(meter.snapshot().category_bytes.items())
            } == golden["category_totals"]

            final = trainer.evaluate_exact()["test"]
            assert repr(float(final)) == golden["final_test"]

            # The workers really are separate OS processes.
            import os

            pids = trainer.engine.ctx.executor.worker_pids
            assert len(pids) == SPEC.num_workers
            assert os.getpid() not in pids.values()
        finally:
            trainer.close()


# ----------------------------------------------------------------------
# Boundary-crossing golden. The 8 goldens above run 6 epochs at the
# default T_tr = 10 and never exercise an ``exact`` or selector message;
# this one runs ``ecgraph_default`` at T_tr = 3 for 9 epochs: boundaries
# at t = 2 (no base), 5 and 8 (derived rate), selector messages between.
# Everything except ``fp_embeddings`` was captured at the parent of the
# change that stopped shipping M_cr (commit 78d39f6) and must not move;
# ``fp_embeddings`` is pinned after it and must equal the parent value
# minus the rows.nbytes of every metered boundary message — the half of
# the frame the requesting end now derives.
# ----------------------------------------------------------------------
BOUNDARY_EPOCHS = 9
BOUNDARY_PERIOD = 3
BOUNDARY_GOLDEN = {
    "losses": [
        "1.0977857947349547", "1.036339682340622", "0.9440108716487885",
        "0.9052881598472595", "0.869250899553299", "0.7691392064094543",
        "0.7191334068775177", "0.677770733833313", "0.6342050254344941",
    ],
    "total_messages": 258,
    "category_totals": {
        "bp_gradients": 7452, "feature_cache": 7920,
        "param_pull": 19800, "param_push": 19800,
    },
    "final_test": "1.0",
    "fp_embeddings_parent": 76872,
    "fp_embeddings": 45576,
}


def _boundary_trainer(graph, execution):
    return ECGraphTrainer(
        graph, ModelConfig(**MODEL), SPEC,
        ECGraphConfig(
            seed=0, trend_period=BOUNDARY_PERIOD, execution=execution
        ),
    )


def _boundary_run(trainer):
    """Losses, message count, category totals and final exact accuracy."""
    losses = [trainer.run_epoch(t).loss for t in range(BOUNDARY_EPOCHS)]
    meter = trainer.runtime.meter
    categories = {
        k: int(v) for k, v in sorted(meter.snapshot().category_bytes.items())
    }
    return (
        [repr(float(x)) for x in losses],
        int(meter.total_messages),
        categories,
        repr(float(trainer.evaluate_exact()["test"])),
    )


@pytest.mark.parametrize("execution", ["sync", "multiprocess"])
class TestBoundaryCrossingGolden:
    def test_everything_but_the_boundary_bytes_is_unchanged(
        self, graph, execution
    ):
        golden = BOUNDARY_GOLDEN
        trainer = _boundary_trainer(graph, execution)
        try:
            losses, messages, categories, final = _boundary_run(trainer)
        finally:
            trainer.close()
        assert losses == golden["losses"]
        assert messages == golden["total_messages"]
        assert final == golden["final_test"]
        assert categories.pop("fp_embeddings") == golden["fp_embeddings"]
        assert categories == golden["category_totals"]

    def test_saving_is_exactly_the_shipped_changing_rates(
        self, graph, execution, reference_reqec_policy
    ):
        """Re-run through the verbatim parent policy: it reproduces the
        parent's ``fp_embeddings`` and every other golden field, and the
        bytes it spends on M_cr are the whole difference."""
        golden = BOUNDARY_GOLDEN
        trainer = _boundary_trainer(graph, execution)
        shipped_rate_bytes = 0
        try:
            trainer.setup()
            oracle = reference_reqec_policy(
                trainer.tuner, trend_period=BOUNDARY_PERIOD
            )
            machine = trainer.runtime.spec.worker_machine
            respond = oracle.respond

            def metering_respond(key, rows, t, rows_mask=None):
                nonlocal shipped_rate_bytes
                message = respond(key, rows, t, rows_mask=rows_mask)
                if message.kind == "exact" and (
                    machine(key.responder) != machine(key.requester)
                ):
                    shipped_rate_bytes += message.payload[1].nbytes
                return message

            oracle.respond = metering_respond
            trainer._fp_policy = trainer.engine.ctx.fp_policy = oracle
            losses, messages, categories, final = _boundary_run(trainer)
        finally:
            trainer.close()
        assert losses == golden["losses"]
        assert messages == golden["total_messages"]
        assert final == golden["final_test"]
        assert categories.pop("fp_embeddings") == (
            golden["fp_embeddings_parent"]
        )
        assert categories == golden["category_totals"]
        assert shipped_rate_bytes > 0
        assert golden["fp_embeddings"] == (
            golden["fp_embeddings_parent"] - shipped_rate_bytes
        )


class TestTrainerSurface:
    """The staged engine is reachable through the one trainer class."""

    def test_trainer_exposes_engine(self, graph):
        trainer = _build("ecgraph_default", graph)
        trainer.setup()
        from repro.engine import ExchangeContext, TrainerCore

        assert isinstance(trainer.engine, TrainerCore)
        assert isinstance(trainer.engine.ctx, ExchangeContext)
        from repro.engine.transport import HaloTransport

        # One shared transport, and it is the plain HaloTransport.
        assert trainer.engine.ctx.transport is trainer.transport
        assert type(trainer.transport) is HaloTransport
        assert trainer.engine.ctx.fp_policy is trainer._fp_policy
        assert trainer.engine.ctx.bp_policy is trainer._bp_policy
        assert trainer.engine.ctx.tuner is trainer.tuner
