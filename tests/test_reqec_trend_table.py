"""The shared trend table against the per-channel policy it replaced.

``ReqECPolicy`` keeps ``H_last``/``M_cr`` once per exported vertex, in
one table per (owner, layer); ``PerChannelReqECPolicy``
(``tests/oracles/reqec.py``) is the verbatim parent that kept them once
per channel end. Three contracts:

* **Lockstep in training.** :class:`Lockstep` runs the oracle beside the
  live policy, call for call on the same rows, through whole training
  runs — fault-free, a lost boundary, a crash with ``reset_residuals``
  on and off, and an elastic adoption followed by a rejoin — and
  requires every channel's frame (kind, bytes, the tuner's input,
  ``has_base``, selection, payload), every reconstructed row and every
  ``fallback_rows`` estimate to match bit for bit — a channel whose boundary was lost
  included: it extrapolates from its private copy of the snapshot its
  requester received, as the parent's requester end did.
* **Reconstruction.** ``_reconstruct`` merges the shipped rows into the
  prediction as the parent did — one mask scatter, the average formed
  in the shipped buffer; it must rebuild the parent's rows bit for bit
  at every granularity and width, through NaN/Inf rows and the
  zero-rate path after a lost boundary.
* **Gauges.** ``trend_table_bytes`` / ``residual_bytes`` are sizes read
  off the arrays, equal (within 5 %) to what ``tracemalloc`` sees freed
  when the state goes — with fault injection on too, where the tables
  keep prior rows and lost channels private copies — and turning
  telemetry on changes no number.
"""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import assert_same_as_parent
from oracles.reqec import PerChannelReqECPolicy
from reqec_owners import bind
from frames import payload
from repro.cluster.topology import ClusterSpec
from repro.compression.quantization import SUPPORTED_BITS
from repro.core.bit_tuner import BitTuner
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.messages import ChannelKey
from repro.core.reqec_fp import ReqECPolicy
from repro.core.trainer import ECGraphTrainer
from repro.faults import FaultConfig
from repro.faults.injector import FATE_DROP, FATE_OK
from repro.graph.generators import GraphSpec
from repro.graph.streaming import stream_graph
from repro.obs import ObsConfig

PERIOD = 3
EPOCHS = 13  # boundaries at t = 2, 5, 8, 11
WORKERS = 4
MAX_RETRIES = 2
LOST = (FATE_DROP,) * (MAX_RETRIES + 1)  # retries exhausted -> degrade


def _bits(rows: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(rows, dtype=np.float32).view(np.uint32)


def _assert_same_bits(got, want, where):
    assert got.shape == want.shape, where
    assert np.array_equal(_bits(got), _bits(want)), where


def _assert_same_frame(policy, message, expected, where):
    """The live message against the parent's: kind, charged bytes,
    ``meta``, the Bit-Tuner's input — the live ``policy`` reads it from
    the frame, the parent carried it as the float64
    ``meta["proportion"]``, and the two must agree to the bit — and what
    the frame carries, decoded, against the parent's payload (a selector
    frame carries the count of predicted entries where the parent's
    payload had the proportion)."""
    assert_same_as_parent(
        (message.kind, message.nbytes, message.meta,
         policy.predicted_share(message)),
        (expected.kind, expected.nbytes, expected.meta,
         expected.meta.get("proportion")),
        where,
    )
    want = expected.payload
    if expected.kind == "selector":
        want = (*want[:2], int(np.count_nonzero(want[0] == 1)))
    assert_same_as_parent(payload(message), want, f"{where} payload")


@pytest.fixture(scope="module")
def graph():
    return stream_graph(GraphSpec(
        name="trend-table", num_vertices=160, avg_degree=8.0,
        feature_dim=12, num_classes=3, homophily=0.8, feature_noise=0.8,
        train=64, val=32, test=48, seed=11,
    ))


class Lockstep:
    """Mirrors every call on the live policy into a per-channel oracle
    fed the same rows, and compares the two ends' outputs."""

    def __init__(self, policy: ReqECPolicy):
        self.policy = policy
        self.oracle = PerChannelReqECPolicy(
            policy.tuner, trend_period=policy.trend_period,
            granularity=policy.granularity,
        )
        self._in_flight: dict = {}
        self.kinds: dict[str, int] = {}
        self.selector_epochs: set = set()
        self.invalidated: set = set()
        self.fallbacks = 0
        for name in ("respond", "receive", "on_delivery_failure",
                     "invalidate_worker", "fallback_rows"):
            setattr(self, f"_{name}", getattr(policy, name))
            setattr(policy, name, getattr(self, name))

    def respond(self, key, rows, t, rows_mask=None):
        message = self._respond(key, rows, t, rows_mask=rows_mask)
        expected = self.oracle.respond(key, rows, t, rows_mask=rows_mask)
        _assert_same_frame(
            self.policy, message, expected, f"frame {key} t={t}"
        )
        if message.kind == "exact":
            _assert_same_bits(payload(message)[0], expected.payload[0],
                              f"exact rows {key} t={t}")
        if message.kind == "selector":
            self.selector_epochs.add((t, key))
        self.kinds[message.kind] = self.kinds.get(message.kind, 0) + 1
        self._in_flight[key] = expected
        return message

    def receive(self, key, message, t):
        rows = self._receive(key, message, t)
        expected = self.oracle.receive(key, self._in_flight.pop(key), t)
        _assert_same_bits(rows, expected, f"rows {key} t={t}")
        return rows

    def on_delivery_failure(self, key, message, rows_mask=None):
        handled = self._on_delivery_failure(key, message, rows_mask=rows_mask)
        expected = self.oracle.on_delivery_failure(
            key, self._in_flight.pop(key), rows_mask=rows_mask
        )
        assert handled == expected
        return handled

    def invalidate_worker(self, worker):
        self._invalidate_worker(worker)
        self.oracle.invalidate_worker(worker)
        self.invalidated.add(worker)

    def fallback_rows(self, key, t):
        rows = self._fallback_rows(key, t)
        expected = self.oracle.fallback_rows(key, t)
        if expected is None:
            assert rows is None, (key, t)
        else:
            _assert_same_bits(rows, expected, f"fallback {key} t={t}")
            self.fallbacks += 1
        return rows


def _script_fates(injector, script):
    """Force the fate of fp messages: ``(epoch, responder, requester) ->
    fates per attempt``; everything else is delivered."""
    def message_fate(layer, responder, requester, category, attempt):
        fates = ()
        if category == "fp_embeddings":
            fates = script.get((injector.epoch, responder, requester), ())
        fate = fates[attempt] if attempt < len(fates) else FATE_OK
        if fate == FATE_DROP:
            injector.counters.drops += 1
        return fate

    injector.message_fate = message_fate


def _channel_pairs(trainer):
    return sorted(
        (owner, state.worker_id)
        for state in trainer.workers for owner in state.halo_slots
    )


def _lockstep_run(graph, execution, faults=None, script=None):
    trainer = ECGraphTrainer(
        graph, ModelConfig(num_layers=3, hidden_dim=16),
        ClusterSpec(num_workers=WORKERS, num_servers=1),
        ECGraphConfig(seed=0, trend_period=PERIOD, execution=execution,
                      faults=faults or FaultConfig()),
    )
    try:
        trainer.setup()
        lockstep = Lockstep(trainer.engine.ctx.fp_policy)
        if script is not None:
            script = {
                (epoch, a, b): fates
                for (epoch, pick), fates in script.items()
                for a, b in [_channel_pairs(trainer)[pick]]
            }
            _script_fates(trainer.transport.injector, script)
        losses = [trainer.run_epoch(t).loss for t in range(EPOCHS)]
        counters = (trainer.transport.injector.counters
                    if trainer.transport.injector is not None else None)
        return lockstep, losses, counters, trainer
    finally:
        trainer.close()


@pytest.mark.parametrize("execution", ["sync", "multiprocess"])
class TestLockstepWithPerChannelParent:
    def test_fault_free(self, graph, execution):
        lockstep, losses, _, trainer = _lockstep_run(graph, execution)
        assert np.isfinite(losses).all()
        assert lockstep.kinds["exact"] and lockstep.kinds["selector"]
        policy = trainer.engine.ctx.fp_policy
        # Channels really share rows: the tables hold fewer rows than
        # the channels serve.
        served = sum(
            trainer.workers[owner].serves[requester].size
            for owner, plan in policy._plans.items()
            for requester in plan.index
        )
        exported = sum(plan.vertices.size for plan in policy._plans.values())
        assert exported < served

    def test_lost_boundary(self, graph, execution):
        faults = FaultConfig(enabled=True, max_retries=MAX_RETRIES)
        script = {(5, 0): LOST, (5, 3): LOST, (8, 3): LOST}
        lockstep, losses, counters, _ = _lockstep_run(
            graph, execution, faults, script
        )
        assert np.isfinite(losses).all()
        # Three boundary frames on each of the two exchanged layers,
        # each predicted from the snapshot before it, as the parent's.
        assert counters.degraded == 3 * 2
        assert lockstep.fallbacks == counters.degraded_predicted == 3 * 2

    @pytest.mark.parametrize("reset_residuals", [True, False])
    def test_crash(self, graph, execution, reset_residuals):
        faults = FaultConfig(
            enabled=True, max_retries=MAX_RETRIES,
            crash_schedule=((4, 1), (8, 2)),
            reset_residuals=reset_residuals,
        )
        script = {(7, 1): LOST}
        lockstep, losses, counters, _ = _lockstep_run(
            graph, execution, faults, script
        )
        assert np.isfinite(losses).all()
        assert counters.crashes == 2
        # The non-boundary loss at t=7 (both exchanged layers) degrades
        # to the prediction, the same rows as the parent's.
        assert lockstep.fallbacks == counters.degraded_predicted == 2


def test_lockstep_through_adoption_and_rejoin(graph):
    """Worker 3 is lost at epoch 4 and rejoins at epoch 9. Channels
    between the two untouched workers keep their snapshot across both
    re-plans: their owners' tables are carried by global vertex id, and
    the very next frames match the parent's."""
    faults = FaultConfig(
        enabled=True, elastic=True, max_retries=MAX_RETRIES,
        permanent_failures=((4, 3),), rejoin_schedule=((9, 3),),
    )
    lockstep, losses, counters, _ = _lockstep_run(graph, "sync", faults)
    assert np.isfinite(losses).all()
    assert counters.permanent_failures == counters.rejoins == 1
    # Both re-plans invalidate the lost worker and its adopter only.
    changed = lockstep.invalidated
    assert 3 in changed and len(changed) == 2
    for epoch in (4, 9):
        assert any(
            t == epoch and not {key.responder, key.requester} & changed
            for t, key in lockstep.selector_epochs
        )


# ----------------------------------------------------------------------
# Reconstruction: the parent's merge, bit for bit
# ----------------------------------------------------------------------
def _rows_at(rng, base, t, dim):
    rows = base + 0.05 * t + rng.normal(0, 0.02, base.shape)
    rows = rows.astype(np.float32)
    if t == 7:
        rows[1] = np.nan          # a NaN row inside a trend group
    if t == 8:
        rows[2, : dim // 2] = np.inf   # Inf rows at a boundary
        rows[3, 0] = -np.inf
        rows[4] = -0.0
    return rows


@pytest.mark.parametrize("granularity", ["vertex", "matrix", "element"])
@pytest.mark.parametrize("bits", SUPPORTED_BITS)
def test_reconstruct_matches_the_parent(granularity, bits):
    """Boundaries at t = 2, 5, 8, 11; the one at t = 5 is lost, so
    t = 6, 7 are compressed-only and t = 8 restarts at a zero rate."""
    live = bind(ReqECPolicy(BitTuner(initial_bits=bits, enabled=False),
                            trend_period=PERIOD, granularity=granularity),
                {(0, 1): 24})
    parent = PerChannelReqECPolicy(
        BitTuner(initial_bits=bits, enabled=False),
        trend_period=PERIOD, granularity=granularity,
    )
    key = ChannelKey(layer=1, responder=0, requester=1)
    rng = np.random.default_rng(bits)
    base = rng.random((24, 6)).astype(np.float32)
    kinds = []
    with np.errstate(invalid="ignore", over="ignore"):
        for t in range(14):
            rows = _rows_at(rng, base, t, 6)
            message = live.respond(key, rows, t)
            expected = parent.respond(key, rows, t)
            _assert_same_frame(live, message, expected, f"frame t={t}")
            kinds.append((message.kind, message.kind == "exact"
                          and payload(message)[1]))
            if t == 5:
                live.on_delivery_failure(key, message)
                parent.on_delivery_failure(key, expected)
                _assert_same_bits(
                    live.fallback_rows(key, t + 1),
                    parent.fallback_rows(key, t + 1), f"fallback t={t}",
                )
                continue
            _assert_same_bits(
                live.receive(key, message, t),
                parent.receive(key, expected, t), f"rows t={t}",
            )
            fallback = live.fallback_rows(key, t + 1)
            if fallback is not None:
                _assert_same_bits(
                    fallback, parent.fallback_rows(key, t + 1),
                    f"fallback t={t}",
                )
    assert kinds[8] == ("exact", False)   # has_base cleared by the loss
    assert kinds[11] == ("exact", True)
    assert ("selector", False) in kinds[9:11]


def test_shared_rows_match_per_channel_state():
    """Two requesters share owner rows: the bound table holds each row
    once, and both channels' frames and rows match a per-channel
    parent's."""
    serves = {1: np.array([0, 2, 3, 5]), 2: np.array([1, 2, 5, 6])}
    owner = SimpleNamespace(
        serves=serves,
        sub=SimpleNamespace(local_vertices=np.arange(100, 107)),
    )
    live = ReqECPolicy(BitTuner(initial_bits=4, enabled=False), PERIOD)
    live.bind_plan([owner], lossy=False)
    parent = PerChannelReqECPolicy(
        BitTuner(initial_bits=4, enabled=False), PERIOD
    )
    rng = np.random.default_rng(5)
    h = rng.random((7, 8)).astype(np.float32)
    for t in range(9):
        h = (h + rng.normal(0.02, 0.01, h.shape)).astype(np.float32)
        for requester, rows in serves.items():
            key = ChannelKey(1, 0, requester)
            message = live.respond(key, h[rows], t)
            expected = parent.respond(key, h[rows], t)
            _assert_same_frame(live, message, expected, f"{key} t={t}")
            _assert_same_bits(live.receive(key, message, t),
                              parent.receive(key, expected, t),
                              f"{key} t={t}")
    (table,) = live._tables.values()
    assert table.h_last.shape == (6, 8)  # 6 distinct of 8 served rows
    assert live.trend_table_bytes(0) == (
        table.nbytes + live._plans[0].nbytes
    )


# ----------------------------------------------------------------------
# Gauges
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gauge_graph():
    """Large enough that array bytes dwarf the Python objects around
    them (the channel dict, the plans' index dicts)."""
    return stream_graph(GraphSpec(
        name="trend-gauges", num_vertices=2000, avg_degree=8.0,
        feature_dim=12, num_classes=3, seed=3,
    ))


def _gauge_trainer(graph, obs, faults=None):
    return ECGraphTrainer(
        graph, ModelConfig(num_layers=3, hidden_dim=64),
        ClusterSpec(num_workers=WORKERS, num_servers=1),
        ECGraphConfig(seed=0, trend_period=PERIOD, obs=obs,
                      faults=faults or FaultConfig()),
    )


def _assert_gauges_are_freed(trainer):
    """Each gauge, summed over workers, is what freeing its policy's
    state releases, by ``tracemalloc`` (within 5 %)."""
    snapshot = trainer.obs.metrics.snapshot()
    ctx = trainer.engine.ctx
    for name, policy in (("trend_table_bytes", ctx.fp_policy),
                         ("residual_bytes", ctx.bp_policy)):
        published = [snapshot.gauge(name, worker=w) for w in range(WORKERS)]
        assert all(value > 0 for value in published)
        before = tracemalloc.get_traced_memory()[0]
        policy.reset()
        freed = before - tracemalloc.get_traced_memory()[0]
        assert abs(freed - sum(published)) <= 0.05 * sum(published), (
            name, freed, published,
        )


def test_gauges_are_what_tracemalloc_sees(gauge_graph):
    """The gauges count each table, plan and residual once; freeing the
    state releases that many traced bytes (within 5 %)."""
    tracemalloc.start()
    try:
        trainer = _gauge_trainer(gauge_graph, ObsConfig(enabled=True))
        trainer.train(PERIOD + 2)  # gauges read after the boundary
        _assert_gauges_are_freed(trainer)
    finally:
        tracemalloc.stop()


def test_gauges_count_the_fault_state(gauge_graph):
    """Under fault injection the tables also keep every row's prior
    values, and channels that lost a boundary a private snapshot: the
    gauge counts both."""
    faults = FaultConfig(enabled=True, seed=1, drop_prob=0.5, max_retries=0)
    tracemalloc.start()
    try:
        trainer = _gauge_trainer(gauge_graph, ObsConfig(enabled=True), faults)
        trainer.train(2 * PERIOD + 2)  # boundaries at t = 2, 5
        policy = trainer.engine.ctx.fp_policy
        assert policy._private
        assert all(table.prior_h is not None
                   for table in policy._tables.values())
        _assert_gauges_are_freed(trainer)
    finally:
        tracemalloc.stop()


def test_gauges_change_no_number(graph):
    """obs-off ≡ obs-on with the gauges published every iteration."""
    runs = [
        _gauge_trainer(graph, obs).train(PERIOD + 2)
        for obs in (ObsConfig(), ObsConfig(enabled=True))
    ]
    off, on = ([repr(e.loss) for e in run.epochs] for run in runs)
    assert off == on
    assert runs[0].total_bytes() == runs[1].total_bytes()
