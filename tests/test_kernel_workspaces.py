"""Layer kernels on persistent workspaces: same bits, nothing stale.

Three contracts of the allocation-free kernel path
(:mod:`repro.engine.workspace`):

* *differential* — the ``out=`` / in-place kernels produce the very
  bytes the pre-workspace kernels (verbatim in ``conftest.py``) did,
  sign of zeros included, over every backend, ordering, bias setting
  and activation;
* *aliasing* — persistent buffers are never overwritten while something
  still reads them, and no message aliases a workspace;
* *invalidation* — a trainer whose workspaces live across epochs (and
  across membership changes, crash recovery, resampling and degraded
  channels) trains exactly like one whose dead slots are poisoned with
  NaN before every epoch and at every kernel-round boundary (the
  liveness plan's contract; the planner itself is tested in
  ``test_workspace_plan.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.gcn_math import (
    layer_backward_inputs,
    layer_forward,
    weight_gradient,
)
from repro.core.models import bias_name, weight_name
from repro.core.trainer import ECGraphTrainer
from repro.core.worker import build_worker_states
from repro.engine.backends import (
    GATBackend,
    SampledGCNBackend,
    self_weight_name,
)
from repro.faults.config import FaultConfig
from repro.graph.normalize import normalized_adjacency
from repro.nn.activations import ACTIVATION_NAMES, get_activation
from repro.partition.hashing import HashPartitioner

SPEC = ClusterSpec(num_workers=3, num_servers=1)


def same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Bit equality — ``-0.0`` and ``0.0`` differ, NaN payloads count."""
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def dirty(shape: tuple[int, int]) -> np.ndarray:
    """A destination buffer no kernel may rely on being zero."""
    return np.full(shape, np.nan, dtype=np.float32)


def same_sigma_input(cache, z_ref: np.ndarray, act, is_last: bool) -> None:
    """What the cache keeps for σ' against the parent's ``Z``: ``Z``
    itself, or, on a hidden layer under an activation whose derivative
    reads only the sign, just the mask ``Z > 0``."""
    if act.reads_sign and not is_last:
        assert cache.pre_activation is None
        same_bits(cache.positive, z_ref > 0)
    else:
        assert cache.positive is None
        same_bits(cache.pre_activation, z_ref)


# ----------------------------------------------------------------------
# (a) differential: gcn_math against the verbatim parent kernels
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def worker_state():
    from repro.graph.generators import GraphSpec
    from repro.graph.streaming import stream_graph

    graph = stream_graph(GraphSpec(
        name="kernels", num_vertices=180, avg_degree=9.0, feature_dim=12,
        num_classes=4, power_law=2.0, train=60, val=30, test=60, seed=5,
    ))
    normalized = normalized_adjacency(graph.adjacency)
    partition = HashPartitioner().partition(graph.adjacency, 3)
    return build_worker_states(graph, normalized, partition)[0]


@pytest.fixture(scope="module")
def adjacencies(worker_state):
    sampler = SampledGCNBackend([3])
    sampler.rng = np.random.default_rng(2)
    sampled, _ = sampler._sample_rows(worker_state, 3)
    return {"full": worker_state.a_local, "sampled": sampled}


def _inputs(state, d_in: int, d_out: int, seed: int):
    """Float32 operands with exact and negative zeros sprinkled in."""
    rng = np.random.default_rng(seed)
    n_cat = state.num_local + state.num_halo
    h_cat = rng.standard_normal((n_cat, d_in)).astype(np.float32)
    h_cat[rng.random(h_cat.shape) < 0.2] = 0.0
    h_cat[rng.random(h_cat.shape) < 0.1] = -0.0
    weight = (rng.standard_normal((d_in, d_out)) * 0.4).astype(np.float32)
    weight[rng.random(weight.shape) < 0.2] = 0.0
    bias = (rng.standard_normal(d_out) * 0.1).astype(np.float32)
    g_cat = rng.standard_normal((n_cat, d_out)).astype(np.float32)
    g_cat[rng.random(g_cat.shape) < 0.3] = 0.0
    return h_cat, weight, bias, g_cat


class TestDifferentialGCNKernels:
    @pytest.mark.parametrize("activation", ACTIVATION_NAMES)
    @pytest.mark.parametrize("use_bias", [True, False])
    @pytest.mark.parametrize("transform_first", [True, False])
    @pytest.mark.parametrize("adjacency", ["full", "sampled"])
    def test_forward_and_backward_bit_equal(
        self, worker_state, adjacencies, reference_kernels,
        adjacency, transform_first, use_bias, activation,
    ):
        state, a = worker_state, adjacencies[adjacency]
        act = get_activation(activation)
        n = state.num_local
        # Equal widths make the backward destination alias g_cat's head.
        for d_in, d_out in ((8, 8), (12, 5)):
            h_cat, weight, bias, g_cat = _inputs(state, d_in, d_out, seed=d_in)
            bias = bias if use_bias else None
            for is_last in (False, True):
                agg_ref, z_ref, h_ref = reference_kernels.layer_forward(
                    a, h_cat, weight, bias, act, is_last, transform_first
                )
                out = dirty((n, d_out))
                cache = layer_forward(
                    a, h_cat, weight, bias, act, is_last, transform_first,
                    aggregate_out=dirty((n, d_in)), z_out=dirty((n, d_out)),
                    out=out, positive_out=np.ones((n, d_out), dtype=bool),
                )
                same_sigma_input(cache, z_ref, act, is_last)
                same_bits(cache.output, h_ref)
                if not is_last:
                    assert cache.output is out
                if transform_first:
                    assert cache.aggregated is None
                else:
                    same_bits(cache.aggregated, agg_ref)
                same_bits(
                    weight_gradient(cache, a, g_cat[:n]),
                    reference_kernels.weight_gradient(
                        agg_ref, h_cat, a, g_cat[:n]
                    ),
                )

            # Backward through a layer of width d_out -> d_in.
            z_prev = _inputs(state, d_out, d_in, seed=99)[3][:n]
            weight_t = weight  # W maps d_in -> d_out; dh = (A g) W^T
            want = reference_kernels.layer_backward_inputs(
                a, g_cat, weight_t, z_prev, act
            )
            buffer = g_cat.copy()
            destination = (
                buffer[:n] if d_in == d_out else dirty((n, d_in))
            )
            got = layer_backward_inputs(
                a, buffer, weight_t, z_prev, act, out=destination
            )
            assert got is destination
            same_bits(got, want)
            if act.reads_sign:
                # The mask a hidden layer keeps instead of Z: same bits.
                buffer = g_cat.copy()
                destination = (
                    buffer[:n] if d_in == d_out else dirty((n, d_in))
                )
                same_bits(layer_backward_inputs(
                    a, buffer, weight_t, z_prev > 0, act, out=destination
                ), want)

    @pytest.mark.parametrize("transform_first", [True, False])
    def test_supplied_aggregate_is_used_and_kept(
        self, worker_state, adjacencies, reference_kernels, transform_first
    ):
        state, a = worker_state, adjacencies["full"]
        act = get_activation("relu")
        h_cat, weight, bias, g_cat = _inputs(state, 12, 5, seed=3)
        static = a @ h_cat
        _, z_ref, h_ref = reference_kernels.layer_forward(
            a, h_cat, weight, bias, act, False, transform_first
        )
        cache = layer_forward(
            a, h_cat, weight, bias, act, False, transform_first,
            aggregated=static,
        )
        assert cache.aggregated is static
        same_sigma_input(cache, z_ref, act, False)
        same_bits(cache.output, h_ref)
        n = state.num_local
        same_bits(
            weight_gradient(cache, a, g_cat[:n]),
            reference_kernels.weight_gradient(None, h_cat, a, g_cat[:n]),
        )

    def test_without_buffers_results_are_fresh_arrays(
        self, worker_state, adjacencies
    ):
        a = adjacencies["full"]
        h_cat, weight, bias, _ = _inputs(worker_state, 8, 8, seed=1)
        before = h_cat.copy()
        first = layer_forward(a, h_cat, weight, bias, get_activation("tanh"),
                              is_last=False)
        second = layer_forward(a, h_cat, weight, bias, get_activation("tanh"),
                               is_last=False)
        assert not np.shares_memory(first.output, second.output)
        same_bits(h_cat, before)

    def test_spmm_ignores_a_buffer_scipy_would_not_have_produced(
        self, worker_state, adjacencies
    ):
        """``spmm`` only accumulates into a destination of the dtype,
        shape and layout ``a @ x`` would have had; anything else (the
        float64 finite-difference tests) allocates, with scipy's bits."""
        from repro.core.gcn_math import spmm

        a = adjacencies["full"]
        h_cat = _inputs(worker_state, 8, 6, seed=4)[0]
        n = worker_state.num_local
        good = dirty((n, 8))
        assert spmm(a, h_cat, good) is good
        same_bits(good, a @ h_cat)
        for bad in (
            dirty((n + 1, 8)),
            np.full((n, 8), np.nan),
            dirty((8, n)).T,
        ):
            got = spmm(a, h_cat, bad)
            assert got is not bad and np.isnan(bad).all()
            same_bits(got, a @ h_cat)
        wide = spmm(a, h_cat.astype(np.float64), dirty((n, 8)))
        same_bits(wide, a @ h_cat.astype(np.float64))


# ----------------------------------------------------------------------
# (a) differential, in situ: SAGE and GAT backends inside a real run
# ----------------------------------------------------------------------
def _trainer(kind: str, graph, activation="relu", use_bias=True,
             transform_first=True, layers=3, hidden=8, online=False,
             **config):
    cfg = ECGraphConfig(seed=3, transform_first=transform_first, **config)
    model = dict(num_layers=layers, hidden_dim=hidden,
                 activation=activation, use_bias=use_bias)
    if kind == "sage":
        return ECGraphTrainer(
            graph, ModelConfig(model="sage", **model), SPEC, cfg
        )
    if kind == "gat":
        return ECGraphTrainer(
            graph, ModelConfig(**model), SPEC, cfg,
            backend=GATBackend(num_heads=2),
        )
    if kind == "sampled":
        return ECGraphTrainer(
            graph, ModelConfig(**model), SPEC, cfg,
            backend=SampledGCNBackend([4] * layers, online=online),
        )
    return ECGraphTrainer(graph, ModelConfig(**model), SPEC, cfg)


class TestDifferentialBackendsInSitu:
    """Every forward / backward-reduce kernel call of a real run is
    recomputed from copies of its inputs by the parent formula."""

    @pytest.mark.parametrize("activation", ACTIVATION_NAMES)
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_sage(self, small_graph, reference_kernels, activation, use_bias):
        trainer = _trainer("sage", small_graph, activation, use_bias,
                           fp_mode="raw", bp_mode="raw")
        trainer.setup()
        backend, ctx = trainer.engine.backend, trainer.engine.ctx
        act = ctx.params.activation
        checked = {"fwd": 0, "bwd": 0}
        # The parent's Z per (worker, layer): the backward reference
        # reads it where the cache may keep only the mask Z > 0.
        z_refs = {}

        forward, reduce_ = backend.forward_layer, backend.backward_reduce

        def forward_layer(state, h_cat, pulled, layer, is_last):
            agg_ref, z_ref, h_ref = reference_kernels.sage_layer_forward(
                state.a_local, state.num_local, h_cat.copy(),
                pulled[self_weight_name(layer - 1)],
                pulled[weight_name(layer - 1)],
                pulled.get(bias_name(layer - 1)), act, is_last,
            )
            forward(state, h_cat, pulled, layer, is_last=is_last)
            cache = state.caches[layer]
            same_bits(cache.aggregated, agg_ref)
            same_sigma_input(cache, z_ref, act, is_last)
            same_bits(cache.output, h_ref)
            z_refs[state.worker_id, layer] = z_ref
            checked["fwd"] += 1

        def backward_reduce(state, layer, weights):
            n = state.num_local
            g_cat = backend.grad_cat(state, layer)
            want = reference_kernels.sage_backward_reduce(
                backend.a_transposed[state.worker_id],
                state.grad_rows[layer].copy(), g_cat[n:].copy(),
                weights[self_weight_name(layer - 1)],
                weights[weight_name(layer - 1)],
                z_refs[state.worker_id, layer - 1], act,
            )
            reduce_(state, layer, weights)
            same_bits(state.grad_rows[layer - 1], want)
            checked["bwd"] += 1

        backend.forward_layer = forward_layer
        backend.backward_reduce = backward_reduce
        for t in range(2):
            trainer.run_epoch(t)
        assert checked == {"fwd": 2 * 3 * 3, "bwd": 2 * 3 * 2}

    @pytest.mark.parametrize("activation", ACTIVATION_NAMES)
    @pytest.mark.parametrize("use_bias", [True, False])
    def test_gat(self, small_graph, reference_kernels, activation, use_bias):
        trainer = _trainer("gat", small_graph, activation, use_bias,
                           fp_mode="raw", bp_mode="raw")
        trainer.setup()
        backend, ctx = trainer.engine.backend, trainer.engine.ctx
        act = ctx.params.activation
        checked = {"fwd": 0, "bwd": 0}
        z_refs = {}  # the parent's Z per (worker, layer), as for SAGE
        forward, reduce_ = backend.forward_layer, backend.backward_reduce

        def forward_layer(state, h_cat, pulled, layer, is_last):
            z_ref, h_ref = reference_kernels.gat_layer_forward(
                backend, state.worker_id, h_cat.copy(), pulled, layer, is_last
            )
            forward(state, h_cat, pulled, layer, is_last=is_last)
            cache = state.caches[layer]
            same_sigma_input(cache, z_ref, act, is_last)
            same_bits(cache.output, h_ref)
            z_refs[state.worker_id, layer] = z_ref
            checked["fwd"] += 1

        def backward_reduce(state, layer, weights):
            n = state.num_local
            want = reference_kernels.gat_backward_reduce(
                backend._dh_buffer(state, layer)[:n].copy(),
                backend._pushed_buffer(state, layer).copy(),
                z_refs[state.worker_id, layer - 1], act,
            )
            reduce_(state, layer, weights)
            same_bits(state.grad_rows[layer - 1], want)
            checked["bwd"] += 1

        backend.forward_layer = forward_layer
        backend.backward_reduce = backward_reduce
        for t in range(2):
            trainer.run_epoch(t)
        assert checked == {"fwd": 2 * 3 * 3, "bwd": 2 * 3 * 2}

    @pytest.mark.parametrize("kind", ["gcn", "sampled"])
    @pytest.mark.parametrize("transform_first", [True, False])
    def test_gcn_first_layer_aggregate_is_the_per_epoch_one(
        self, small_graph, reference_kernels, kind, transform_first
    ):
        """The constant ``M^1`` equals what the parent recomputed every
        epoch, for the forward and for the weight gradient."""
        trainer = _trainer(kind, small_graph, transform_first=transform_first,
                           fp_mode="compress", bp_mode="resec")
        trainer.setup()
        backend = trainer.engine.backend
        forward = backend.forward_layer
        seen = []

        def forward_layer(state, h_cat, pulled, layer, is_last):
            forward(state, h_cat, pulled, layer, is_last=is_last)
            if layer == 1:
                cache = state.caches[1]
                sub = state.sub
                want = backend.adjacency(state, 1) @ (
                    small_graph.feature_store.rows(np.concatenate(
                        [sub.local_vertices, sub.remote_vertices]
                    ))
                )
                same_bits(cache.aggregated, want)
                seen.append(cache.aggregated)

        backend.forward_layer = forward_layer
        for t in range(3):
            trainer.run_epoch(t)
        # Same buffer every epoch: it was not reallocated.
        assert all(a is b for a, b in zip(seen, seen[3:]))


# ----------------------------------------------------------------------
# (b) aliasing
# ----------------------------------------------------------------------
class TestAliasing:
    def _run_forward(self, trainer, t=0):
        trainer.setup()
        engine = trainer.engine
        engine.halo_plan.run(t)
        engine.forward.run(t)
        return engine

    @pytest.mark.parametrize("kind", ["gcn", "sage", "gat"])
    def test_backward_reads_every_buffer_as_its_planned_writer_left_it(
        self, small_graph, kind
    ):
        """Equal-width layers share slots now, so what a backward kernel
        reads must be what its planned writer left: each buffer is
        snapshotted when the round it is born in (or the exchange that
        fills its tail) has run, and every buffer live when a backward
        round starts must still hold those bits."""
        trainer = _trainer(kind, small_graph, layers=4, hidden=8,
                           fp_mode="raw", bp_mode="raw")
        trainer.setup()
        ctx = trainer.engine.ctx
        ws = ctx.workspaces
        plans = {s.worker_id: ws.plan_of(s.worker_id) for s in ctx.workers}
        tl = plans[0].timeline
        assert any(len(slot.occupants) > 1 for slot in plans[0].slots)
        snapshots: dict[tuple[int, str], np.ndarray] = {}

        def lives(state):
            plan = plans[state.worker_id]
            return [b for slot in plan.slots for b in slot.occupants]

        def snapshot(state, name):
            snapshots[(state.worker_id, name)] = ws.buffer(name, state).copy()

        round_ = ctx.executor._round
        checked = []

        def spy_round(op, args_of):
            step = op if op == "loss" else f"{op}{args_of(ctx.workers[0])[0]}"
            read = tl.read(step)
            for state in ctx.workers:
                for life in lives(state):
                    if life.start < read <= life.end and op.startswith("bp"):
                        got = ws.buffer(life.name, state)
                        same_bits(got, snapshots[(state.worker_id, life.name)])
                        checked.append((step, life.name))
            results = round_(op, args_of)
            for state in ctx.workers:
                for life in lives(state):
                    if read <= life.start <= tl.write(step):
                        snapshot(state, life.name)
            return results

        exchange, reverse = ctx.exchange, ctx.reverse_exchange

        def spy_exchange(direction, layer, t, rows_of, dim, subset=None):
            halos = exchange(direction, layer, t, rows_of, dim, subset)
            name = f"{'h' if direction == 'fp' else 'g'}{layer}"
            for state in ctx.workers:
                snapshot(state, name)
            return halos

        def spy_reverse(layer, t, halo_rows_of, dim):
            pushed = reverse(layer, t, halo_rows_of, dim)
            for state in ctx.workers:
                snapshot(state, f"acc{layer}")
            return pushed

        ctx.executor._round = spy_round
        ctx.exchange, ctx.reverse_exchange = spy_exchange, spy_reverse
        for t in range(2):
            trainer.run_epoch(t)
        assert "h3" in {name for _, name in checked}

    def test_exchange_halos_are_the_workspace_tails(self, small_graph):
        trainer = _trainer("gcn", small_graph, fp_mode="raw", bp_mode="raw")
        trainer.setup()
        ctx = trainer.engine.ctx
        rows = [np.full((s.num_local, 8), s.worker_id + 1.0, np.float32)
                for s in ctx.workers]
        halos = ctx.exchange("fp", 1, 0, lambda s: rows[s.worker_id], dim=8)
        for state, halo in zip(ctx.workers, halos):
            h_cat = ctx.workspaces.h_cat(state, 1)
            assert np.shares_memory(halo, h_cat)
            assert halo.shape == (state.num_halo, 8)
            np.testing.assert_array_equal(h_cat[state.num_local:], halo)
            for owner, slots in state.halo_slots.items():
                assert (halo[slots] == owner + 1.0).all()

    @pytest.mark.parametrize("mode", ["raw", "reqec"])
    def test_no_message_aliases_a_workspace(self, small_graph, mode):
        """What a policy is handed, and what it hands back, is never a
        view of a buffer a later scatter or kernel writes."""
        trainer = _trainer(
            "gcn", small_graph, fp_mode=mode,
            bp_mode="raw" if mode == "raw" else "resec", trend_period=2,
        )
        trainer.setup()
        ctx = trainer.engine.ctx
        seen = {"respond": 0, "receive": 0}

        def workspace_arrays():
            return list(ctx.workspaces._arrays.values())

        for policy in (ctx.fp_policy, ctx.bp_policy):
            respond, receive = policy.respond, policy.receive

            def spy_respond(key, rows, t, rows_mask=None, _call=respond):
                for buf in workspace_arrays():
                    assert not np.shares_memory(rows, buf)
                seen["respond"] += 1
                return _call(key, rows, t, rows_mask=rows_mask)

            def spy_receive(key, message, t, _call=receive):
                decoded = _call(key, message, t)
                for buf in workspace_arrays():
                    assert not np.shares_memory(decoded, buf)
                seen["receive"] += 1
                return decoded

            policy.respond, policy.receive = spy_respond, spy_receive
        for t in range(4):
            trainer.run_epoch(t)
        assert seen["respond"] == seen["receive"] > 0

    def test_layer_outputs_are_served_from_the_next_workspace(
        self, small_graph
    ):
        trainer = _trainer("gcn", small_graph, fp_mode="raw", bp_mode="raw")
        engine = self._run_forward(trainer)
        ctx = engine.ctx
        for state in ctx.workers:
            for layer in (1, 2):
                served = state.caches[layer].output
                h_next = ctx.workspaces.h_cat(state, layer)
                assert np.shares_memory(served, h_next)
                same_bits(served, h_next[:state.num_local])


# ----------------------------------------------------------------------
# (c) invalidation
# ----------------------------------------------------------------------
def _poison_dead_slots(trainer, persistent_too: bool = True) -> None:
    """NaN-fill every slot whose planned occupants are all dead: before
    each epoch (with ``persistent_too`` the persistent slots as well,
    and the first-layer input / aggregate are rebuilt), and at every
    kernel-round boundary, where a slot is live if one occupant's life
    holds the round's read position. A kernel reading a buffer its
    planned writer has not written, or two overlapping lives sharing a
    slot, turns the loss into NaN or moves the curve.

    Under multiprocess only the shared slots are this process's to
    poison, and the worker processes' first-layer memos stay, so pass
    ``persistent_too=False`` there."""
    trainer.setup()
    ctx = trainer.engine.ctx
    plan_run, round_ = trainer.engine.halo_plan.run, ctx.executor._round

    def poison(read: int | None) -> None:
        ws = ctx.workspaces
        for (worker, k), buf in ws._arrays.items():
            plan = ws.plan_of(worker)
            slot = plan.slots[k]
            if read is not None:
                dead = not any(
                    life.start <= read <= life.end for life in slot.occupants
                )
            else:
                dead = persistent_too or not any(
                    plan.persistent(life.name) for life in slot.occupants
                )
            if dead:
                buf.fill(np.nan)
        if read is None and persistent_too:
            ws._inputs.clear()
            ws._aggregates.clear()

    def run(t):
        poison(None)
        plan_run(t)

    def poisoned_round(op, args_of):
        step = op
        if op != "loss":
            step += str(args_of(ctx.active_workers()[0])[0])
        poison(ctx.workspaces.plan_of(0).timeline.read(step))
        return round_(op, args_of)

    trainer.engine.halo_plan.run = run
    ctx.executor._round = poisoned_round


def _curve(trainer, epochs: int):
    losses = [trainer.run_epoch(t).loss for t in range(epochs)]
    meter = trainer.runtime.meter
    assert all(np.isfinite(losses))
    return (
        [repr(x) for x in losses],
        int(meter.total_bytes),
        {k: int(v) for k, v in sorted(meter.snapshot().category_bytes.items())},
    )


SCENARIOS = {
    "steady": dict(kind="gcn"),
    "equal_width_4_layers": dict(kind="gcn", layers=4),
    "aggregate_first": dict(kind="gcn", transform_first=False),
    "uncached_first_hop": dict(kind="gcn", cache_first_hop=False),
    "uncached_first_hop_raw": dict(
        kind="gcn", cache_first_hop=False, fp_mode="raw", bp_mode="raw",
    ),
    "sage": dict(kind="sage"),
    "gat": dict(kind="gat", fp_mode="compress"),
    "sampled_offline": dict(kind="sampled", fp_mode="compress"),
    "sampled_online": dict(kind="sampled", fp_mode="compress", online=True),
    "crash_recovery_halo_refetch": dict(
        kind="gcn",
        faults=FaultConfig(
            enabled=True, seed=2, crash_schedule=((3, 1),),
            checkpoint_every=2,
        ),
    ),
    "degraded_channels": dict(
        kind="gcn",
        faults=FaultConfig(enabled=True, seed=4, drop_prob=0.45,
                           max_retries=0),
    ),
    "degraded_channels_raw": dict(
        kind="gcn", fp_mode="raw", bp_mode="raw",
        faults=FaultConfig(enabled=True, seed=4, drop_prob=0.45,
                           max_retries=0),
    ),
    "elastic_adopt_and_rejoin": dict(
        kind="gcn",
        faults=FaultConfig(
            enabled=True, seed=1, elastic=True,
            permanent_failures=((2, 1),),
            rejoin_schedule=((5, 1),),
            checkpoint_every=1,
        ),
    ),
    "elastic_sampled_adoption": dict(
        kind="sampled", fp_mode="compress",
        faults=FaultConfig(
            enabled=True, seed=1, elastic=True,
            permanent_failures=((2, 2),),
            checkpoint_every=1,
        ),
    ),
}


class TestInvalidation:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_persistent_buffers_train_like_fresh_ones(
        self, medium_graph, name
    ):
        scenario = dict(SCENARIOS[name])
        kind = scenario.pop("kind")
        kept = _trainer(kind, medium_graph, **dict(scenario))
        fresh = _trainer(kind, medium_graph, **dict(scenario))
        _poison_dead_slots(fresh)
        assert _curve(kept, 8) == _curve(fresh, 8)

    @pytest.mark.parametrize("name", [
        "uncached_first_hop", "sampled_online", "gat", "sage",
        "crash_recovery_halo_refetch", "degraded_channels",
    ])
    def test_worker_processes_train_like_inline_kernels(
        self, medium_graph, name
    ):
        """The same scenarios with the workspaces in shared memory, the
        kernels in worker processes and the dead shared slots poisoned
        (a crash there is a real kill: the respawned process rebuilds
        its first-layer input itself)."""
        scenario = dict(SCENARIOS[name])
        kind = scenario.pop("kind")
        inline = _trainer(kind, medium_graph, **dict(scenario))
        forked = _trainer(
            kind, medium_graph, execution="multiprocess", **dict(scenario)
        )
        _poison_dead_slots(forked, persistent_too=False)
        try:
            assert _curve(inline, 6) == _curve(forked, 6)
        finally:
            forked.close()

    def test_degraded_slots_read_zero_not_last_epochs_rows(self, small_graph):
        """With a fault injector attached an undeliverable raw channel
        leaves zeros in its halo slots, whatever they held before."""
        trainer = _trainer(
            "gcn", small_graph, fp_mode="raw", bp_mode="raw",
            faults=FaultConfig(enabled=True, seed=0, drop_prob=1.0,
                               max_retries=0),
        )
        trainer.setup()
        ctx = trainer.engine.ctx
        ctx.injector.start_epoch(0)
        for state in ctx.workers:
            ctx.workspaces.h_cat(state, 1).fill(7.0)
        rows = [np.ones((s.num_local, 8), np.float32) for s in ctx.workers]
        halos = ctx.exchange("fp", 1, 0, lambda s: rows[s.worker_id], dim=8)
        assert ctx.injector.counters.degraded_zero > 0
        for halo in halos:
            assert not halo.any()

    def test_fault_free_exchange_skips_the_zero_fill(self, small_graph):
        """Without a subset or an injector every slot is written, so
        nothing is cleared first (a property of the input, not a knob)."""
        trainer = _trainer("gcn", small_graph, fp_mode="raw", bp_mode="raw")
        trainer.setup()
        ctx = trainer.engine.ctx
        rows = [np.ones((s.num_local, 8), np.float32) for s in ctx.workers]
        for state in ctx.workers:
            ctx.workspaces.h_cat(state, 1).fill(np.nan)
        halos = ctx.exchange("fp", 1, 0, lambda s: rows[s.worker_id], dim=8)
        for halo in halos:
            assert (halo == 1.0).all()
        empty = {
            (owner, s.worker_id): np.zeros(0, dtype=np.int64)
            for s in ctx.workers for owner in s.halo_slots
        }
        halos = ctx.exchange(
            "fp", 1, 1, lambda s: rows[s.worker_id], dim=8, subset=empty
        )
        for halo in halos:
            assert not halo.any()

    def test_membership_change_rebuilds_every_workspace(self, medium_graph):
        trainer = _trainer(
            "gcn", medium_graph,
            faults=SCENARIOS["elastic_adopt_and_rejoin"]["faults"],
        )
        trainer.setup()
        ws = trainer.engine.ctx.workspaces
        trainer.run_epoch(0)
        trainer.run_epoch(1)
        before = dict(ws._arrays)
        trainer.run_epoch(2)  # worker 1 is lost, a survivor adopts
        for key, buf in ws._arrays.items():
            assert buf is not before.get(key)
        dead = trainer.workers[1]
        assert dead.num_local == 0
        assert ws.held(1) == (0, 0, 0)

    def test_first_layer_aggregate_follows_its_source_arrays(
        self, small_graph
    ):
        """Crash recovery hands a worker a *new* halo-feature array (a
        new ``inputs_version``); the constant ``M^1`` is rebuilt from it,
        and only then. Nothing holds ``[X; X_halo]``: an aggregate-first
        GCN plans no ``h0``, and after the first epoch the worker holds
        no input arrays either, so the rebuild re-reads the store."""
        trainer = _trainer("gcn", small_graph, transform_first=False,
                           fp_mode="raw", bp_mode="raw")
        trainer.setup()
        trainer.run_epoch(0)
        ws, state = trainer.engine.ctx.workspaces, trainer.workers[0]
        store = small_graph.feature_store
        local = store.rows(state.sub.local_vertices)
        halo = store.rows(state.sub.remote_vertices)
        assert "h0" not in ws.plan_of(0).slot_of
        assert ws.first_input(state) is None
        assert state.features is None and state.halo_features is None
        aggregate = ws.first_aggregate(state, state.a_local)
        assert ws.buffer("m1", state) is aggregate
        same_bits(aggregate, state.a_local @ np.concatenate([local, halo]))
        aggregate[:] = -1.0  # nobody rebuilds it while the sources stand
        assert ws.first_aggregate(state, state.a_local) is aggregate
        assert (aggregate == -1.0).all()

        version = state.inputs_version
        state.halo_features = halo * 2.0
        assert state.inputs_version != version
        refreshed = ws.first_aggregate(state, state.a_local)
        assert refreshed is aggregate
        same_bits(refreshed, state.a_local @ np.concatenate(
            [local, halo * 2.0]
        ))
        refreshed[:] = -1.0  # rebuilt once, and only once
        assert (ws.first_aggregate(state, state.a_local) == -1.0).all()
        # No store holds the doubled rows: they stay resident.
        handed_in = state.halo_features
        ws.release_first_inputs(state)
        assert state.halo_features is handed_in

    def test_held_first_input_follows_its_source_arrays(self, small_graph):
        """A backend whose kernels read ``[X; X_halo]`` every iteration
        (SAGE) holds it as a persistent ``h0``, copied in once per set of
        source arrays."""
        trainer = _trainer("sage", small_graph, fp_mode="raw", bp_mode="raw")
        trainer.setup()
        trainer.run_epoch(0)
        ws, state = trainer.engine.ctx.workspaces, trainer.workers[0]
        store = small_graph.feature_store
        assert ws.plan_of(0).persistent("h0")
        h_cat = ws.first_input(state)
        assert ws.first_input(state) is h_cat
        h_cat[:] = -1.0
        assert (ws.first_input(state) == -1.0).all()
        state.halo_features = store.rows(state.sub.remote_vertices) * 2.0
        refreshed = ws.first_input(state)
        n = state.num_local
        same_bits(refreshed[:n], store.rows(state.sub.local_vertices))
        same_bits(refreshed[n:], state.halo_features)
        refreshed[:] = -1.0  # refilled once, and only once
        assert (ws.first_input(state) == -1.0).all()


class TestExactEvaluationBorrowsWorkspaces:
    """``evaluate_exact`` runs its forward in the training workspaces
    (no halo or concatenated copies of its own). An iteration rewrites
    them before reading them, so evaluating between epochs changes
    nothing that follows."""

    @pytest.mark.parametrize("name", [
        "steady", "uncached_first_hop", "sage", "gat", "sampled_online",
        "degraded_channels", "crash_recovery_halo_refetch",
    ])
    def test_evaluating_between_epochs_does_not_disturb_training(
        self, medium_graph, name
    ):
        scenario = dict(SCENARIOS[name])
        kind = scenario.pop("kind")
        plain = _trainer(kind, medium_graph, **dict(scenario))
        probed = _trainer(kind, medium_graph, **dict(scenario))
        scores = []
        run_epoch = probed.run_epoch

        def run_and_evaluate(t):
            result = run_epoch(t)
            scores.append(probed.evaluate_exact()["test"])
            return result

        probed.run_epoch = run_and_evaluate
        assert _curve(plain, 6) == _curve(probed, 6)
        assert scores[-1] == plain.evaluate_exact()["test"]

    def test_constant_first_layer_is_left_alone(self, small_graph, monkeypatch):
        """With no ``h0`` planned, exact evaluation's aggregate-first
        layer 1 reads training's ``M^1`` (no ``[X; X_halo]`` copy) and
        leaves it as it was."""
        trainer = _trainer("gcn", small_graph, hidden=16)
        trainer.setup()
        trainer.run_epoch(0)
        ws = trainer.engine.ctx.workspaces
        aggregates = [ws.buffer("m1", s) for s in trainer.workers]
        before = [m1.copy() for m1 in aggregates]
        read = []
        held_aggregate = ws.held_aggregate

        def spy(state, adjacency):
            got = held_aggregate(state, adjacency)
            read.append(got)
            return got

        monkeypatch.setattr(ws, "held_aggregate", spy)
        monkeypatch.setattr(
            np, "concatenate",
            lambda *a, **k: pytest.fail("evaluation copied [X; X_halo]"),
        )
        trainer.evaluate_exact()
        monkeypatch.undo()
        assert all(got is m1 for got, m1 in zip(read, aggregates))
        assert len(read) == len(aggregates)
        for m1, kept in zip(aggregates, before):
            same_bits(m1, kept)
