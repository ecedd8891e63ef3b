"""σ' as a one-byte mask: what a hidden layer keeps for its derivative.

Under an activation whose derivative reads only the sign of ``Z`` (ReLU,
leaky ReLU), a hidden layer keeps the bool mask ``Z > 0``; the GCN
kernel writes ``Z`` straight into the next layer's input head and
activates it there. Every other activation keeps the float ``Z``.
Pinned here:

* the forward records the mask exactly where ``derivative(Z)`` is 1
  (``apply_activation``), and the one backward rule
  (``Activation.scale_by_derivative``) gives from it the bits
  ``dh * derivative(Z)`` gives — signed zeros, NaN and infinities
  included, in place or into another destination;
* for every activation and each of GCN, SAGE and GAT, three iterations
  train to the losses and parameters of the float-``Z`` kernels (kept
  verbatim in ``tests/oracles/float_sigma.py``), bit for bit;
* the ReLU plan holds a bool ``mask{l}`` and no float ``z{l}`` for its
  hidden layers, while tanh keeps a float ``z{l}``.
"""

from __future__ import annotations

import types

import numpy as np
import pytest
from oracles import float_sigma

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.gcn_math import apply_activation
from repro.core.trainer import ECGraphTrainer
from repro.engine.backends import GATBackend
from repro.nn.activations import ACTIVATION_NAMES, get_activation

SPEC = ClusterSpec(num_workers=3, num_servers=1)
SIGN_ONLY = ("leaky_relu", "relu")


def same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# The mask: recorded by the forward, read by the backward rule
# ----------------------------------------------------------------------
def _awkward(shape, seed):
    """Float32 values with signed zeros, NaN and infinities."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape).astype(np.float32)
    x[rng.random(shape) < 0.15] = 0.0
    x[rng.random(shape) < 0.15] = -0.0
    x.flat[:4] = [np.nan, np.inf, -np.inf, -np.nan]
    return x


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestMaskRule:
    def test_sign_only_activations_are_relu_and_leaky_relu(self):
        assert tuple(
            name for name in ACTIVATION_NAMES
            if get_activation(name).reads_sign
        ) == SIGN_ONLY

    @pytest.mark.parametrize("name", SIGN_ONLY)
    @pytest.mark.parametrize("into", ["in_place", "other"])
    def test_mask_gives_the_bits_of_the_float_factors(self, name, into):
        act = get_activation(name)
        z, dh = _awkward((40, 7), 1), _awkward((40, 7), 2)
        want = dh * act.derivative(z)
        mask = z > 0
        if into == "in_place":
            got = dh.copy()
            assert act.scale_by_derivative(got, mask) is got
        else:
            out = np.full_like(dh, 7.0)
            got = act.scale_by_derivative(dh.copy(), mask, out=out)
            assert got is out
        same_bits(got, want)

    @pytest.mark.parametrize("name", SIGN_ONLY)
    @pytest.mark.parametrize("into", ["in_place", "other"])
    def test_the_forward_records_the_mask_the_derivative_reads(
        self, name, into
    ):
        """At ±0, NaN and ±inf too: the mask is where ``derivative(Z)``
        is 1, and the output is ``forward(Z)``."""
        act = get_activation(name)
        z = _awkward((40, 7), 5)
        want_h, want_mask = act.forward(z), act.derivative(z) == 1.0
        out = np.full_like(z, 7.0) if into == "other" else None
        h, kept_z, positive = apply_activation(z.copy(), act, False, out)
        assert kept_z is None and positive.dtype == np.bool_
        same_bits(positive, want_mask)
        same_bits(h, want_h)

    @pytest.mark.parametrize("name", ACTIVATION_NAMES)
    def test_float_z_is_read_through_the_derivative(self, name):
        act = get_activation(name)
        z, dh = _awkward((30, 5), 3), _awkward((30, 5), 4)
        same_bits(act.scale_by_derivative(dh.copy(), z), dh * act.derivative(z))


# ----------------------------------------------------------------------
# Three iterations against the float-Z kernels
# ----------------------------------------------------------------------
def _trainer(graph, model, activation):
    cfg = ECGraphConfig(seed=3)
    layers = ModelConfig(
        model="sage" if model == "sage" else "gcn", num_layers=3,
        hidden_dim=8, activation=activation,
    )
    backend = GATBackend(num_heads=2) if model == "gat" else None
    return ECGraphTrainer(graph, layers, SPEC, cfg, backend=backend)


def _run(graph, model, activation, float_z):
    trainer = _trainer(graph, model, activation)
    trainer.setup()
    backend = trainer.engine.backend
    if float_z:
        for name, method in float_sigma.METHODS[model].items():
            setattr(backend, name, types.MethodType(method, backend))
    losses = [repr(trainer.run_epoch(t).loss) for t in range(3)]
    servers = trainer.engine.ctx.servers
    params = {
        name: servers.get(name).tobytes()
        for name in servers.parameter_names()
    }
    return trainer, losses, params


class TestMatchesFloatSigma:
    @pytest.mark.parametrize("activation", ACTIVATION_NAMES)
    @pytest.mark.parametrize("model", ["gcn", "sage", "gat"])
    def test_three_iterations_bit_equal(self, small_graph, model, activation):
        trainer, losses, params = _run(small_graph, model, activation, False)
        _, want_losses, want_params = _run(
            small_graph, model, activation, True
        )
        assert losses == want_losses
        assert params == want_params
        # The run kept what σ' reads as the activation says it should.
        sign_only = get_activation(activation).reads_sign
        for state in trainer.workers:
            for layer in (1, 2):
                cache = state.caches[layer]
                assert (cache.positive is not None) == sign_only
                assert (cache.pre_activation is None) == sign_only
                assert cache.derivative_input.dtype == (
                    np.bool_ if sign_only else np.float32
                )
            assert state.caches[3].positive is None


# ----------------------------------------------------------------------
# What the GCN plan holds
# ----------------------------------------------------------------------
class TestGCNPlan:
    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_hidden_layers_keep_a_mask_or_z(self, small_graph, activation):
        trainer = _trainer(small_graph, "gcn", activation)
        trainer.setup()
        ws = trainer.engine.ctx.workspaces
        for state in trainer.workers:
            plan = ws.plan_of(state.worker_id)
            dtype_of = {
                life.name: slot.dtype
                for slot in plan.slots for life in slot.occupants
            }
            for layer in (1, 2):
                if activation == "relu":
                    assert f"z{layer}" not in dtype_of
                    assert dtype_of[f"mask{layer}"] == np.bool_
                else:
                    assert f"mask{layer}" not in dtype_of
                    assert dtype_of[f"z{layer}"] == np.float32
            # The logits stay float32 under either.
            assert dtype_of["z3"] == np.float32

    def test_relu_writes_z_into_the_next_input_head(self, small_graph):
        trainer = _trainer(small_graph, "gcn", "relu")
        trainer.setup()
        backend = trainer.engine.backend
        ws = trainer.engine.ctx.workspaces
        forward, checked = backend.forward_layer, []

        def forward_layer(state, h_cat, pulled, layer, is_last):
            forward(state, h_cat, pulled, layer, is_last=is_last)
            if is_last:
                return
            # Right after the kernel: the head slot is later reused.
            cache = state.caches[layer]
            head = ws.h_cat(state, layer)[:state.num_local]
            assert cache.output.base is head.base
            assert cache.positive is ws.buffer(f"mask{layer}", state)
            same_bits(cache.positive, cache.output > 0)
            checked.append(layer)

        backend.forward_layer = forward_layer
        trainer.run_epoch(0)
        assert sorted(checked) == [1, 1, 1, 2, 2, 2]
