"""σ' as a one-byte mask: what a hidden layer keeps for its derivative.

Every hidden layer is ReLU, whose derivative reads only the sign of
``Z``: it keeps the bool mask ``Z > 0``, and the GCN kernel writes ``Z``
straight into the next layer's input head and activates it there.
Pinned here:

* the forward records the mask exactly where ``relu'(Z)`` is 1
  (``apply_relu``), and the backward rule (``relu_backward``) gives
  from it the bits ``dh * relu'(Z)`` gives — signed zeros, NaN and
  infinities included, in place or into another destination;
* for each of GCN, SAGE and GAT, under every halo exchange, three
  iterations train to the losses and parameters of the float-``Z``
  kernels (kept verbatim in ``tests/oracles/float_sigma.py``), bit for
  bit;
* the plan holds a bool ``mask{l}`` and no float ``z{l}`` for the
  hidden layers.
"""

from __future__ import annotations

import types

import numpy as np
import pytest
from oracles import float_sigma
from oracles.relu import relu

from repro.cluster.topology import ClusterSpec
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.gcn_math import apply_relu, relu_backward
from repro.core.trainer import ECGraphTrainer
from repro.engine.backends import GATBackend

SPEC = ClusterSpec(num_workers=3, num_servers=1)


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


# Memory layouts the kernels meet: rows, columns, a column-strided view
# and a row-reversed one (negative strides).
LAYOUTS = ["c", "f", "strided", "reversed"]


def _laid_out(x: np.ndarray, layout: str) -> np.ndarray:
    """A fresh array with ``x``'s values in ``layout``."""
    if layout == "c":
        return np.ascontiguousarray(x)
    if layout == "f":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.empty((x.shape[0], 2 * x.shape[1]), dtype=x.dtype)
        wide[:, ::2] = x
        return wide[:, ::2]
    return np.ascontiguousarray(x[::-1])[::-1]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestMaskRule:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("into", ["in_place", "other"])
    def test_mask_gives_the_bits_of_the_float_factors(self, into, layout):
        z, dh = _awkward((40, 7), 1), _awkward((40, 7), 2)
        want = dh * relu.derivative(z)
        mask = _laid_out(z, layout) > 0
        if into == "in_place":
            got = _laid_out(dh, layout)
            assert relu_backward(got, mask) is got
        else:
            out = np.full_like(dh, 7.0)
            got = relu_backward(_laid_out(dh, layout), mask, out=out)
            assert got is out
        same_bits(got, want)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("into", ["in_place", "other"])
    def test_the_forward_records_the_mask_the_derivative_reads(
        self, into, layout
    ):
        """At ±0, NaN and ±inf too: the mask is where ``relu'(Z)`` is 1,
        and the output is ``relu(Z)``."""
        z = _awkward((40, 7), 5)
        want_h, want_mask = relu(z), relu.derivative(z) == 1.0
        out = np.full_like(z, 7.0) if into == "other" else None
        h, positive = apply_relu(_laid_out(z, layout), False, out)
        assert positive.dtype == np.bool_
        same_bits(positive, want_mask)
        same_bits(h, want_h)
        if out is not None:
            assert h is out

    def test_the_last_layer_keeps_its_logits(self):
        z = _awkward((40, 7), 6)
        h, positive = apply_relu(z, True, np.full_like(z, 7.0))
        assert h is z and positive is None


# ----------------------------------------------------------------------
# Three iterations against the float-Z kernels
# ----------------------------------------------------------------------
def _trainer(graph, model, wire=("reqec", "resec"), num_layers=3):
    fp_mode, bp_mode = wire
    cfg = ECGraphConfig(seed=3, fp_mode=fp_mode, bp_mode=bp_mode)
    layers = ModelConfig(
        model="sage" if model == "sage" else "gcn", num_layers=num_layers,
        hidden_dim=8,
    )
    backend = GATBackend(num_heads=2) if model == "gat" else None
    return ECGraphTrainer(graph, layers, SPEC, cfg, backend=backend)


def _run(graph, model, wire, float_z):
    trainer = _trainer(graph, model, wire)
    trainer.setup()
    backend = trainer.engine.backend
    if float_z:
        # The verbatim kernels read their activation off the run's
        # parameters, which no longer carry one: feed them ReLU.
        backend.ctx.params.activation = relu
        for name, method in float_sigma.METHODS[model].items():
            setattr(backend, name, types.MethodType(method, backend))
    losses = [repr(trainer.run_epoch(t).loss) for t in range(3)]
    servers = trainer.engine.ctx.servers
    params = {
        name: servers.get(name).tobytes()
        for name in servers.parameter_names()
    }
    return trainer, losses, params


# (fp_mode, bp_mode): each forward and each backward halo exchange.
WIRES = [
    ("raw", "raw"), ("compress", "compress"), ("reqec", "resec"),
    ("delayed", "delayed"), ("reqec", "raw"), ("raw", "resec"),
]


class TestMatchesFloatSigma:
    @pytest.mark.parametrize("wire", WIRES, ids="-".join)
    @pytest.mark.parametrize("model", ["gcn", "sage", "gat"])
    def test_three_iterations_bit_equal(self, small_graph, model, wire):
        trainer, losses, params = _run(small_graph, model, wire, False)
        _, want_losses, want_params = _run(small_graph, model, wire, True)
        assert losses == want_losses
        assert params == want_params
        # The run kept the mask σ' reads on every hidden layer.
        for state in trainer.workers:
            for layer in (1, 2):
                assert state.caches[layer].positive.dtype == np.bool_
            assert state.caches[3].positive is None


# ----------------------------------------------------------------------
# What the GCN plan holds
# ----------------------------------------------------------------------
class TestGCNPlan:
    @pytest.mark.parametrize("num_layers", [2, 3, 4])
    def test_hidden_layers_keep_a_mask(self, small_graph, num_layers):
        trainer = _trainer(small_graph, "gcn", num_layers=num_layers)
        trainer.setup()
        ws = trainer.engine.ctx.workspaces
        for state in trainer.workers:
            plan = ws.plan_of(state.worker_id)
            dtype_of = {
                life.name: slot.dtype
                for slot in plan.slots for life in slot.occupants
            }
            for layer in range(1, num_layers):
                assert f"z{layer}" not in dtype_of
                assert dtype_of[f"mask{layer}"] == np.bool_
            # The logits stay float32.
            assert dtype_of[f"z{num_layers}"] == np.float32

    def test_relu_writes_z_into_the_next_input_head(self, small_graph):
        trainer = _trainer(small_graph, "gcn")
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
