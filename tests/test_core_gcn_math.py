"""Unit tests for the GCN forward/backward kernels (paper Eqs. 2-6).

The backward formulas are verified against finite differences of a full
single-machine forward pass — an error here silently corrupts training,
so these are the most load-bearing tests in the suite.
"""

import numpy as np
import pytest
from oracles._graph import to_scipy
from scipy.sparse import csr_matrix

from repro.core.gcn_math import (
    apply_relu,
    bias_gradient,
    layer_backward_inputs,
    layer_forward,
    relu_backward,
    weight_gradient,
)
from repro.graph.normalize import normalized_adjacency
from repro.nn.losses import softmax_cross_entropy

EPS = 1e-4


@pytest.fixture
def setup():
    rng = np.random.default_rng(0)
    n, d_in, d_hidden, classes = 12, 6, 5, 3
    from repro.graph.generators import GraphSpec
    from repro.graph.streaming import stream_graph

    graph = stream_graph(
        GraphSpec(
            name="grad",
            num_vertices=n,
            avg_degree=3.0,
            feature_dim=d_in,
            num_classes=classes,
            train=6,
            val=3,
            test=3,
            seed=1,
        )
    )
    a = to_scipy(normalized_adjacency(graph.adjacency).to_csr())
    x = graph.feature_store.to_array().astype(np.float64)
    w1 = rng.standard_normal((d_in, d_hidden)) * 0.3
    w2 = rng.standard_normal((d_hidden, classes)) * 0.3
    b1 = rng.standard_normal(d_hidden) * 0.1
    b2 = rng.standard_normal(classes) * 0.1
    labels = graph.labels
    mask = graph.train_mask
    # Finite differences of ReLU hold off its kink: a step of EPS in any
    # weight moves Z^1 by at most EPS * max|A X|, far less than the
    # smallest |Z^1|, so no central difference straddles a sign change.
    ax = a @ x
    assert np.abs(ax @ w1 + b1).min() > 10 * EPS * np.abs(ax).max()
    return a, x, w1, b1, w2, b2, labels, mask


def _loss(a, x, w1, b1, w2, b2, labels, mask):
    """Reference 2-layer GCN loss (dense path)."""
    z1 = a @ x @ w1 + b1
    h1 = np.maximum(z1, 0.0)
    z2 = a @ h1 @ w2 + b2
    return softmax_cross_entropy(
        z2.astype(np.float32), labels, mask
    ).loss


class TestForward:
    def test_aggregate_first_equals_transform_first(self, setup):
        a, x, w1, b1, *_ = setup
        agg = layer_forward(csr_matrix(a), x.astype(np.float32),
                            w1.astype(np.float32), b1.astype(np.float32),
                            is_last=False, transform_first=False)
        tr = layer_forward(csr_matrix(a), x.astype(np.float32),
                           w1.astype(np.float32), b1.astype(np.float32),
                           is_last=False, transform_first=True)
        np.testing.assert_allclose(agg.output, tr.output, atol=1e-4)

    def test_last_layer_skips_activation(self, setup):
        a, x, w1, b1, *_ = setup
        cache = layer_forward(csr_matrix(a), x.astype(np.float32),
                              w1.astype(np.float32), b1.astype(np.float32),
                              is_last=True)
        z = (a @ x.astype(np.float32) @ w1.astype(np.float32)
             + b1.astype(np.float32))
        assert cache.positive is None
        assert (cache.output < 0).any()
        np.testing.assert_allclose(cache.output, z, atol=1e-5)

    def test_auto_ordering_picks_cheaper(self, setup):
        a, x, w1, b1, *_ = setup
        # d_in=6 > d_out=5 -> transform first.
        cache = layer_forward(csr_matrix(a), x.astype(np.float32),
                              w1.astype(np.float32), b1.astype(np.float32),
                              is_last=False)
        assert cache.transform_first
        assert cache.aggregated is None

    def test_dim_mismatch_rejected(self, setup):
        a, x, w1, b1, *_ = setup
        with pytest.raises(ValueError):
            layer_forward(csr_matrix(a), x[:, :3].astype(np.float32),
                          w1.astype(np.float32), b1.astype(np.float32),
                          is_last=False)


class TestBackwardAgainstFiniteDifferences:
    def test_weight2_gradient(self, setup):
        a, x, w1, b1, w2, b2, labels, mask = setup
        a_sp = csr_matrix(a)
        c1 = layer_forward(a_sp, x.astype(np.float32), w1.astype(np.float32),
                           b1.astype(np.float32), is_last=False,
                           transform_first=False)
        c2 = layer_forward(a_sp, c1.output, w2.astype(np.float32),
                           b2.astype(np.float32), is_last=True,
                           transform_first=False)
        result = softmax_cross_entropy(c2.output, labels, mask)
        grad_w2 = weight_gradient(c2, a_sp, result.grad)
        grad_b2 = bias_gradient(result.grad)

        eps = EPS
        for i in range(w2.shape[0]):
            for j in range(w2.shape[1]):
                bumped = w2.copy()
                bumped[i, j] += eps
                up = _loss(a, x, w1, b1, bumped, b2, labels, mask)
                bumped[i, j] -= 2 * eps
                down = _loss(a, x, w1, b1, bumped, b2, labels, mask)
                assert grad_w2[i, j] == pytest.approx(
                    (up - down) / (2 * eps), abs=2e-3
                )
        for j in range(b2.shape[0]):
            bumped = b2.copy()
            bumped[j] += eps
            up = _loss(a, x, w1, b1, w2, bumped, labels, mask)
            bumped[j] -= 2 * eps
            down = _loss(a, x, w1, b1, w2, bumped, labels, mask)
            assert grad_b2[j] == pytest.approx((up - down) / (2 * eps), abs=2e-3)

    def test_weight1_gradient_through_propagation(self, setup):
        a, x, w1, b1, w2, b2, labels, mask = setup
        a_sp = csr_matrix(a)
        c1 = layer_forward(a_sp, x.astype(np.float32), w1.astype(np.float32),
                           b1.astype(np.float32), is_last=False,
                           transform_first=False)
        c2 = layer_forward(a_sp, c1.output, w2.astype(np.float32),
                           b2.astype(np.float32), is_last=True,
                           transform_first=False)
        result = softmax_cross_entropy(c2.output, labels, mask)
        # Propagate G^2 -> G^1 (Eq. 5; symmetric a plays A^T).
        g1 = layer_backward_inputs(
            a_sp, result.grad, w2.astype(np.float32),
            c1.positive,
        )
        grad_w1 = weight_gradient(c1, a_sp, g1)

        eps = EPS
        rng = np.random.default_rng(3)
        for _ in range(20):
            i = rng.integers(0, w1.shape[0])
            j = rng.integers(0, w1.shape[1])
            bumped = w1.copy()
            bumped[i, j] += eps
            up = _loss(a, x, bumped, b1, w2, b2, labels, mask)
            bumped[i, j] -= 2 * eps
            down = _loss(a, x, bumped, b1, w2, b2, labels, mask)
            assert grad_w1[i, j] == pytest.approx(
                (up - down) / (2 * eps), abs=2e-3
            )

    def test_weight_gradient_transform_first_matches(self, setup):
        """Transform-first drops the aggregated cache; the gradient must
        be recomputed identically."""
        a, x, w1, b1, w2, b2, labels, mask = setup
        a_sp = csr_matrix(a)
        kwargs = dict(weight=w1.astype(np.float32),
                      bias=b1.astype(np.float32))
        agg = layer_forward(a_sp, x.astype(np.float32),
                            is_last=False, transform_first=False, **kwargs)
        tr = layer_forward(a_sp, x.astype(np.float32),
                           is_last=False, transform_first=True, **kwargs)
        g = np.random.default_rng(1).standard_normal(
            agg.output.shape
        ).astype(np.float32)
        np.testing.assert_allclose(
            weight_gradient(agg, a_sp, g),
            weight_gradient(tr, a_sp, g),
            atol=1e-3,
        )


# ReLU's two kernels, at the edges of shape and in both float widths.
SHAPES = [(0, 3), (1, 1), (7, 1), (40, 7), (3, 64)]
DTYPES = [np.float32, np.float64]


def _signed(shape, dtype, seed):
    """Values of both signs with exact and negative zeros among them."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(shape).astype(dtype)
    z[rng.random(shape) < 0.2] = 0.0
    z[rng.random(shape) < 0.1] = -0.0
    return z


class TestReluKernels:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_forward_clamps_negatives_in_place(self, dtype, shape):
        z = _signed(shape, dtype, seed=1)
        want = np.where(z > 0, z, 0.0)
        buffer = z.copy()
        h, positive = apply_relu(buffer, is_last=False)
        assert h is buffer and h.dtype == dtype
        assert np.array_equal(h, want)
        assert (h >= 0).all()
        assert positive.dtype == np.bool_
        assert np.array_equal(positive, z > 0)

    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: d.__name__)
    def test_backward_is_the_indicator(self, dtype, shape):
        z = _signed(shape, dtype, seed=2)
        dh = _signed(shape, dtype, seed=3)
        on = z > 0
        got = relu_backward(dh.copy(), on)
        assert got.dtype == dtype
        assert np.array_equal(got[on], dh[on])
        assert (got[~on] == 0).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_backward_matches_finite_difference(self, seed):
        """``d/dz sum(g * relu(z))``, with ``z`` kept off the kink."""
        rng = np.random.default_rng(seed)
        shape = (5 + seed, 3 + seed)
        z = rng.uniform(0.1, 2.0, shape) * rng.choice([-1.0, 1.0], shape)
        g = rng.standard_normal(shape)
        _, positive = apply_relu(z.copy(), is_last=False)
        got = relu_backward(g.copy(), positive)
        # Elementwise, so one central difference per entry at once.
        up, down = np.maximum(z + EPS, 0.0), np.maximum(z - EPS, 0.0)
        np.testing.assert_allclose(
            got, g * (up - down) / (2 * EPS), rtol=1e-6, atol=1e-9
        )
