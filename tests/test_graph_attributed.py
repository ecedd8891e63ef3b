"""Unit tests for ``memory_bundle``, the constructor of a resident
attributed graph, and for the generators' split masks."""

import numpy as np
import pytest

from repro.graph.csr import from_edge_list
from repro.graph.store.memory import memory_bundle
from repro.graph.streaming import make_split_masks


def _graph(n=6, classes=2, **overrides):
    edges = [(v, (v + 1) % n) for v in range(n)]
    adjacency = from_edge_list(edges, n)
    rng = np.random.default_rng(0)
    fields = dict(
        adjacency=adjacency,
        features=rng.standard_normal((n, 4)).astype(np.float32),
        labels=rng.integers(0, classes, n),
        train_mask=np.array([True] * 2 + [False] * (n - 2)),
        val_mask=np.array([False] * 2 + [True] * 2 + [False] * (n - 4)),
        test_mask=np.array([False] * 4 + [True] * (n - 4)),
        num_classes=classes,
    )
    fields.update(overrides)
    return memory_bundle(**fields)


class TestValidation:
    def test_valid_graph_constructs(self):
        g = _graph()
        assert g.num_vertices == 6
        assert g.feature_dim == 4

    def test_feature_rows_must_match(self):
        with pytest.raises(ValueError, match="features"):
            _graph(features=np.zeros((5, 4), dtype=np.float32))

    def test_label_shape_must_match(self):
        with pytest.raises(ValueError, match="labels"):
            _graph(labels=np.zeros(5, dtype=np.int64))

    def test_mask_shape_must_match(self):
        with pytest.raises(ValueError, match="train_mask"):
            _graph(train_mask=np.zeros(5, dtype=bool))

    def test_labelled_class_out_of_range_rejected(self):
        labels = np.zeros(6, dtype=np.int64)
        labels[0] = 9  # vertex 0 is in train_mask
        with pytest.raises(ValueError, match="class id"):
            _graph(labels=labels)

    def test_unlabelled_vertices_may_have_sentinel(self):
        labels = np.zeros(6, dtype=np.int64)
        labels[5] = -1
        g = _graph(
            labels=labels,
            test_mask=np.zeros(6, dtype=bool),
        )
        assert g.labels[5] == -1

    def test_nonpositive_classes_rejected(self):
        with pytest.raises(ValueError, match="num_classes"):
            _graph(num_classes=0)

    def test_features_cast_to_float32(self):
        g = _graph(features=np.ones((6, 4), dtype=np.float64))
        assert g.feature_store.dtype == np.float32

    def test_arrays_are_wrapped_zero_copy(self):
        features = np.ones((6, 4), dtype=np.float32)
        g = _graph(features=features)
        assert g.feature_store.to_array() is features
        assert g.adjacency.to_csr() is g.adjacency.to_csr()


class TestAccessors:
    def test_split_sizes(self):
        assert _graph().split_sizes() == (2, 2, 2)

    def test_summary_mentions_name_and_counts(self):
        text = _graph().summary()
        assert "unnamed" in text
        assert "|V|=6" in text

    def test_summary_reports_average_degree(self):
        g = _graph()
        assert g.adjacency.average_degree == 1.0
        assert "avg_degree=1.00" in g.summary()


class TestSplitMasks:
    def test_disjoint_and_sized(self):
        rng = np.random.default_rng(1)
        train, val, test = make_split_masks(100, 60, 20, 15, rng)
        assert train.sum() == 60 and val.sum() == 20 and test.sum() == 15
        assert not (train & val).any()
        assert not (train & test).any()
        assert not (val & test).any()

    def test_oversized_split_rejected(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="exceed"):
            make_split_masks(10, 6, 4, 2, rng)

    def test_deterministic_given_seed(self):
        a = make_split_masks(50, 10, 10, 10, np.random.default_rng(5))
        b = make_split_masks(50, 10, 10, 10, np.random.default_rng(5))
        for mask_a, mask_b in zip(a, b):
            np.testing.assert_array_equal(mask_a, mask_b)
