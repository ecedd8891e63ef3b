"""Unit tests for the parameter servers and range sharding."""

import numpy as np
import pytest

from repro.cluster import serialize
from repro.cluster.engine import ClusterRuntime
from repro.cluster.param_server import ParameterServerGroup, range_shards
from repro.cluster.topology import ClusterSpec
from repro.nn.optim import Adam, Optimizer


class SGD(Optimizer):
    """Plain gradient descent: makes each server update readable."""

    def step(self, params, grads):
        for name, grad in grads.items():
            params[name] -= (self.lr * grad).astype(params[name].dtype)


def _group(num_workers=2, num_servers=2, lr=1.0):
    runtime = ClusterRuntime(ClusterSpec(num_workers=num_workers,
                                         num_servers=num_servers))
    return ParameterServerGroup(runtime, lambda: SGD(lr=lr)), runtime


class TestRangeShards:
    def test_even_split(self):
        shards = range_shards("w", 10, 2)
        assert [(s.start, s.stop) for s in shards] == [(0, 5), (5, 10)]

    def test_uneven_split_front_loads(self):
        shards = range_shards("w", 7, 3)
        assert [(s.start, s.stop) for s in shards] == [(0, 3), (3, 5), (5, 7)]

    def test_fewer_rows_than_servers(self):
        shards = range_shards("w", 2, 4)
        assert len(shards) == 2
        assert all(s.stop - s.start == 1 for s in shards)

    def test_covers_all_rows(self):
        shards = range_shards("w", 13, 5)
        covered = sorted(
            (row for s in shards for row in range(s.start, s.stop))
        )
        assert covered == list(range(13))


class TestPushPullUpdate:
    def test_pull_returns_copy(self):
        # A read-only copy: every pull of this version shares it, so a
        # worker cannot write through it, into the parameters or into
        # another worker's pull.
        group, _ = _group()
        group.register("w", np.ones((4, 2), dtype=np.float32))
        pulled = group.pull(0, ["w"])["w"]
        assert not np.shares_memory(pulled, group.get("w"))
        with pytest.raises(ValueError, match="read-only"):
            pulled[:] = 0.0
        assert group.get("w").sum() == 8.0

    def test_sum_reduce(self):
        group, _ = _group(lr=1.0)
        group.register("w", np.zeros(4, dtype=np.float32))
        group.push(0, {"w": np.full(4, 2.0, dtype=np.float32)})
        group.push(1, {"w": np.full(4, 4.0, dtype=np.float32)})
        group.apply_updates()
        np.testing.assert_allclose(group.get("w"), -6.0)

    def test_sharded_update_equals_global(self):
        """Per-server Adam over shards == one global Adam (element-wise)."""
        rng = np.random.default_rng(0)
        w0 = rng.standard_normal((9, 3)).astype(np.float32)
        grads = [rng.standard_normal((9, 3)).astype(np.float32)
                 for _ in range(5)]

        runtime = ClusterRuntime(ClusterSpec(num_workers=1, num_servers=3))
        group = ParameterServerGroup(runtime, lambda: Adam(lr=0.05))
        group.register("w", w0.copy())
        for g in grads:
            group.push(0, {"w": g})
            group.apply_updates()

        reference = Adam(lr=0.05)
        w_ref = {"w": w0.copy()}
        for g in grads:
            reference.step(w_ref, {"w": g})

        np.testing.assert_allclose(group.get("w"), w_ref["w"], atol=1e-5)

    def test_optimizer_updates_the_parameters_in_place(self):
        """Each server's optimizer gets views of the parameter rows it
        owns, so its in-place step is the update."""
        seen = []

        class Recording(SGD):
            def step(self, params, grads):
                seen.extend(params.values())
                super().step(params, grads)

        runtime = ClusterRuntime(ClusterSpec(num_workers=1, num_servers=2))
        group = ParameterServerGroup(runtime, lambda: Recording(lr=1.0))
        group.register("w", np.zeros((4, 2), dtype=np.float32))
        group.push(0, {"w": np.ones((4, 2), dtype=np.float32)})
        group.apply_updates()
        assert len(seen) == 2
        assert all(np.shares_memory(view, group.get("w")) for view in seen)
        np.testing.assert_array_equal(group.get("w"), -1.0)

    def test_pending_cleared_after_update(self):
        group, _ = _group(lr=1.0)
        group.register("w", np.zeros(2, dtype=np.float32))
        group.push(0, {"w": np.ones(2, dtype=np.float32)})
        group.apply_updates()
        group.apply_updates()  # no pending grads: no further change
        np.testing.assert_allclose(group.get("w"), -1.0)

    def test_traffic_charged_for_remote_server(self):
        runtime = ClusterRuntime(ClusterSpec(num_workers=2, num_servers=2))
        group = ParameterServerGroup(runtime, lambda: SGD(lr=1.0))
        group.register("w", np.zeros((8, 4), dtype=np.float32))
        group.pull(0, ["w"])  # shard 0 local to worker 0, shard 1 remote
        assert runtime.meter.total_bytes > 0

    def test_bias_vector_sharding(self):
        group, _ = _group(num_servers=3, lr=1.0)
        group.register("b", np.zeros(5, dtype=np.float32))
        group.push(0, {"b": np.arange(5, dtype=np.float32)})
        group.apply_updates()
        np.testing.assert_allclose(group.get("b"), -np.arange(5))


class TestOneFramePerVersion:
    """Each shard is framed once per parameter version; every pull of
    that version is charged the frames' lengths and shares one copy."""

    def _counting(self, monkeypatch):
        import repro.cluster.param_server as ps

        calls = []

        def encode_raw(rows):
            calls.append(rows.shape)
            return serialize.encode_raw(rows)

        monkeypatch.setattr(ps, "encode_raw", encode_raw)
        return calls

    def test_pulls_of_one_version_share_the_frames(self, monkeypatch):
        calls = self._counting(monkeypatch)
        w = np.arange(12, dtype=np.float32).reshape(6, 2)
        group, runtime = _group(num_workers=3, num_servers=2)
        group.register("w", w)
        pulls = [group.pull(worker, ["w"])["w"] for worker in range(3)]
        assert calls == [(3, 2), (3, 2)]  # one frame per shard, once
        assert all(p is pulls[0] for p in pulls)
        np.testing.assert_array_equal(pulls[0], w)
        # Charged as if each pull sent its own frame of every shard.
        _, reference = _group(num_workers=3, num_servers=2)
        for worker in range(3):
            for shard in range_shards("w", 6, 2):
                frame = serialize.encode_raw(w[shard.start:shard.stop])
                reference.send_server_to_worker(
                    shard.server, worker, len(frame), "param_pull"
                )
        assert runtime.meter.epoch_category_bytes() == (
            reference.meter.epoch_category_bytes()
        )
        assert runtime.meter.total_messages == reference.meter.total_messages
        assert runtime.meter.total_bytes > 0

    @pytest.mark.parametrize("write", ["apply_updates", "set"])
    def test_a_write_makes_a_new_version(self, monkeypatch, write):
        calls = self._counting(monkeypatch)
        group, _ = _group(num_servers=2, lr=1.0)
        group.register("w", np.zeros((4, 2), dtype=np.float32))
        old = group.pull(0, ["w"])["w"]
        if write == "apply_updates":
            group.push(0, {"w": np.ones((4, 2), dtype=np.float32)})
            group.apply_updates()
        else:
            group.set("w", np.full((4, 2), -1.0, dtype=np.float32))
        framed = len(calls)
        new = group.pull(1, ["w"])["w"]
        assert len(calls) == framed + 2  # both shards framed again
        np.testing.assert_array_equal(new, -1.0)
        # The earlier pull was a copy: the in-place step left it alone.
        np.testing.assert_array_equal(old, 0.0)

    def test_no_write_bypasses_the_versions(self):
        """``set`` and ``_apply_updates`` are the only writes: ``get``
        hands out a read-only view of the live rows, and ``register`` /
        ``set`` keep a copy, so no array a caller holds is live."""
        group, _ = _group(num_servers=2, lr=1.0)
        given = np.zeros((4, 2), dtype=np.float32)
        group.register("w", given)
        live = group.get("w")
        with pytest.raises(ValueError, match="read-only"):
            live[0, 0] = 1.0
        group.pull(0, ["w"])
        given[:] = 5.0
        restored = np.full((4, 2), -1.0, dtype=np.float32)
        group.set("w", restored)
        restored[:] = 7.0
        np.testing.assert_array_equal(group.pull(1, ["w"])["w"], -1.0)
        # The view stays the live parameter until ``set`` replaces it.
        group.push(0, {"w": np.ones((4, 2), dtype=np.float32)})
        group.apply_updates()
        np.testing.assert_array_equal(group.get("w"), -2.0)
        np.testing.assert_array_equal(live, 0.0)

class TestValidation:
    def test_duplicate_register_rejected(self):
        group, _ = _group()
        group.register("w", np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError):
            group.register("w", np.zeros(2, dtype=np.float32))

    def test_unknown_grad_rejected(self):
        group, _ = _group()
        with pytest.raises(KeyError):
            group.push(0, {"nope": np.zeros(2)})

    def test_shape_mismatch_rejected(self):
        group, _ = _group()
        group.register("w", np.zeros(2, dtype=np.float32))
        with pytest.raises(ValueError):
            group.push(0, {"w": np.zeros(3)})

    def test_state_dict_is_copy(self):
        group, _ = _group()
        group.register("w", np.ones(2, dtype=np.float32))
        state = group.state_dict()
        state["w"][:] = 0
        assert group.get("w").sum() == 2.0

    def test_set_restores(self):
        group, _ = _group()
        group.register("w", np.ones(2, dtype=np.float32))
        group.set("w", np.full(2, 5.0, dtype=np.float32))
        assert group.get("w")[0] == 5.0
        with pytest.raises(ValueError):
            group.set("w", np.zeros(3, dtype=np.float32))
