"""Integration tests for sampling mode (EC-Graph-S / DistDGL):
``backend=SampledGCNBackend(...)``."""

import time

import numpy as np
import pytest

from frames import payload
from repro.baselines import CachedKHopBackend
from repro.cluster.topology import ClusterSpec
from repro.core.bit_tuner import BitTuner
from repro.core.config import ECGraphConfig, ModelConfig
from repro.core.policies import CompressPolicy, DelayedPolicy
from repro.core.reqec_fp import ReqECPolicy
from repro.core.trainer import ECGraphTrainer
from repro.engine import SampledGCNBackend


def _sampled(graph, fanouts, workers=3, online=False, config=None,
             epochs=10, layers=2, fp_policy=None):
    trainer = ECGraphTrainer(
        graph,
        ModelConfig(num_layers=layers, hidden_dim=8),
        ClusterSpec(num_workers=workers),
        config or ECGraphConfig(fp_mode="compress", bp_mode="resec"),
        fp_policy=fp_policy,
        backend=SampledGCNBackend(fanouts, online=online),
    )
    return trainer, trainer.train(epochs)


class TestValidation:
    def test_fanout_count_must_match_layers(self, small_graph):
        with pytest.raises(ValueError, match="fanouts"):
            _sampled(small_graph, fanouts=[5])

    def test_reqec_rejected(self, small_graph):
        with pytest.raises(ValueError, match="full-batch"):
            _sampled(small_graph, [5, 5],
                     config=ECGraphConfig(fp_mode="reqec"))

    def test_delayed_backward_rejected(self, small_graph):
        # (delayed forward: tests/test_api.py::TestSamplingGuards)
        with pytest.raises(ValueError, match="delayed"):
            _sampled(small_graph, [5, 5],
                     config=ECGraphConfig(fp_mode="raw", bp_mode="delayed"))

    @pytest.mark.parametrize("fp_policy, match", [
        (ReqECPolicy(BitTuner()), "full-batch"),
        (DelayedPolicy(3), "delayed aggregation"),
    ], ids=["reqec", "delayed"])
    def test_injected_policy_rejected_at_bind(
        self, small_graph, fp_policy, match
    ):
        """The backend reads the policies the run uses, not the mode
        strings: an injected one is refused at set-up, before any
        exchange."""
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2),
            ClusterSpec(num_workers=2),
            ECGraphConfig(fp_mode="compress", bp_mode="resec"),
            fp_policy=fp_policy, backend=SampledGCNBackend([5, 5]),
        )
        with pytest.raises(ValueError, match=match):
            trainer.setup()
        assert trainer.engine is None

    def test_injected_policy_overrides_a_rejected_mode(self, small_graph):
        """``fp_mode="reqec"`` names a policy the run does not use."""
        _, run = _sampled(
            small_graph, [5, 5], epochs=3,
            config=ECGraphConfig(fp_mode="reqec", bp_mode="resec"),
            fp_policy=CompressPolicy(4),
        )
        assert all(np.isfinite(epoch.loss) for epoch in run.epochs)

    def test_rejections_leave_no_engine_behind(self, small_graph):
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2),
            ClusterSpec(num_workers=2),
            ECGraphConfig(fp_mode="reqec", execution="multiprocess"),
            backend=SampledGCNBackend([5, 5]),
        )
        with pytest.raises(ValueError, match="full-batch"):
            trainer.setup()
        assert trainer.engine is None
        trainer.close()

    def test_zero_fanout_rejected(self):
        with pytest.raises(ValueError, match="fanouts"):
            SampledGCNBackend([5, 0])

    @pytest.mark.parametrize("backend", [SampledGCNBackend, CachedKHopBackend])
    @pytest.mark.parametrize("fanouts", [
        [2.5, 2.5], [2.0, 2], [5, "3"], [True, 2], [None],
    ])
    def test_non_integral_fanouts_rejected(self, backend, fanouts):
        # A float cap would slip through the key sort: ``rank < 2.5``
        # keeps three edges a row.
        with pytest.raises(ValueError, match="fanouts must be >= 1 and integers"):
            backend(fanouts)

    @pytest.mark.parametrize("backend", [SampledGCNBackend, CachedKHopBackend])
    def test_numpy_integer_fanouts_accepted(self, backend):
        assert backend(np.array([3, 2])).fanouts == [3, 2]


class TestSampling:
    def test_trains_to_reasonable_accuracy(self, medium_graph):
        _, run = _sampled(medium_graph, fanouts=[8, 4], epochs=40)
        assert run.best_test_accuracy() > 0.6

    def test_sampling_reduces_traffic(self, medium_graph):
        full = ECGraphTrainer(
            medium_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=3),
            ECGraphConfig(fp_mode="raw", bp_mode="raw"),
        )
        full_run = full.train(5)
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw")
        _, sampled_run = _sampled(
            medium_graph, fanouts=[3, 3], config=config, epochs=5
        )
        assert sampled_run.total_bytes() < full_run.total_bytes()

    def test_huge_fanout_equals_full_batch_traffic_shape(self, small_graph):
        """With fanouts above the max degree, sampling keeps every edge,
        so per-epoch loss matches the full-batch trainer exactly."""
        config = ECGraphConfig(fp_mode="raw", bp_mode="raw", seed=4)
        full = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=3), config,
        )
        full_run = full.train(5)
        _, sampled_run = _sampled(
            small_graph, fanouts=[10_000, 10_000], config=config, epochs=5
        )
        for a, b in zip(full_run.epochs, sampled_run.epochs):
            assert a.loss == pytest.approx(b.loss, rel=1e-4, abs=1e-5)

    def test_online_resamples_each_epoch(self, medium_graph):
        trainer, _ = _sampled(
            medium_graph, fanouts=[4, 4], online=True, epochs=2,
            config=ECGraphConfig(fp_mode="raw", bp_mode="raw"),
        )
        first = [m.copy() for m in
                 [trainer.engine.backend.sampled_adj[0][1].indices]]
        trainer.run_epoch(2)
        second = trainer.engine.backend.sampled_adj[0][1].indices
        assert not np.array_equal(first[0], second)

    def test_offline_keeps_sample_fixed(self, medium_graph):
        trainer, _ = _sampled(
            medium_graph, fanouts=[4, 4], online=False, epochs=2,
            config=ECGraphConfig(fp_mode="raw", bp_mode="raw"),
        )
        first = trainer.engine.backend.sampled_adj[0][1].indices.copy()
        trainer.run_epoch(2)
        np.testing.assert_array_equal(
            first, trainer.engine.backend.sampled_adj[0][1].indices
        )

    def test_online_charges_sampling_traffic(self, medium_graph):
        _, online_run = _sampled(
            medium_graph, fanouts=[4, 4], online=True, epochs=5,
            config=ECGraphConfig(fp_mode="raw", bp_mode="raw"),
        )
        sampled_categories = online_run.epochs[0].breakdown.category_bytes
        assert "sampling" in sampled_categories

    def test_row_scaling_unbiased(self, medium_graph):
        """Sampled aggregation row sums approximate the full row sums."""
        trainer, _ = _sampled(
            medium_graph, fanouts=[5, 5], epochs=1,
            config=ECGraphConfig(fp_mode="raw", bp_mode="raw"),
        )
        state = trainer.workers[0]
        full_sums = np.asarray(state.a_local.sum(axis=1)).ravel()
        trials = []
        for _ in range(30):
            trainer.engine.backend.resample()
            sampled = trainer.engine.backend.sampled_adj[0][1]
            trials.append(np.asarray(sampled.sum(axis=1)).ravel())
        mean_sums = np.mean(trials, axis=0)
        # Unbiased estimator: mean over resamples tracks the full sums.
        np.testing.assert_allclose(mean_sums, full_sums, rtol=0.35, atol=0.05)

    def test_resec_with_sampling_converges(self, medium_graph):
        config = ECGraphConfig(
            fp_mode="compress", bp_mode="resec", fp_bits=4, bp_bits=4
        )
        _, run = _sampled(medium_graph, fanouts=[8, 4], config=config,
                          epochs=40)
        assert run.best_test_accuracy() > 0.6


class TestCrashWithResidualReset:
    """A crash zeroes the ResEC residuals
    touching the crashed worker in place: sampled channels stay primed
    with their full-channel shape, so the next subset respond works."""

    @pytest.mark.parametrize("execution", ["sync", "multiprocess"])
    def test_sampled_run_survives_the_crash(self, medium_graph, execution):
        from repro.faults.config import FaultConfig

        config = ECGraphConfig(
            fp_mode="compress", bp_mode="resec", seed=0, execution=execution,
            faults=FaultConfig(enabled=True, crash_schedule=((2, 1),)),
        )
        with ECGraphTrainer(
            medium_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=2), config,
            backend=SampledGCNBackend([4, 4]),
        ) as trainer:
            run = trainer.train(4)
            residuals = trainer.engine.ctx.bp_policy._residual
        assert len(run.epochs) == 4
        assert all(np.isfinite(epoch.loss) for epoch in run.epochs)
        assert residuals and all(
            r.shape[0] == len(trainer.workers[k.requester].requests[k.responder])
            for k, r in residuals.items()
        )

    def test_zeroed_residual_responds_like_a_fresh_channel(self):
        """Full batch: ``rows + 0`` is ``rows + zeros_like(rows)``, so a
        zeroed channel ships the bytes a never-seen channel would."""
        from repro.core.messages import ChannelKey
        from repro.core.resec_bp import ResECPolicy

        key = ChannelKey(layer=2, responder=0, requester=1)
        rng = np.random.default_rng(3)
        first, second = (
            rng.standard_normal((12, 5)).astype(np.float32) for _ in range(2)
        )
        policy = ResECPolicy(bits=2)
        policy.respond(key, first, 0)
        policy.invalidate_worker(1)
        assert not policy._residual[key].any()
        zeroed = payload(policy.respond(key, second, 1)).decode()
        fresh = payload(ResECPolicy(bits=2).respond(key, second, 1)).decode()
        assert zeroed.tobytes() == fresh.tobytes()
        np.testing.assert_array_equal(
            policy._residual[key], second - fresh
        )


class TestSamplingCharge:
    def test_each_worker_pays_its_own_resampling_wall(self, small_graph,
                                                      monkeypatch):
        """Online, a worker's modelled compute includes the wall of its
        own sampling, not an even share of everybody's."""
        trainer = ECGraphTrainer(
            small_graph, ModelConfig(num_layers=2, hidden_dim=8),
            ClusterSpec(num_workers=3),
            ECGraphConfig(fp_mode="raw", bp_mode="raw"),
            backend=SampledGCNBackend([3, 3], online=True),
        )
        trainer.setup()
        backend = trainer.engine.backend
        delay = {0: 0.0, 1: 0.02, 2: 0.06}  # per layer sampled
        sample_rows = SampledGCNBackend._sample_rows

        def slow_sample_rows(self, state, fanout):
            time.sleep(delay[state.worker_id])
            return sample_rows(self, state, fanout)

        monkeypatch.setattr(SampledGCNBackend, "_sample_rows", slow_sample_rows)
        before = trainer.runtime.compute_snapshot()
        backend.on_epoch_start(0)
        charged = trainer.runtime.compute_snapshot() - before
        for worker, seconds in delay.items():
            assert charged[worker] >= 2 * seconds
        # An even split would charge every worker about 0.053 s.
        assert charged[0] < 0.02
        assert charged[2] - charged[1] >= 0.06
        trainer.close()
