"""Unit tests for the network model and traffic meter."""

import pytest

from repro.cluster.network import (
    GIGABIT,
    NetworkModel,
    TrafficMeter,
    TrafficSnapshot,
)


class TestNetworkModel:
    def test_gigabit_default(self):
        assert GIGABIT.bandwidth_bytes_per_s == pytest.approx(125e6)

    def test_transfer_time_linear_in_bytes(self):
        net = NetworkModel(bandwidth_bytes_per_s=100.0, latency_s=0.0)
        assert net.transfer_seconds(200) == pytest.approx(2.0)

    def test_latency_per_message(self):
        net = NetworkModel(bandwidth_bytes_per_s=1e9, latency_s=0.01)
        assert net.transfer_seconds(0, num_messages=3) == pytest.approx(0.03)

    def test_invalid_bandwidth(self):
        with pytest.raises(ValueError):
            NetworkModel(bandwidth_bytes_per_s=0)

    def test_negative_latency(self):
        with pytest.raises(ValueError):
            NetworkModel(latency_s=-1)

    def test_zero_messages_with_bytes_rejected(self):
        """Bytes without a message would silently skip the latency
        charge; the model demands ``bandwidth_seconds`` for that."""
        net = NetworkModel(bandwidth_bytes_per_s=100.0, latency_s=0.01)
        with pytest.raises(ValueError, match="bandwidth_seconds"):
            net.transfer_seconds(500, num_messages=0)

    def test_negative_messages_rejected(self):
        with pytest.raises(ValueError):
            GIGABIT.transfer_seconds(100, num_messages=-1)

    def test_zero_bytes_zero_messages_is_free(self):
        assert GIGABIT.transfer_seconds(0, num_messages=0) == 0.0

    def test_bandwidth_seconds_has_no_latency(self):
        net = NetworkModel(bandwidth_bytes_per_s=100.0, latency_s=0.01)
        assert net.bandwidth_seconds(500) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            net.bandwidth_seconds(-1)

    def test_loss_detection_timeout(self):
        net = NetworkModel(
            bandwidth_bytes_per_s=100.0, latency_s=0.01, timeout_factor=4.0
        )
        # 4 x (transfer(500) + ack latency) = 4 x (5.0 + 0.01 + 0.01)
        assert net.loss_detection_seconds(500) == pytest.approx(4.0 * 5.02)

    def test_timeout_factor_validated(self):
        with pytest.raises(ValueError):
            NetworkModel(timeout_factor=0.5)


class TestTrafficMeter:
    def test_intra_machine_free(self):
        meter = TrafficMeter()
        meter.charge(0, 0, 1000, "fp_embeddings")
        assert meter.total_bytes == 0
        assert meter.epoch_bytes() == 0

    def test_inter_machine_charged(self):
        meter = TrafficMeter()
        meter.charge(0, 1, 1000, "fp_embeddings")
        assert meter.total_bytes == 1000
        assert meter.total_messages == 1

    def test_per_machine_accounting(self):
        meter = TrafficMeter()
        meter.charge(0, 1, 100, "a")
        meter.charge(2, 0, 50, "b")
        sent, received, messages = meter.epoch_machine_bytes(0)
        assert sent == 100 and received == 50
        assert messages == 2

    def test_category_breakdown(self):
        meter = TrafficMeter()
        meter.charge(0, 1, 10, "fp_embeddings")
        meter.charge(0, 1, 30, "fp_embeddings")
        meter.charge(1, 0, 5, "bp_gradients")
        assert meter.epoch_category_bytes() == {
            "fp_embeddings": 40,
            "bp_gradients": 5,
        }

    def test_reset_epoch_keeps_totals(self):
        meter = TrafficMeter()
        meter.charge(0, 1, 77, "x")
        meter.reset_epoch()
        assert meter.epoch_bytes() == 0
        assert meter.total_bytes == 77
        assert meter.snapshot().category_bytes == {"x": 77}

    def test_negative_bytes_rejected(self):
        meter = TrafficMeter()
        with pytest.raises(ValueError):
            meter.charge(0, 1, -5, "x")

    def test_comm_seconds_bottleneck_link(self):
        net = NetworkModel(bandwidth_bytes_per_s=100.0, latency_s=0.0)
        meter = TrafficMeter()
        meter.charge(0, 1, 100, "x")  # machine 0 sends 100, machine 1 recv
        meter.charge(0, 2, 300, "x")
        # Machine 0's link carries 400 sent; that's the bottleneck.
        assert meter.epoch_comm_seconds(net, 3) == pytest.approx(4.0)

    def test_comm_seconds_full_duplex(self):
        net = NetworkModel(bandwidth_bytes_per_s=100.0, latency_s=0.0)
        meter = TrafficMeter()
        meter.charge(0, 1, 200, "x")
        meter.charge(1, 0, 200, "x")
        # Send and receive overlap on a full-duplex link.
        assert meter.epoch_comm_seconds(net, 2) == pytest.approx(2.0)

    def test_comm_seconds_includes_latency(self):
        net = NetworkModel(bandwidth_bytes_per_s=1e12, latency_s=0.01)
        meter = TrafficMeter()
        meter.charge(0, 1, 1, "x")
        meter.charge(0, 1, 1, "x")
        # Each machine sees 2 one-sided message events; latency counts
        # once per message -> 2/2 * 0.01 on the bottleneck machine.
        assert meter.epoch_comm_seconds(net, 2) == pytest.approx(0.01, abs=1e-6)


class TestTrafficSnapshot:
    def test_snapshot_freezes_totals(self):
        meter = TrafficMeter()
        meter.charge(0, 1, 100, "fp")
        snap = meter.snapshot()
        meter.charge(0, 1, 50, "fp")
        assert snap.total_bytes == 100
        assert snap.category_bytes == {"fp": 100}
        assert meter.snapshot().total_bytes == 150

    def test_delta_between_snapshots(self):
        meter = TrafficMeter()
        meter.charge(0, 1, 100, "fp")
        before = meter.snapshot()
        meter.charge(0, 1, 30, "fp")
        meter.charge(1, 0, 20, "bp")
        delta = meter.snapshot().delta(before)
        assert delta.total_bytes == 50
        assert delta.total_messages == 2
        assert delta.category_bytes == {"fp": 30, "bp": 20}

    def test_delta_drops_zero_categories(self):
        before = TrafficSnapshot(10, 1, {"fp": 10})
        after = TrafficSnapshot(25, 2, {"fp": 10, "bp": 15})
        assert after.delta(before).category_bytes == {"bp": 15}

    def test_full_reset_clears_lifetime(self):
        meter = TrafficMeter()
        meter.charge(0, 1, 100, "fp")
        meter.reset()
        assert meter.total_bytes == 0
        assert meter.total_messages == 0
        assert meter.snapshot().category_bytes == {}
        assert meter.epoch_bytes() == 0
